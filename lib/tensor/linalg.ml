let conv2d_out_dim ~in_ ~kernel ~stride ~pad_begin ~pad_end ~dilation =
  ((in_ + pad_begin + pad_end - (((kernel - 1) * dilation) + 1)) / stride) + 1

let conv2d_out_dims ~stride:(sh, sw) ~pad:(pt, pl, pb, pr) ~dilation:(dh, dw) xdims wdims =
  match xdims, wdims with
  | [ n; _; h; wd ], [ m; _; kh; kw ] ->
    [
      n;
      m;
      conv2d_out_dim ~in_:h ~kernel:kh ~stride:sh ~pad_begin:pt ~pad_end:pb ~dilation:dh;
      conv2d_out_dim ~in_:wd ~kernel:kw ~stride:sw ~pad_begin:pl ~pad_end:pr ~dilation:dw;
    ]
  | _ -> invalid_arg "Linalg.conv2d_out_dims: expects N×C×H×W input and M×C×KH×KW weight"

module BA1 = Bigarray.Array1

(* GEMM kernels operate on raw float storage ({!Tensor.fbuf}) so the same
   code path serves boxed tensors and arena slots in any float precision.

   Numerical contract (shared with {!Blocked.gemm}): every output element
   is accumulated in double precision over the full k extent, in ascending
   p order, and folded into C with exactly one store — so the store is the
   only rounding point under f32, and the naive and blocked kernels produce
   bit-identical results for finite inputs. *)
type gemm_kernel =
  m:int -> n:int -> k:int ->
  a:Tensor.fbuf -> ao:int -> b:Tensor.fbuf -> bo:int ->
  c:Tensor.fbuf -> co:int -> unit

(* One row of double-precision accumulators folded into C with a single
   rounding store per element.  [row] holds sum_p a[i,p]*b[p,j]. *)
let row_writeback c co n i row =
  let base = co + (i * n) in
  match c with
  | Tensor.FB32 cb ->
    for j = 0 to n - 1 do
      BA1.unsafe_set cb (base + j)
        (BA1.unsafe_get cb (base + j) +. Array.unsafe_get row j)
    done
  | Tensor.FB64 cb ->
    for j = 0 to n - 1 do
      BA1.unsafe_set cb (base + j)
        (BA1.unsafe_get cb (base + j) +. Array.unsafe_get row j)
    done

let naive_kernel : gemm_kernel =
 fun ~m ~n ~k ~a ~ao ~b ~bo ~c ~co ->
  let row = Array.make (max 1 n) 0.0 in
  (match a, b with
  | Tensor.FB32 a, Tensor.FB32 b ->
    for i = 0 to m - 1 do
      Array.fill row 0 n 0.0;
      for p = 0 to k - 1 do
        let av = BA1.unsafe_get a (ao + (i * k) + p) in
        if av <> 0.0 then begin
          let row_b = bo + (p * n) in
          for j = 0 to n - 1 do
            Array.unsafe_set row j
              (Array.unsafe_get row j +. (av *. BA1.unsafe_get b (row_b + j)))
          done
        end
      done;
      row_writeback c co n i row
    done
  | Tensor.FB64 a, Tensor.FB64 b ->
    for i = 0 to m - 1 do
      Array.fill row 0 n 0.0;
      for p = 0 to k - 1 do
        let av = BA1.unsafe_get a (ao + (i * k) + p) in
        if av <> 0.0 then begin
          let row_b = bo + (p * n) in
          for j = 0 to n - 1 do
            Array.unsafe_set row j
              (Array.unsafe_get row j +. (av *. BA1.unsafe_get b (row_b + j)))
          done
        end
      done;
      row_writeback c co n i row
    done
  | _ ->
    (* Mixed-precision operands: generic element access, cold by design. *)
    for i = 0 to m - 1 do
      Array.fill row 0 n 0.0;
      for p = 0 to k - 1 do
        let av = Tensor.fbuf_get a (ao + (i * k) + p) in
        if av <> 0.0 then begin
          let row_b = bo + (p * n) in
          for j = 0 to n - 1 do
            Array.unsafe_set row j
              (Array.unsafe_get row j +. (av *. Tensor.fbuf_get b (row_b + j)))
          done
        end
      done;
      row_writeback c co n i row
    done)

let check_conv_groups ~c ~groups ~cg =
  if groups <= 0 then
    Sod2_error.failf ~op:"Conv" Sod2_error.Shape_mismatch "groups must be positive, got %d"
      groups;
  if c mod groups <> 0 || c / groups <> cg then
    Sod2_error.failf ~op:"Conv" Sod2_error.Shape_mismatch
      "input channels %d with groups %d do not match weight channels-per-group %d" c
      groups cg

(* The env-free half of matmul: promoted operand dims, GEMM extents,
   broadcast batch space and the result dims (post promotion-squeeze). *)
type matmul_spec = {
  mm_batch_a : int array;
  mm_batch_b : int array;
  mm_batch : int array;
  mm_m : int;
  mm_n : int;
  mm_k : int;
  mm_out : int list;
}

let matmul_spec adims bdims =
  let promote_a = List.length adims = 1 in
  let promote_b = List.length bdims = 1 in
  let da = Array.of_list (if promote_a then 1 :: adims else adims) in
  let db = Array.of_list (if promote_b then bdims @ [ 1 ] else bdims) in
  let ra = Array.length da and rb = Array.length db in
  if ra < 2 || rb < 2 then invalid_arg "Linalg.matmul: operands must have rank >= 1";
  let m = da.(ra - 2) and ka = da.(ra - 1) in
  let kb = db.(rb - 2) and n = db.(rb - 1) in
  if ka <> kb then
    invalid_arg (Printf.sprintf "Linalg.matmul: inner dims %d vs %d" ka kb);
  let batch_a = Array.sub da 0 (ra - 2) in
  let batch_b = Array.sub db 0 (rb - 2) in
  let batch = Tensor.broadcast_dims batch_a batch_b in
  let out_full = Array.to_list batch @ [ m; n ] in
  let out =
    if promote_a then
      List.filteri (fun i _ -> i <> List.length out_full - 2) out_full
    else out_full
  in
  let out =
    if promote_b then List.filteri (fun i _ -> i <> List.length out - 1) out
    else out
  in
  { mm_batch_a = batch_a; mm_batch_b = batch_b; mm_batch = batch; mm_m = m; mm_n = n;
    mm_k = ka; mm_out = out }

let matmul_out_dims adims bdims = (matmul_spec adims bdims).mm_out

(* Matmul on the trailing two axes with broadcast batch dims, written
   directly into [c] at element offset [co] (destination passing — the
   arena executor points this at a planned slot).  [inner] computes one
   (m×k)·(k×n) product, accumulating into C — the backend swaps in the
   blocked kernel here while the batch-broadcast bookkeeping
   stays single-sourced.  Returns the result dims. *)
let matmul_into ?(inner = naive_kernel) (va : Tensor.view) (vb : Tensor.view) ~c ~co =
  let s = matmul_spec va.Tensor.vdims vb.Tensor.vdims in
  let m = s.mm_m and n = s.mm_n and k = s.mm_k in
  let batch = s.mm_batch in
  let nb = Array.fold_left ( * ) 1 batch in
  Tensor.fbuf_fill c co (nb * m * n) 0.0;
  let fa = va.Tensor.vbuf and fb = vb.Tensor.vbuf in
  let batch_size_a = m * k and batch_size_b = k * n in
  let na = Array.fold_left ( * ) 1 s.mm_batch_a in
  let nbb = Array.fold_left ( * ) 1 s.mm_batch_b in
  for bi = 0 to nb - 1 do
    (* Broadcast batch index into each operand's batch space. *)
    let ix = Tensor.unravel batch bi in
    let off_of sub_batch count =
      if count = 1 then 0
      else
        let r = Array.length sub_batch and ro = Array.length batch in
        let off = ref 0 and stride = ref 1 in
        for i = r - 1 downto 0 do
          let v = if sub_batch.(i) = 1 then 0 else ix.(i + (ro - r)) in
          off := !off + (v * !stride);
          stride := !stride * sub_batch.(i)
        done;
        !off
    in
    let base_a = va.Tensor.voff + (off_of s.mm_batch_a na * batch_size_a) in
    let base_b = vb.Tensor.voff + (off_of s.mm_batch_b nbb * batch_size_b) in
    let base_o = co + (bi * m * n) in
    inner ~m ~n ~k ~a:fa ~ao:base_a ~b:fb ~bo:base_b ~c ~co:base_o
  done;
  s.mm_out

(* [c.[co + j] += beta · src.[so + j·ls]] for [j < len]: one store per
   element. *)
let add_scaled_row ~beta src so ls c co len =
  match src, c with
  | Tensor.FB32 s, Tensor.FB32 d ->
    for j = 0 to len - 1 do
      BA1.unsafe_set d (co + j) (BA1.unsafe_get d (co + j) +. (beta *. BA1.unsafe_get s (so + (j * ls))))
    done
  | Tensor.FB64 s, Tensor.FB64 d ->
    for j = 0 to len - 1 do
      BA1.unsafe_set d (co + j) (BA1.unsafe_get d (co + j) +. (beta *. BA1.unsafe_get s (so + (j * ls))))
    done
  | _ ->
    for j = 0 to len - 1 do
      Tensor.fbuf_set c (co + j) (Tensor.fbuf_get c (co + j) +. (beta *. Tensor.fbuf_get src (so + (j * ls))))
    done

(* Destination-passing GEMM over views: the product, then alpha scaled in
   place on the destination window, then [beta · C] added with [C] read
   through its broadcast strides straight from its view.  Returns the
   result dims. *)
let gemm_into ?inner ?(alpha = 1.0) ?(beta = 1.0) (va : Tensor.view) (vb : Tensor.view)
    (vc : Tensor.view option) ~c ~co =
  let od = matmul_into ?inner va vb ~c ~co in
  let n_out = List.fold_left ( * ) 1 od in
  if alpha <> 1.0 then begin
    match c with
    | Tensor.FB32 cb ->
      for i = co to co + n_out - 1 do
        BA1.unsafe_set cb i (BA1.unsafe_get cb i *. alpha)
      done
    | Tensor.FB64 cb ->
      for i = co to co + n_out - 1 do
        BA1.unsafe_set cb i (BA1.unsafe_get cb i *. alpha)
      done
  end;
  Option.iter
    (fun (vc : Tensor.view) ->
      let od = Array.of_list od and cd = Array.of_list vc.Tensor.vdims in
      if Tensor.broadcast_dims cd od <> od then
        invalid_arg "Linalg.gemm: C does not broadcast to the product";
      let sc = Tensor.broadcast_strides cd (Array.length od) in
      let len = Tensor.innermost od and lc = Tensor.innermost sc in
      Tensor.iter_rows od sc sc (fun o oc _ ->
          add_scaled_row ~beta vc.Tensor.vbuf (vc.Tensor.voff + oc) lc c (co + o) len))
    vc;
  od

let conv2d_into ?(stride = (1, 1)) ?(pad = (0, 0, 0, 0)) ?(dilation = (1, 1)) ?(groups = 1)
    (vx : Tensor.view) (vw : Tensor.view) (vb : Tensor.view option) ~c:dst ~co =
  let dx = Array.of_list vx.Tensor.vdims and dw = Array.of_list vw.Tensor.vdims in
  if Array.length dx <> 4 then invalid_arg "Linalg.conv2d: input must be N×C×H×W";
  if Array.length dw <> 4 then invalid_arg "Linalg.conv2d: weight must be M×C×KH×KW";
  let n = dx.(0) and c = dx.(1) and h = dx.(2) and wd = dx.(3) in
  let m = dw.(0) and cg = dw.(1) and kh = dw.(2) and kw = dw.(3) in
  let sh, sw = stride in
  let pt, pl, pb, pr = pad in
  let dh, dw_ = dilation in
  check_conv_groups ~c ~groups ~cg;
  let oh = conv2d_out_dim ~in_:h ~kernel:kh ~stride:sh ~pad_begin:pt ~pad_end:pb ~dilation:dh in
  let ow = conv2d_out_dim ~in_:wd ~kernel:kw ~stride:sw ~pad_begin:pl ~pad_end:pr ~dilation:dw_ in
  let so = vx.Tensor.voff and wo = vw.Tensor.voff in
  let mg = m / groups in
  (* [sum_taps] accumulates one output element over (ci, ky, kx) in double
     precision, from zero — the same summation order as the im2col GEMM —
     and the caller folds the bias in at the single rounding store. *)
  let sum_taps =
    match vx.Tensor.vbuf, vw.Tensor.vbuf with
    | Tensor.FB32 src, Tensor.FB32 wsrc ->
      fun ~ni ~g ~mi ~oy ~ox ->
        let acc = ref 0.0 in
        for ci = 0 to cg - 1 do
          let cin = (g * cg) + ci in
          for ky = 0 to kh - 1 do
            let iy = (oy * sh) - pt + (ky * dh) in
            if iy >= 0 && iy < h then
              for kx = 0 to kw - 1 do
                let ix = (ox * sw) - pl + (kx * dw_) in
                if ix >= 0 && ix < wd then
                  acc :=
                    !acc
                    +. BA1.unsafe_get src (so + (((((ni * c) + cin) * h) + iy) * wd) + ix)
                       *. BA1.unsafe_get wsrc
                            (wo + (((((mi * cg) + ci) * kh) + ky) * kw) + kx)
              done
          done
        done;
        !acc
    | _ ->
      fun ~ni ~g ~mi ~oy ~ox ->
        let src = vx.Tensor.vbuf and wsrc = vw.Tensor.vbuf in
        let acc = ref 0.0 in
        for ci = 0 to cg - 1 do
          let cin = (g * cg) + ci in
          for ky = 0 to kh - 1 do
            let iy = (oy * sh) - pt + (ky * dh) in
            if iy >= 0 && iy < h then
              for kx = 0 to kw - 1 do
                let ix = (ox * sw) - pl + (kx * dw_) in
                if ix >= 0 && ix < wd then
                  acc :=
                    !acc
                    +. Tensor.fbuf_get src (so + (((((ni * c) + cin) * h) + iy) * wd) + ix)
                       *. Tensor.fbuf_get wsrc
                            (wo + (((((mi * cg) + ci) * kh) + ky) * kw) + kx)
              done
          done
        done;
        !acc
  in
  for ni = 0 to n - 1 do
    for mi = 0 to m - 1 do
      let g = mi / mg in
      let bias_v =
        match vb with Some v -> Tensor.fbuf_get v.Tensor.vbuf (v.Tensor.voff + mi) | None -> 0.0
      in
      for oy = 0 to oh - 1 do
        for ox = 0 to ow - 1 do
          let acc = sum_taps ~ni ~g ~mi ~oy ~ox in
          Tensor.fbuf_set dst
            (co + (((((ni * m) + mi) * oh) + oy) * ow) + ox)
            (bias_v +. acc)
        done
      done
    done
  done;
  [ n; m; oh; ow ]

(* The pools read their input window in place and store each result once,
   so the store is the single rounding point. *)
let[@inline] fget buf i =
  match buf with Tensor.FB32 b -> BA1.get b i | Tensor.FB64 b -> BA1.get b i

let[@inline] fset buf i v =
  match buf with Tensor.FB32 b -> BA1.set b i v | Tensor.FB64 b -> BA1.set b i v

let pool2d_out_dims ~kernel:(kh, kw) ?stride:((sh, sw) = (1, 1))
    ?pad:((pt, pl, pb, pr) = (0, 0, 0, 0)) = function
  | [ n; c; h; w ] ->
    [
      n;
      c;
      conv2d_out_dim ~in_:h ~kernel:kh ~stride:sh ~pad_begin:pt ~pad_end:pb ~dilation:1;
      conv2d_out_dim ~in_:w ~kernel:kw ~stride:sw ~pad_begin:pl ~pad_end:pr ~dilation:1;
    ]
  | _ -> invalid_arg "Linalg.pool2d_out_dims: expects an N×C×H×W input"

(* Each window is walked ky then kx over its in-bounds taps: max keeps a
   tap only when [v > acc], average divides the sum by the tap count, and
   a window wholly in padding yields 0.  Interior windows (every column
   tap in bounds) go four at a time, each with its own accumulator, so
   the four loads of a tap step issue together. *)
let pool2d_into ~kind ~kernel ?(stride = (1, 1)) ?(pad = (0, 0, 0, 0)) (x : Tensor.view)
    ~c:dst ~co =
  let od = pool2d_out_dims ~kernel ~stride ~pad x.Tensor.vdims in
  (match x.Tensor.vdims, od with
  | [ n; c; h; w ], [ _; _; oh; ow ] ->
    let kh, kw = kernel and sh, sw = stride in
    let pt, pl, _, _ = pad in
    let src = x.Tensor.vbuf and is_max = kind = `Max in
    (* output columns whose windows lie within [0, w) *)
    let interior ox = ox < ow && (ox * sw) - pl >= 0 && (ox * sw) - pl + kw <= w in
    for plane = 0 to (n * c) - 1 do
      let ib = x.Tensor.voff + (plane * h * w) and ob = co + (plane * oh * ow) in
      for oy = 0 to oh - 1 do
        (* the window's in-bounds rows [ky0, ky1) and columns [kx0, kx1) *)
        let y0 = (oy * sh) - pt in
        let ky0 = Int.max 0 (-y0) and ky1 = Int.min kh (h - y0) in
        let ox = ref 0 in
        while !ox < ow do
          let x0 = (!ox * sw) - pl and o = ob + (oy * ow) + !ox in
          if ky0 < ky1 && interior !ox && interior (!ox + 3) then begin
            let a0 = ref (if is_max then neg_infinity else 0.0) in
            let a1 = ref !a0 and a2 = ref !a0 and a3 = ref !a0 in
            for ky = ky0 to ky1 - 1 do
              let row = ib + ((y0 + ky) * w) + x0 in
              for kx = 0 to kw - 1 do
                let s0 = row + kx in
                let v0 = fget src s0 and v1 = fget src (s0 + sw) in
                let v2 = fget src (s0 + (2 * sw)) and v3 = fget src (s0 + (3 * sw)) in
                if is_max then begin
                  if v0 > !a0 then a0 := v0;
                  if v1 > !a1 then a1 := v1;
                  if v2 > !a2 then a2 := v2;
                  if v3 > !a3 then a3 := v3
                end
                else begin
                  a0 := !a0 +. v0;
                  a1 := !a1 +. v1;
                  a2 := !a2 +. v2;
                  a3 := !a3 +. v3
                end
              done
            done;
            (* a max divides by one, exactly *)
            let area = if is_max then 1.0 else float_of_int ((ky1 - ky0) * kw) in
            fset dst o (!a0 /. area);
            fset dst (o + 1) (!a1 /. area);
            fset dst (o + 2) (!a2 /. area);
            fset dst (o + 3) (!a3 /. area);
            ox := !ox + 4
          end
          else begin
            let kx0 = Int.max 0 (-x0) and kx1 = Int.min kw (w - x0) in
            if ky1 <= ky0 || kx1 <= kx0 then fset dst o 0.0
            else if is_max then begin
              let acc = ref neg_infinity in
              for ky = ky0 to ky1 - 1 do
                let row = ib + ((y0 + ky) * w) + x0 in
                for kx = kx0 to kx1 - 1 do
                  let v = fget src (row + kx) in
                  if v > !acc then acc := v
                done
              done;
              fset dst o !acc
            end
            else begin
              let acc = ref 0.0 in
              for ky = ky0 to ky1 - 1 do
                let row = ib + ((y0 + ky) * w) + x0 in
                for kx = kx0 to kx1 - 1 do
                  acc := !acc +. fget src (row + kx)
                done
              done;
              fset dst o (!acc /. float_of_int ((ky1 - ky0) * (kx1 - kx0)))
            end;
            incr ox
          end
        done
      done
    done
  | _ -> assert false);
  od

let global_pool_out_dims = function
  | n :: c :: (_ :: _ as sp) -> n :: c :: List.map (fun _ -> 1) sp
  | _ -> invalid_arg "Linalg.global_avg_pool: rank must be >= 3"

(* Each plane's sum ascends, four loads ahead. *)
let global_avg_pool_into (x : Tensor.view) ~c:dst ~co =
  let od = global_pool_out_dims x.Tensor.vdims in
  let planes = List.fold_left ( * ) 1 od in
  let spatial = List.fold_left ( * ) 1 (List.tl (List.tl x.Tensor.vdims)) in
  let src = x.Tensor.vbuf in
  for plane = 0 to planes - 1 do
    let base = x.Tensor.voff + (plane * spatial) in
    let acc = ref 0.0 and s = ref 0 in
    while !s + 4 <= spatial do
      let k = base + !s in
      let v0 = fget src k and v1 = fget src (k + 1) in
      let v2 = fget src (k + 2) and v3 = fget src (k + 3) in
      acc := !acc +. v0 +. v1 +. v2 +. v3;
      s := !s + 4
    done;
    for s = !s to spatial - 1 do
      acc := !acc +. fget src (base + s)
    done;
    fset dst (co + plane) (!acc /. float_of_int spatial)
  done;
  od
