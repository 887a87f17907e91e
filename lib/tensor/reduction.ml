type kind =
  | Sum
  | Mean
  | Max
  | Min
  | Prod
  | L2

let normalize_axes r axes =
  let axes = if axes = [] then List.init r Fun.id else axes in
  List.sort_uniq compare (List.map (fun a -> if a < 0 then a + r else a) axes)

(* Element access for the loops below.  Defined here rather than taken
   from [Tensor] so they inline: dev-profile builds are [-opaque],
   and a float returned from a call into another module is boxed. *)
let[@inline] fget buf i =
  match buf with
  | Tensor.FB32 b -> Bigarray.Array1.get b i
  | Tensor.FB64 b -> Bigarray.Array1.get b i

let[@inline] fset buf i v =
  match buf with
  | Tensor.FB32 b -> Bigarray.Array1.set b i v
  | Tensor.FB64 b -> Bigarray.Array1.set b i v

(* [rnd32 cell l v] mirrors an intermediate f32 tensor store: it rounds
   [v] by storing it into lane [l] of the four-element [cell] — two
   instructions, where bit-casting through [Int32] costs two C calls.
   [rnd cell f32 v] rounds only for an f32 store; an f64 one keeps the
   double.  Each call takes its own cell, so concurrent kernels never
   share one. *)
let[@inline] rnd32 (cell : Tensor.f32buf) l v =
  Bigarray.Array1.unsafe_set cell l v;
  Bigarray.Array1.unsafe_get cell l

let[@inline] rnd cell f32 v = if f32 then rnd32 cell 0 v else v
let f32_cell () = Bigarray.Array1.create Bigarray.float32 Bigarray.c_layout 4

let[@inline] step kind acc v =
  match kind with
  | Sum | Mean -> acc +. v
  | L2 -> acc +. (v *. v)
  | Max -> Float.max acc v
  | Min -> Float.min acc v
  | Prod -> acc *. v

(* Reductions accumulate in a plain [float array] scratch (double
   precision) in ascending flat order of the source and store into the
   output once — the store is the only rounding point for f32 tensors,
   the same contract the GEMM kernels follow.  Outputs preserve the
   input's float precision.  The source is read in place by a stride
   walk whose output strides are 0 on the reduced axes, so a reduction
   allocates its output and O(rank), never O(input). *)
let reduce kind t ~axes ~keepdims =
  let d = Tensor.dims_arr t in
  let r = Array.length d in
  let axes = normalize_axes r axes in
  let reduced = Array.make r false in
  List.iter (fun a -> reduced.(a) <- true) axes;
  let out_full = Array.mapi (fun i v -> if reduced.(i) then 1 else v) d in
  let count = List.fold_left (fun acc a -> acc * d.(a)) 1 axes in
  let init = match kind with
    | Sum | Mean | L2 -> 0.0
    | Max -> neg_infinity
    | Min -> infinity
    | Prod -> 1.0
  in
  let out_n = Array.fold_left ( * ) 1 out_full in
  let dst = Array.make (max 1 out_n) init in
  let ostr = Tensor.broadcast_strides out_full r in
  let len = Tensor.innermost d and l = Tensor.innermost ostr in
  let src = Tensor.storage_f t in
  Tensor.iter_rows d ostr ostr (fun base o _ ->
      for j = 0 to len - 1 do
        let o = o + (j * l) in
        Array.unsafe_set dst o (step kind (Array.unsafe_get dst o) (fget src (base + j)))
      done);
  (match kind with
  | Mean ->
    let c = float_of_int (max 1 count) in
    for i = 0 to out_n - 1 do
      dst.(i) <- dst.(i) /. c
    done
  | L2 ->
    for i = 0 to out_n - 1 do
      dst.(i) <- sqrt dst.(i)
    done
  | Sum | Max | Min | Prod -> ());
  let acc_t =
    Tensor.of_floats (Tensor.dtype t) (Array.to_list out_full)
      (Array.sub dst 0 out_n)
  in
  if keepdims then acc_t
  else
    let out_dims =
      List.filteri (fun i _ -> not reduced.(i)) (Array.to_list out_full)
    in
    Tensor.reshape acc_t out_dims

let arg_extreme ~is_max t ~axis ~keepdims =
  let d = Tensor.dims_arr t in
  let r = Array.length d in
  let axis = if axis < 0 then axis + r else axis in
  let out_full = Array.mapi (fun i v -> if i = axis then 1 else v) d in
  let out_n = Array.fold_left ( * ) 1 out_full in
  (* Comparisons run on the stored (already-rounded) values, so the chosen
     index is the same one a fully single-precision pipeline would pick. *)
  let bv = Array.make (max 1 out_n) (if is_max then neg_infinity else infinity) in
  let bi = Array.make (max 1 out_n) 0 in
  let src = Tensor.data_f t in
  for flat = 0 to Tensor.numel t - 1 do
    let ix = Tensor.unravel d flat in
    let out_ix = Array.mapi (fun i v -> if i = axis then 0 else v) ix in
    let o = Tensor.ravel out_full out_ix in
    let v = src.(flat) in
    let better = if is_max then v > bv.(o) else v < bv.(o) in
    if better then begin
      bv.(o) <- v;
      bi.(o) <- ix.(axis)
    end
  done;
  let idx =
    Tensor.create_i (Array.to_list out_full) (Array.sub bi 0 out_n)
  in
  if keepdims then idx
  else
    Tensor.reshape idx (List.filteri (fun i _ -> i <> axis) (Array.to_list out_full))

let argmax t ~axis ~keepdims = arg_extreme ~is_max:true t ~axis ~keepdims
let argmin t ~axis ~keepdims = arg_extreme ~is_max:false t ~axis ~keepdims

let log_softmax t ~axis =
  let m = reduce Max t ~axes:[ axis ] ~keepdims:true in
  let shifted = Tensor.map2 ( -. ) t m in
  let s = reduce Sum (Tensor.map_f exp shifted) ~axes:[ axis ] ~keepdims:true in
  Tensor.map2 (fun x lse -> x -. log lse) shifted s

let is_f32 dt = dt = Tensor.F32

(* The row kernels below write a destination window ([~c] at [~co]) and
   reproduce the op-by-op chains they replace exactly (BatchNorm's
   channel loop, the same idea, is the block evaluator's [Norm]
   instruction): every intermediate that the chain stored as a tensor is
   rounded at the same point, in the dtype that tensor had (operands
   promote to the wider kind), and sums accumulate in ascending order in
   double precision as {!reduce} does.  Their all-f32 arms load four
   elements before computing any, step the four through each rounding
   point together and round each in its own cell lane: see
   [Op_semantics] for why. *)

let[@inline] get32 (b : Tensor.f32buf) i = Bigarray.Array1.unsafe_get b i
let[@inline] set32 (b : Tensor.f32buf) i v = Bigarray.Array1.unsafe_set b i v

(* LayerNorm's parameters fit an input of dims [d] when they broadcast
   to exactly [d]. *)
let layer_norm_fits d gd bd =
  let covers v = try Tensor.broadcast_dims d v = d with Invalid_argument _ -> false in
  Array.length d > 0 && covers gd && covers bd

(* One all-f32 row of [dim] elements: [x] and [o] at [xo]/[oo], the
   parameters at [go]/[bo] with innermost strides [lg]/[lb]. *)
let[@inline] layer_norm_row32 cell ~eps ~c (x : Tensor.f32buf) xo (g : Tensor.f32buf) go lg
    (b : Tensor.f32buf) bo lb (o : Tensor.f32buf) oo dim =
  let sum = ref 0.0 and j = ref 0 in
  while !j + 4 <= dim do
    let k = xo + !j in
    let v0 = get32 x k and v1 = get32 x (k + 1) in
    let v2 = get32 x (k + 2) and v3 = get32 x (k + 3) in
    sum := !sum +. v0 +. v1 +. v2 +. v3;
    j := !j + 4
  done;
  for k = !j to dim - 1 do
    sum := !sum +. get32 x (xo + k)
  done;
  let mean = rnd32 cell 0 (!sum /. c) in
  let sq = ref 0.0 in
  j := 0;
  while !j + 4 <= dim do
    let k = xo + !j in
    let v0 = get32 x k and v1 = get32 x (k + 1) in
    let v2 = get32 x (k + 2) and v3 = get32 x (k + 3) in
    let v0 = rnd32 cell 0 (v0 -. mean) in
    let v1 = rnd32 cell 1 (v1 -. mean) in
    let v2 = rnd32 cell 2 (v2 -. mean) in
    let v3 = rnd32 cell 3 (v3 -. mean) in
    let v0 = rnd32 cell 0 (v0 *. v0) in
    let v1 = rnd32 cell 1 (v1 *. v1) in
    let v2 = rnd32 cell 2 (v2 *. v2) in
    let v3 = rnd32 cell 3 (v3 *. v3) in
    sq := !sq +. v0 +. v1 +. v2 +. v3;
    j := !j + 4
  done;
  for k = !j to dim - 1 do
    let v = rnd32 cell 0 (get32 x (xo + k) -. mean) in
    sq := !sq +. rnd32 cell 0 (v *. v)
  done;
  let sd = sqrt (rnd32 cell 0 (!sq /. c) +. eps) in
  j := 0;
  while !j + 4 <= dim do
    let q = !j in
    let k = xo + q and gk = go + (q * lg) and bk = bo + (q * lb) in
    let v0 = get32 x k and v1 = get32 x (k + 1) in
    let v2 = get32 x (k + 2) and v3 = get32 x (k + 3) in
    let g0 = get32 g gk and g1 = get32 g (gk + lg) in
    let g2 = get32 g (gk + (2 * lg)) and g3 = get32 g (gk + (3 * lg)) in
    let b0 = get32 b bk and b1 = get32 b (bk + lb) in
    let b2 = get32 b (bk + (2 * lb)) and b3 = get32 b (bk + (3 * lb)) in
    let v0 = rnd32 cell 0 (v0 -. mean) in
    let v1 = rnd32 cell 1 (v1 -. mean) in
    let v2 = rnd32 cell 2 (v2 -. mean) in
    let v3 = rnd32 cell 3 (v3 -. mean) in
    let v0 = rnd32 cell 0 (v0 /. sd) in
    let v1 = rnd32 cell 1 (v1 /. sd) in
    let v2 = rnd32 cell 2 (v2 /. sd) in
    let v3 = rnd32 cell 3 (v3 /. sd) in
    let v0 = rnd32 cell 0 (v0 *. g0) in
    let v1 = rnd32 cell 1 (v1 *. g1) in
    let v2 = rnd32 cell 2 (v2 *. g2) in
    let v3 = rnd32 cell 3 (v3 *. g3) in
    let k = oo + q in
    set32 o k (v0 +. b0);
    set32 o (k + 1) (v1 +. b1);
    set32 o (k + 2) (v2 +. b2);
    set32 o (k + 3) (v3 +. b3);
    j := q + 4
  done;
  for q = !j to dim - 1 do
    let v = rnd32 cell 0 (rnd32 cell 0 (get32 x (xo + q) -. mean) /. sd) in
    set32 o (oo + q) (rnd32 cell 0 (v *. get32 g (go + (q * lg))) +. get32 b (bo + (q * lb)))
  done

(* LayerNorm over the last axis of [x] into [c] at [co], in the dtype
   [x], [gamma] and [beta] promote to; the parameters must fit. *)
let layer_norm_into ~eps (x : Tensor.view) ~(gamma : Tensor.view) ~(beta : Tensor.view) ~c:o
    ~co =
  let d = Array.of_list x.Tensor.vdims in
  let gd = Array.of_list gamma.Tensor.vdims and bd = Array.of_list beta.Tensor.vdims in
  if not (layer_norm_fits d gd bd) then
    invalid_arg "Reduction.layer_norm: parameters must broadcast to the input's shape";
  let r = Array.length d in
  let sg = Tensor.broadcast_strides gd r and sb = Tensor.broadcast_strides bd r in
  let dim = d.(r - 1) and lg = Tensor.innermost sg and lb = Tensor.innermost sb in
  let c = float_of_int (max 1 dim) in
  let cell = f32_cell () in
  let xoff = x.Tensor.voff and goff = gamma.Tensor.voff and boff = beta.Tensor.voff in
  match x.Tensor.vbuf, gamma.Tensor.vbuf, beta.Tensor.vbuf, o with
  | Tensor.FB32 xb, Tensor.FB32 gb, Tensor.FB32 bb, Tensor.FB32 ob ->
    Tensor.iter_rows d sg sb (fun base og ob' ->
        layer_norm_row32 cell ~eps ~c xb (xoff + base) gb (goff + og) lg bb (boff + ob') lb ob
          (co + base) dim)
  | xb, g, b, _ ->
    let dt = Tensor.view_dtype x in
    let rt = is_f32 dt and rg = is_f32 (Tensor.promote_f dt (Tensor.view_dtype gamma)) in
    Tensor.iter_rows d sg sb (fun base og ob ->
        let xo = xoff + base and og = goff + og and ob = boff + ob in
        let sum = ref 0.0 in
        for j = xo to xo + dim - 1 do
          sum := !sum +. fget xb j
        done;
        let mean = rnd cell rt (!sum /. c) in
        let sq = ref 0.0 in
        for j = xo to xo + dim - 1 do
          let cj = rnd cell rt (fget xb j -. mean) in
          sq := !sq +. rnd cell rt (cj *. cj)
        done;
        let sd = sqrt (rnd cell rt (!sq /. c) +. eps) in
        for j = 0 to dim - 1 do
          let nj = rnd cell rt (rnd cell rt (fget xb (xo + j) -. mean) /. sd) in
          fset o (co + base + j)
            (rnd cell rg (nj *. fget g (og + (j * lg))) +. fget b (ob + (j * lb)))
        done)

(* [Float.max acc v], with the stdlib call only on ties and NaN. *)
let[@inline] fmax acc v = if v > acc then v else if v < acc then acc else Float.max acc v

(* Softmax along [axis] of [x] into [c] at [co]: the reference chain
   max, e = exp (x − max) stored, sum of the stored e stored, e / sum.
   Each lane (the [axis] elements of one position of the other axes,
   [inner] apart) runs the chain on its own; the stored e live in the
   destination, so [c] may be [x]'s own window. *)
let softmax_into ~axis (x : Tensor.view) ~c:o ~co =
  let d = Array.of_list x.Tensor.vdims in
  let r = Array.length d in
  let axis = if axis < 0 then axis + r else axis in
  if axis < 0 || axis >= r then invalid_arg "Reduction.softmax: axis out of range";
  let len = d.(axis) in
  let inner = Array.fold_left ( * ) 1 (Array.sub d (axis + 1) (r - axis - 1)) in
  let outer = Array.fold_left ( * ) 1 (Array.sub d 0 axis) in
  let cell = f32_cell () in
  for p = 0 to outer - 1 do
    for i = 0 to inner - 1 do
      let base = (p * len * inner) + i in
      let xo = x.Tensor.voff + base and oo = co + base in
      match x.Tensor.vbuf, o with
      | Tensor.FB32 xb, Tensor.FB32 ob ->
        let mx = ref neg_infinity and j = ref 0 in
        while !j + 4 <= len do
          let k = xo + (!j * inner) in
          let v0 = get32 xb k and v1 = get32 xb (k + inner) in
          let v2 = get32 xb (k + (2 * inner)) and v3 = get32 xb (k + (3 * inner)) in
          mx := fmax (fmax (fmax (fmax !mx v0) v1) v2) v3;
          j := !j + 4
        done;
        for q = !j to len - 1 do
          mx := fmax !mx (get32 xb (xo + (q * inner)))
        done;
        let mx = !mx in
        j := 0;
        while !j + 4 <= len do
          let q = !j * inner in
          let v0 = get32 xb (xo + q) and v1 = get32 xb (xo + q + inner) in
          let v2 = get32 xb (xo + q + (2 * inner)) and v3 = get32 xb (xo + q + (3 * inner)) in
          let k = oo + q in
          set32 ob k (exp (v0 -. mx));
          set32 ob (k + inner) (exp (v1 -. mx));
          set32 ob (k + (2 * inner)) (exp (v2 -. mx));
          set32 ob (k + (3 * inner)) (exp (v3 -. mx));
          j := !j + 4
        done;
        for q = !j to len - 1 do
          set32 ob (oo + (q * inner)) (exp (get32 xb (xo + (q * inner)) -. mx))
        done;
        let sum = ref 0.0 in
        j := 0;
        while !j + 4 <= len do
          let k = oo + (!j * inner) in
          let e0 = get32 ob k and e1 = get32 ob (k + inner) in
          let e2 = get32 ob (k + (2 * inner)) and e3 = get32 ob (k + (3 * inner)) in
          sum := !sum +. e0 +. e1 +. e2 +. e3;
          j := !j + 4
        done;
        for q = !j to len - 1 do
          sum := !sum +. get32 ob (oo + (q * inner))
        done;
        let s = rnd32 cell 0 !sum in
        j := 0;
        while !j + 4 <= len do
          let k = oo + (!j * inner) in
          let e0 = get32 ob k and e1 = get32 ob (k + inner) in
          let e2 = get32 ob (k + (2 * inner)) and e3 = get32 ob (k + (3 * inner)) in
          set32 ob k (e0 /. s);
          set32 ob (k + inner) (e1 /. s);
          set32 ob (k + (2 * inner)) (e2 /. s);
          set32 ob (k + (3 * inner)) (e3 /. s);
          j := !j + 4
        done;
        for q = !j to len - 1 do
          let k = oo + (q * inner) in
          set32 ob k (get32 ob k /. s)
        done
      | xb, ob ->
        let f32 = Tensor.fbuf_dtype ob = Tensor.F32 in
        let mx = ref neg_infinity in
        for q = 0 to len - 1 do
          mx := fmax !mx (fget xb (xo + (q * inner)))
        done;
        let mx = !mx in
        for q = 0 to len - 1 do
          fset ob (oo + (q * inner)) (exp (fget xb (xo + (q * inner)) -. mx))
        done;
        let sum = ref 0.0 in
        for q = 0 to len - 1 do
          sum := !sum +. fget ob (oo + (q * inner))
        done;
        let s = rnd cell f32 !sum in
        for q = 0 to len - 1 do
          let k = oo + (q * inner) in
          fset ob k (fget ob k /. s)
        done
    done
  done

let channel_shape t v =
  (* Reshape a per-channel vector to broadcast over axis 1 of [t]. *)
  let r = Tensor.rank t in
  let c = Tensor.numel v in
  Tensor.reshape v (1 :: c :: List.init (r - 2) (fun _ -> 1))

let group_norm t ~groups ~gamma ~beta ~eps =
  let d = Tensor.dims_arr t in
  let n = d.(0) and c = d.(1) in
  let spatial = Array.to_list (Array.sub d 2 (Array.length d - 2)) in
  let sp = List.fold_left ( * ) 1 spatial in
  let grouped = Tensor.reshape t [ n; groups; c / groups * sp ] in
  let mean = reduce Mean grouped ~axes:[ 2 ] ~keepdims:true in
  let centered = Tensor.map2 ( -. ) grouped mean in
  let var = reduce Mean (Tensor.map_f (fun v -> v *. v) centered) ~axes:[ 2 ] ~keepdims:true in
  let normed = Tensor.map2 (fun x v -> x /. sqrt (v +. eps)) centered var in
  let normed = Tensor.reshape normed (n :: c :: spatial) in
  let gamma = channel_shape t gamma and beta = channel_shape t beta in
  Tensor.map2 ( +. ) (Tensor.map2 ( *. ) normed gamma) beta

let top_k t ~k ~axis ~largest =
  let d = Tensor.dims_arr t in
  let r = Array.length d in
  let axis = if axis < 0 then axis + r else axis in
  let len = d.(axis) in
  let k = min k len in
  let out_dims = Array.to_list (Array.mapi (fun i v -> if i = axis then k else v) d) in
  let values = Tensor.zeros (Tensor.dtype t) out_dims in
  let indices = Tensor.zeros Tensor.I64 out_dims in
  (* Iterate over all positions with axis fixed to 0, sort each lane. *)
  let outer = Tensor.numel t / len in
  let lane_dims = Array.mapi (fun i v -> if i = axis then 1 else v) d in
  for o = 0 to outer - 1 do
    let base_ix = Tensor.unravel lane_dims o in
    let lane = Array.init len (fun j ->
        let ix = Array.copy base_ix in
        ix.(axis) <- j;
        Tensor.get_f t ix, j)
    in
    Array.sort
      (fun (a, ia) (b, ib) ->
        let c = compare b a in
        let c = if largest then c else -c in
        if c <> 0 then c else compare ia ib)
      lane;
    for j = 0 to k - 1 do
      let v, i = lane.(j) in
      let ix = Array.copy base_ix in
      ix.(axis) <- j;
      Tensor.set_f values ix v;
      Tensor.set_i indices ix i
    done
  done;
  values, indices

let nonzero t =
  let d = Tensor.dims_arr t in
  let r = Array.length d in
  let hits = ref [] in
  let count = ref 0 in
  let is_nz =
    if Tensor.is_float_dtype (Tensor.dtype t) then begin
      let src = Tensor.data_f t in
      fun flat -> src.(flat) <> 0.0
    end
    else begin
      let src = Tensor.data_i t in
      fun flat -> src.(flat) <> 0
    end
  in
  for flat = 0 to Tensor.numel t - 1 do
    if is_nz flat then begin
      hits := Tensor.unravel d flat :: !hits;
      incr count
    end
  done;
  let hits = Array.of_list (List.rev !hits) in
  let out = Tensor.zeros Tensor.I64 [ max r 1; !count ] in
  Array.iteri
    (fun j ix -> Array.iteri (fun i v -> Tensor.set_i out [| i; j |] v) ix)
    hits;
  out

let cumsum t ~axis =
  let d = Tensor.dims_arr t in
  let r = Array.length d in
  let axis = if axis < 0 then axis + r else axis in
  let dst = Tensor.data_f t in
  let n = Tensor.numel t in
  for flat = 0 to n - 1 do
    let ix = Tensor.unravel d flat in
    if ix.(axis) > 0 then begin
      let prev = Array.copy ix in
      prev.(axis) <- ix.(axis) - 1;
      dst.(flat) <- dst.(flat) +. dst.(Tensor.ravel d prev)
    end
  done;
  Tensor.of_floats (Tensor.dtype t) (Tensor.dims t) dst
