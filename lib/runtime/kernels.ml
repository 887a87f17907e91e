(* Scalar semantics live in [Op_semantics] so the fused-group compiler and
   these reference kernels evaluate identical closures per element. *)
let unary_fn = Op_semantics.unary_fn
let float_binary_fn = Op_semantics.float_binary_fn
let int_binary_fn = Op_semantics.int_binary_fn

let reduce_kind : Op.reduce_kind -> Reduction.kind = function
  | Op.Rsum -> Reduction.Sum
  | Op.Rmean -> Reduction.Mean
  | Op.Rmax -> Reduction.Max
  | Op.Rmin -> Reduction.Min
  | Op.Rprod -> Reduction.Prod
  | Op.Rl2 -> Reduction.L2

let arg_err op msg =
  Sod2_error.failf ~op:(Op.name op) Sod2_error.Arity_mismatch "Kernels.run: %s" msg

let reshape_err fmt = Sod2_error.failf ~op:"Reshape" Sod2_error.Shape_mismatch fmt

let resolve_reshape_dims data target =
  let total = Tensor.numel data in
  let in_dims = Tensor.dims data in
  let in_rank = List.length in_dims in
  let dims =
    List.mapi
      (fun i d ->
        if d = 0 then
          if i < in_rank then List.nth in_dims i
          else
            reshape_err "dim %d is 0 (copy input dim) but input rank is only %d" i in_rank
        else if d < -1 then reshape_err "invalid target dim %d" d
        else d)
      (Tensor.to_int_list target)
  in
  if List.length (List.filter (fun d -> d = -1) dims) > 1 then
    reshape_err "at most one target dim may be -1";
  if List.mem (-1) dims then begin
    let known = List.fold_left (fun acc d -> if d = -1 then acc else acc * d) 1 dims in
    if known = 0 || total mod known <> 0 then
      reshape_err "cannot infer -1: %d elements not divisible by %d" total known;
    List.map (fun d -> if d = -1 then total / known else d) dims
  end
  else begin
    let prod = List.fold_left ( * ) 1 dims in
    if prod <> total then
      reshape_err "cannot reshape %d elements into %d" total prod;
    dims
  end

let run ?backend ?cls (op : Op.t) (inputs : Tensor.t list) : Tensor.t list =
  (* Without a backend every path below is the naive reference kernel, so
     golden comparisons and guarded fallback stay bit-exact. *)
  let map_f f x = match backend with Some be -> Backend.map_f be f x | None -> Tensor.map_f f x in
  let map2 f x y = match backend with Some be -> Backend.map2 be f x y | None -> Tensor.map2 f x y in
  (* Integer operands promote to F32 for float semantics; float operands
     keep their own precision (an F64 input must not silently narrow). *)
  let ensure_f t =
    if Tensor.is_float_dtype (Tensor.dtype t) then t else Tensor.cast t Tensor.F32
  in
  match op, inputs with
  | Op.Unary u, [ x ] -> (
    match Tensor.dtype x, u with
    | (Tensor.I64 | Tensor.I8), Op.Identity -> [ x ]
    | (Tensor.I64 | Tensor.I8), Op.Neg -> [ Tensor.map_i (fun v -> -v) x ]
    | (Tensor.I64 | Tensor.I8), Op.Abs -> [ Tensor.map_i abs x ]
    | (Tensor.I64 | Tensor.I8), Op.Not ->
      [ Tensor.map_i (fun v -> if v = 0 then 1 else 0) x ]
    | (Tensor.I64 | Tensor.I8), _ -> [ map_f (unary_fn u) (Tensor.cast x Tensor.F32) ]
    | (Tensor.F32 | Tensor.F64), _ -> [ map_f (unary_fn u) x ])
  | Op.Binary b, [ x; y ] -> (
    match Tensor.dtype x, Tensor.dtype y with
    | (Tensor.I64 | Tensor.I8), (Tensor.I64 | Tensor.I8) ->
      [ Tensor.map2i (int_binary_fn b) x y ]
    | _ -> [ map2 (float_binary_fn b) (ensure_f x) (ensure_f y) ])
  | Op.Clip (lo, hi), [ x ] -> [ map_f (fun v -> Float.min hi (Float.max lo v)) x ]
  | Op.Cast dt, [ x ] -> [ Tensor.cast x dt ]
  | Op.Where, [ c; a; b ] -> [ Transform.where (Tensor.cast c Tensor.I64) a b ]
  | Op.MatMul, [ a; b ] -> (
    match backend with
    | Some be -> [ Backend.matmul ?cls be a b ]
    | None -> [ Linalg.matmul a b ])
  | Op.Gemm { alpha; beta; trans_a; trans_b }, (a :: b :: rest) -> (
    let c = match rest with [ c ] -> Some c | _ -> None in
    match backend with
    | Some be -> [ Backend.gemm ?cls be ~alpha ~beta ~trans_a ~trans_b a b c ]
    | None -> [ Linalg.gemm ~alpha ~beta ~trans_a ~trans_b a b c ])
  | Op.Conv { stride; pads; dilation; groups }, (x :: w :: rest) -> (
    let b = match rest with [ b ] -> Some b | _ -> None in
    match backend with
    | Some be -> [ Backend.conv2d ?cls be ~stride ~pad:pads ~dilation ~groups x w b ]
    | None -> [ Linalg.conv2d ~stride ~pad:pads ~dilation ~groups x w b ])
  | Op.Conv1d { stride1; pads1; dilation1; groups1 }, (x :: w :: rest) -> (
    let b = match rest with [ b ] -> Some b | _ -> None in
    match backend with
    | Some be ->
      [ Backend.conv1d ?cls be ~stride:stride1 ~pad:pads1 ~dilation:dilation1
          ~groups:groups1 x w b ]
    | None ->
      [ Linalg.conv1d ~stride:stride1 ~pad:pads1 ~dilation:dilation1 ~groups:groups1 x w b ])
  | Op.MaxPool { kernel; pool_stride; pool_pads }, [ x ] ->
    [ Linalg.max_pool2d ~kernel ~stride:pool_stride ~pad:pool_pads x ]
  | Op.AveragePool { kernel; pool_stride; pool_pads }, [ x ] ->
    [ Linalg.avg_pool2d ~kernel ~stride:pool_stride ~pad:pool_pads x ]
  | Op.GlobalAveragePool, [ x ] -> [ Linalg.global_avg_pool x ]
  | Op.BatchNorm { eps }, [ x; scale; bias; mean; var ] ->
    [ Reduction.batch_norm x ~scale ~bias ~mean ~var ~eps ]
  | Op.LayerNorm { eps }, [ x; gamma; beta ] -> [ Reduction.layer_norm x ~gamma ~beta ~eps ]
  | Op.GroupNorm { num_groups; eps }, [ x; gamma; beta ] ->
    [ Reduction.group_norm x ~groups:num_groups ~gamma ~beta ~eps ]
  | Op.InstanceNorm { eps }, [ x; gamma; beta ] ->
    (* instance norm = group norm with one group per channel *)
    let channels = List.nth (Tensor.dims x) 1 in
    [ Reduction.group_norm x ~groups:channels ~gamma ~beta ~eps ]
  | Op.Softmax { axis }, [ x ] -> [ Reduction.softmax x ~axis ]
  | Op.LogSoftmax { axis }, [ x ] -> [ Reduction.log_softmax x ~axis ]
  | Op.Reduce { rkind; axes; keepdims }, [ x ] ->
    [ Reduction.reduce (reduce_kind rkind) x ~axes ~keepdims ]
  | Op.ArgMax { axis; keepdims }, [ x ] -> [ Reduction.argmax x ~axis ~keepdims ]
  | Op.ArgMin { axis; keepdims }, [ x ] -> [ Reduction.argmin x ~axis ~keepdims ]
  | Op.CumSum { axis }, [ x ] -> [ Reduction.cumsum x ~axis ]
  | Op.Transpose perm, [ x ] -> [ Transform.transpose x perm ]
  | Op.Reshape, [ x; target ] -> [ Tensor.reshape x (resolve_reshape_dims x target) ]
  | Op.Flatten { axis }, [ x ] ->
    let d = Tensor.dims x in
    let r = List.length d in
    let axis = if axis < 0 then axis + r else axis in
    let pre = List.filteri (fun i _ -> i < axis) d |> List.fold_left ( * ) 1 in
    [ Tensor.reshape x [ pre; Tensor.numel x / max 1 pre ] ]
  | Op.Squeeze axes, [ x ] ->
    let d = Tensor.dims x in
    let r = List.length d in
    let axes = List.map (fun a -> if a < 0 then a + r else a) axes in
    [ Tensor.reshape x (List.filteri (fun i _ -> not (List.mem i axes)) d) ]
  | Op.Unsqueeze axes, [ x ] ->
    let r = Tensor.rank x + List.length axes in
    let axes = List.map (fun a -> if a < 0 then a + r else a) axes in
    let rec weave i src =
      if i >= r then []
      else if List.mem i axes then 1 :: weave (i + 1) src
      else
        match src with
        | d :: rest -> d :: weave (i + 1) rest
        | [] -> 1 :: weave (i + 1) []
    in
    [ Tensor.reshape x (weave 0 (Tensor.dims x)) ]
  | Op.Concat { axis }, (_ :: _ as xs) -> [ Transform.concat xs ~axis ]
  | Op.Split { axis; sizes }, [ x ] -> Transform.split x ~axis ~sizes
  | Op.Slice, [ x; starts; ends; axes; steps ] ->
    [
      Transform.slice x
        ~starts:(Tensor.to_int_list starts)
        ~ends:(Tensor.to_int_list ends)
        ~axes:(Tensor.to_int_list axes)
        ~steps:(Tensor.to_int_list steps)
        ();
    ]
  | Op.Gather { axis }, [ x; indices ] ->
    [ Transform.gather x ~indices:(Tensor.cast indices Tensor.I64) ~axis ]
  | Op.Pad { pad_value }, [ x; pads ] ->
    let r = Tensor.rank x in
    let p = Tensor.to_int_list pads in
    if List.length p <> 2 * r then arg_err op "pads must have rank*2 entries";
    [
      Transform.pad x
        ~before:(List.filteri (fun i _ -> i < r) p)
        ~after:(List.filteri (fun i _ -> i >= r) p)
        ~value:pad_value;
    ]
  | Op.Expand, [ x; target ] ->
    let t = Tensor.to_int_list target in
    let out = Tensor.broadcast_dims (Tensor.dims_arr x) (Array.of_list t) in
    [ Tensor.broadcast_to x (Array.to_list out) ]
  | Op.Tile, [ x; repeats ] -> [ Transform.tile x ~repeats:(Tensor.to_int_list repeats) ]
  | Op.Resize Op.Nearest, [ x; sizes ] ->
    [ Transform.resize_nearest x ~out_spatial:(Tensor.to_int_list sizes) ]
  | Op.Upsample { scales }, [ x ] ->
    let d = Tensor.dims x in
    let spatial = List.filteri (fun i _ -> i >= 2) d in
    let out = List.map2 (fun s sc -> s * sc) spatial scales in
    [ Transform.resize_nearest x ~out_spatial:out ]
  | Op.DepthToSpace { block }, [ x ] -> [ Transform.depth_to_space x ~block ]
  | Op.SpaceToDepth { block }, [ x ] -> [ Transform.space_to_depth x ~block ]
  | Op.ShapeOf, [ x ] -> [ Tensor.of_int_list (Tensor.dims x) ]
  | Op.SizeOf, [ x ] -> [ Tensor.scalar_i (Tensor.numel x) ]
  | Op.ConstantOfShape { fill }, [ shape ] ->
    [ Tensor.full_f (Tensor.to_int_list shape) fill ]
  | Op.EyeLike, [ x ] -> (
    match Tensor.dims x with
    | [ n; m ] -> [ Tensor.init_f [ n; m ] (fun ix -> if ix.(0) = ix.(1) then 1.0 else 0.0) ]
    | _ -> arg_err op "expects a 2-d input")
  | Op.Range, [ start; limit; delta ] ->
    let scalar t = List.hd (Tensor.to_int_list (Tensor.cast t Tensor.I64)) in
    [ Transform.range ~start:(scalar start) ~limit:(scalar limit) ~delta:(scalar delta) ]
  | Op.OneHot { depth }, [ indices ] ->
    [ Transform.one_hot (Tensor.cast indices Tensor.I64) ~depth ]
  | Op.TopK { axis; largest }, [ x; k ] ->
    let k = List.hd (Tensor.to_int_list (Tensor.cast k Tensor.I64)) in
    let values, indices = Reduction.top_k x ~k ~axis ~largest in
    [ values; indices ]
  | Op.NonZero, [ x ] -> [ Reduction.nonzero x ]
  | Op.NonMaxSuppression { max_out; iou_threshold }, [ boxes; scores ] ->
    (* Simplified single-class NMS on [n×4] boxes and [n] scores. *)
    let n = List.hd (Tensor.dims boxes) in
    let area i =
      let x1 = Tensor.get_f boxes [| i; 0 |] and y1 = Tensor.get_f boxes [| i; 1 |] in
      let x2 = Tensor.get_f boxes [| i; 2 |] and y2 = Tensor.get_f boxes [| i; 3 |] in
      Float.max 0.0 (x2 -. x1) *. Float.max 0.0 (y2 -. y1)
    in
    let iou i j =
      let x1 = Float.max (Tensor.get_f boxes [| i; 0 |]) (Tensor.get_f boxes [| j; 0 |]) in
      let y1 = Float.max (Tensor.get_f boxes [| i; 1 |]) (Tensor.get_f boxes [| j; 1 |]) in
      let x2 = Float.min (Tensor.get_f boxes [| i; 2 |]) (Tensor.get_f boxes [| j; 2 |]) in
      let y2 = Float.min (Tensor.get_f boxes [| i; 3 |]) (Tensor.get_f boxes [| j; 3 |]) in
      let inter = Float.max 0.0 (x2 -. x1) *. Float.max 0.0 (y2 -. y1) in
      let union = area i +. area j -. inter in
      if union <= 0.0 then 0.0 else inter /. union
    in
    let order = List.init n Fun.id in
    let order =
      List.sort (fun i j -> compare (Tensor.get_f scores [| j |]) (Tensor.get_f scores [| i |])) order
    in
    let kept = ref [] in
    List.iter
      (fun i ->
        if List.length !kept < max_out
           && List.for_all (fun j -> iou i j < iou_threshold) !kept
        then kept := i :: !kept)
      order;
    let kept = List.rev !kept in
    [
      Tensor.create_i
        [ List.length kept; 3 ]
        (Array.of_list (List.concat_map (fun i -> [ 0; 0; i ]) kept));
    ]
  | (Op.If | Op.Loop), _ ->
    Sod2_error.failf ~op:(Op.name op) Sod2_error.Unsupported
      "Kernels.run: %s requires sub-graph support" (Op.name op)
  | (Op.Switch _ | Op.Combine _), _ ->
    Sod2_error.failf ~op:(Op.name op) Sod2_error.Unsupported
      "Kernels.run: control flow is routed by the executor, not evaluated as a kernel"
  | _, _ -> arg_err op (Printf.sprintf "arity %d not supported" (List.length inputs))

(* ------------------------------------------------------------------ *)
(* Destination-passing execution (arena runtime)                       *)

module BA1 = Bigarray.Array1

let view_dims_arr (v : Tensor.view) = Array.of_list v.Tensor.vdims

(* Destination kernels chunk large same-shape loops over the backend's
   domain pool — the boxed fallbacks get the same treatment from
   [Backend.map_f]/[map2], so memory mode never changes the parallelism. *)
let into_grain = 16_384

(* Broadcast-aware binary loop over views, writing into [dst] at [doff].
   Broadcasting operands take [Tensor.broadcast2_into], the walk behind
   [Tensor.map2].  The same-shape uniform-kind path dispatches once on the
   operator and buffer kinds and runs a direct-operator monomorphic loop
   for the four arithmetic ops: a kind-polymorphic bigarray access is a C
   call the compiler cannot inline, worth ~5x on this loop, and
   Add/Sub/Mul/Div dominate the pointwise traffic of streaming workloads.
   The float semantics are identical — [float_binary_fn] maps them to the
   same ( +. ) etc., and the destination store is the single f32 rounding
   point, exactly like [Tensor.map2]'s output store. *)
let binary_into ~chunked (b : Op.binary) (x : Tensor.view) (y : Tensor.view)
    (dst : Tensor.fbuf) doff =
  let dx = view_dims_arr x and dy = view_dims_arr y in
  let od = Tensor.broadcast_dims dx dy in
  let n = Array.fold_left ( * ) 1 od in
  let ox = x.Tensor.voff and oy = y.Tensor.voff in
  if dx = od && dy = od then begin
    match x.Tensor.vbuf, y.Tensor.vbuf, dst with
    | Tensor.FB32 bx, Tensor.FB32 by, Tensor.FB32 d ->
      chunked n
        (match b with
        | Op.Add ->
          fun lo hi ->
            for i = lo to hi do
              BA1.unsafe_set d (doff + i)
                (BA1.unsafe_get bx (ox + i) +. BA1.unsafe_get by (oy + i))
            done
        | Op.Sub ->
          fun lo hi ->
            for i = lo to hi do
              BA1.unsafe_set d (doff + i)
                (BA1.unsafe_get bx (ox + i) -. BA1.unsafe_get by (oy + i))
            done
        | Op.Mul ->
          fun lo hi ->
            for i = lo to hi do
              BA1.unsafe_set d (doff + i)
                (BA1.unsafe_get bx (ox + i) *. BA1.unsafe_get by (oy + i))
            done
        | Op.Div ->
          fun lo hi ->
            for i = lo to hi do
              BA1.unsafe_set d (doff + i)
                (BA1.unsafe_get bx (ox + i) /. BA1.unsafe_get by (oy + i))
            done
        | _ ->
          let f = float_binary_fn b in
          fun lo hi ->
            for i = lo to hi do
              BA1.unsafe_set d (doff + i)
                (f (BA1.unsafe_get bx (ox + i)) (BA1.unsafe_get by (oy + i)))
            done)
    | Tensor.FB64 bx, Tensor.FB64 by, Tensor.FB64 d ->
      chunked n
        (match b with
        | Op.Add ->
          fun lo hi ->
            for i = lo to hi do
              BA1.unsafe_set d (doff + i)
                (BA1.unsafe_get bx (ox + i) +. BA1.unsafe_get by (oy + i))
            done
        | Op.Sub ->
          fun lo hi ->
            for i = lo to hi do
              BA1.unsafe_set d (doff + i)
                (BA1.unsafe_get bx (ox + i) -. BA1.unsafe_get by (oy + i))
            done
        | Op.Mul ->
          fun lo hi ->
            for i = lo to hi do
              BA1.unsafe_set d (doff + i)
                (BA1.unsafe_get bx (ox + i) *. BA1.unsafe_get by (oy + i))
            done
        | Op.Div ->
          fun lo hi ->
            for i = lo to hi do
              BA1.unsafe_set d (doff + i)
                (BA1.unsafe_get bx (ox + i) /. BA1.unsafe_get by (oy + i))
            done
        | _ ->
          let f = float_binary_fn b in
          fun lo hi ->
            for i = lo to hi do
              BA1.unsafe_set d (doff + i)
                (f (BA1.unsafe_get bx (ox + i)) (BA1.unsafe_get by (oy + i)))
            done)
    | bx, by, d ->
      (* Mixed kinds (arena f32 against an f64 constant, say): cold path. *)
      let f = float_binary_fn b in
      chunked n (fun lo hi ->
          for i = lo to hi do
            Tensor.fbuf_set d (doff + i)
              (f (Tensor.fbuf_get bx (ox + i)) (Tensor.fbuf_get by (oy + i)))
          done)
  end
  else ignore (Tensor.broadcast2_into (float_binary_fn b) x y dst doff);
  Array.to_list od

let run_into ?backend ?cls (op : Op.t) (inputs : Tensor.view list)
    ~(c : Tensor.fbuf) ~(co : int) ~(cap : int) : int list option =
  let fits dims = List.fold_left ( * ) 1 dims = cap in
  let par =
    match backend with Some be -> Backend.par_of be | None -> Blocked.sequential
  in
  let chunked n body =
    if n >= 2 * into_grain then
      par.Blocked.run
        ((n + into_grain - 1) / into_grain)
        (fun ci ->
          let lo = ci * into_grain in
          body lo (min n (lo + into_grain) - 1))
    else if n > 0 then body 0 (n - 1)
  in
  (* [f] computes in double precision; the destination store rounds for
     f32 buffers — same single rounding as the boxed [Tensor.map_f]. *)
  let pointwise f (x : Tensor.view) =
    if not (fits x.Tensor.vdims) then None
    else begin
      let o = x.Tensor.voff in
      (match x.Tensor.vbuf, c with
      | Tensor.FB32 b, Tensor.FB32 d ->
        chunked cap (fun lo hi ->
            for i = lo to hi do
              BA1.unsafe_set d (co + i) (f (BA1.unsafe_get b (o + i)))
            done)
      | Tensor.FB64 b, Tensor.FB64 d ->
        chunked cap (fun lo hi ->
            for i = lo to hi do
              BA1.unsafe_set d (co + i) (f (BA1.unsafe_get b (o + i)))
            done)
      | b, d ->
        chunked cap (fun lo hi ->
            for i = lo to hi do
              Tensor.fbuf_set d (co + i) (f (Tensor.fbuf_get b (o + i)))
            done));
      Some x.Tensor.vdims
    end
  in
  match op, inputs with
  | Op.Unary Op.Relu, [ x ] -> (
    (* Same direct-loop treatment as the binary arithmetic fast path (a
       call through [pointwise]'s closure boxes every element);
       [Float.max 0.0 v] matches [unary_fn Relu] bit-for-bit. *)
    match x.Tensor.vbuf, c with
    | Tensor.FB32 b, Tensor.FB32 d when fits x.Tensor.vdims ->
      let o = x.Tensor.voff in
      chunked cap (fun lo hi ->
          for i = lo to hi do
            BA1.unsafe_set d (co + i) (Float.max 0.0 (BA1.unsafe_get b (o + i)))
          done);
      Some x.Tensor.vdims
    | _ -> pointwise (fun v -> Float.max 0.0 v) x)
  | Op.Unary u, [ x ] -> pointwise (unary_fn u) x
  | Op.Clip (lo, hi), [ x ] -> pointwise (fun v -> Float.min hi (Float.max lo v)) x
  | Op.Binary b, [ x; y ] ->
    let od = Tensor.broadcast_dims (view_dims_arr x) (view_dims_arr y) in
    if not (fits (Array.to_list od)) then None
    else Some (binary_into ~chunked b x y c co)
  | Op.BatchNorm { eps }, [ x; scale; bias; mean; var ] -> (
    match x.Tensor.vdims with
    | _ :: ch :: _ when fits x.Tensor.vdims
                        && Tensor.view_numel scale = ch
                        && Tensor.view_numel bias = ch
                        && Tensor.view_numel mean = ch
                        && Tensor.view_numel var = ch ->
      Reduction.batch_norm_into ~x ~scale ~bias ~mean ~var ~eps ~c ~co;
      Some x.Tensor.vdims
    | _ -> None)
  | Op.MatMul, [ a; b ] -> (
    match Linalg.matmul_out_dims a.Tensor.vdims b.Tensor.vdims with
    | exception Invalid_argument _ -> None
    | od when fits od -> (
      match backend with
      | Some be -> Some (Backend.matmul_into ?cls be a b ~c ~co)
      | None -> Some (Linalg.matmul_into a b ~c ~co))
    | _ -> None)
  | Op.Conv { stride; pads; dilation; groups }, (x :: w :: rest) -> (
    let b = match rest with [ b ] -> Some b | _ -> None in
    match x.Tensor.vdims, w.Tensor.vdims with
    | [ n; _; h; wd ], [ m; _; kh; kw ] ->
      let sh, sw = stride and dh, dw_ = dilation in
      let pt, pl, pb, pr = pads in
      let oh =
        Linalg.conv2d_out_dim ~in_:h ~kernel:kh ~stride:sh ~pad_begin:pt ~pad_end:pb
          ~dilation:dh
      in
      let ow =
        Linalg.conv2d_out_dim ~in_:wd ~kernel:kw ~stride:sw ~pad_begin:pl ~pad_end:pr
          ~dilation:dw_
      in
      if not (fits [ n; m; oh; ow ]) then None
      else (
        match backend with
        | Some be ->
          Some
            (Backend.conv2d_into ?cls be ~stride ~pad:pads ~dilation ~groups x w b ~c
               ~co)
        | None ->
          Some (Linalg.conv2d_into ~stride ~pad:pads ~dilation ~groups x w b ~c ~co))
    | _ -> None)
  | _ -> None
