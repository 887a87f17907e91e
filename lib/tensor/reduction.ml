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

(* [rnd cell f32 v] mirrors an intermediate tensor store: an f32 store
   rounds — here by storing into the one-element [cell], two instructions
   where bit-casting through [Int32] costs two C calls — and an f64 one
   keeps the double.  Each call takes its own cell, so concurrent kernels
   never share one. *)
let[@inline] rnd (cell : Tensor.f32buf) f32 v =
  if f32 then begin
    Bigarray.Array1.unsafe_set cell 0 v;
    Bigarray.Array1.unsafe_get cell 0
  end
  else v

let f32_cell () = Bigarray.Array1.create Bigarray.float32 Bigarray.c_layout 1

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

let softmax t ~axis =
  let m = reduce Max t ~axes:[ axis ] ~keepdims:true in
  let e = Tensor.map2 (fun x mx -> exp (x -. mx)) t m in
  let s = reduce Sum e ~axes:[ axis ] ~keepdims:true in
  Tensor.map2 ( /. ) e s

let log_softmax t ~axis =
  let m = reduce Max t ~axes:[ axis ] ~keepdims:true in
  let shifted = Tensor.map2 ( -. ) t m in
  let s = reduce Sum (Tensor.map_f exp shifted) ~axes:[ axis ] ~keepdims:true in
  Tensor.map2 (fun x lse -> x -. log lse) shifted s

let is_f32 dt = dt = Tensor.F32

(* LayerNorm below is a direct row loop, but it reproduces the op-by-op
   chain of broadcasting maps it replaces exactly (BatchNorm's channel
   loop, the same idea, is the block evaluator's [Norm] instruction):
   every intermediate that the chain stored as a tensor is rounded at the
   same point, in the dtype that tensor had (operands promote to the
   wider kind), and sums accumulate in ascending order in double
   precision as {!reduce} does. *)

(* One pass per last-axis row, walked with each parameter's broadcast
   strides. *)
let layer_norm t ~gamma ~beta ~eps =
  let d = Tensor.dims_arr t in
  let r = Array.length d in
  let covers v =
    try Tensor.broadcast_dims d (Tensor.dims_arr v) = d with Invalid_argument _ -> false
  in
  if r = 0 || not (covers gamma && covers beta) then
    invalid_arg "Reduction.layer_norm: parameters must broadcast to the input's shape"
  else begin
    let dt = Tensor.dtype t in
    let dg = Tensor.promote_f dt (Tensor.dtype gamma) in
    let out = Tensor.empty (Tensor.promote_f dg (Tensor.dtype beta)) (Tensor.dims t) in
    let x = Tensor.storage_f t and g = Tensor.storage_f gamma and b = Tensor.storage_f beta in
    let o = Tensor.storage_f out in
    let sg = Tensor.broadcast_strides (Tensor.dims_arr gamma) r in
    let sb = Tensor.broadcast_strides (Tensor.dims_arr beta) r in
    let dim = d.(r - 1) and lg = Tensor.innermost sg and lb = Tensor.innermost sb in
    let rt = is_f32 dt and rg = is_f32 dg and c = float_of_int (max 1 dim) in
    let cell = f32_cell () in
    Tensor.iter_rows d sg sb (fun base og ob ->
        let sum = ref 0.0 in
        for j = base to base + dim - 1 do
          sum := !sum +. fget x j
        done;
        let mean = rnd cell rt (!sum /. c) in
        let sq = ref 0.0 in
        for j = base to base + dim - 1 do
          let cj = rnd cell rt (fget x j -. mean) in
          sq := !sq +. rnd cell rt (cj *. cj)
        done;
        let sd = sqrt (rnd cell rt (!sq /. c) +. eps) in
        for j = 0 to dim - 1 do
          let nj = rnd cell rt (rnd cell rt (fget x (base + j) -. mean) /. sd) in
          fset o (base + j) (rnd cell rg (nj *. fget g (og + (j * lg))) +. fget b (ob + (j * lb)))
        done);
    out
  end

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
