(* Index-walking reference implementations of the stride-walking kernels
   in [Tensor], [Reduction] and [Transform]: every element is visited
   through an unravelled multi-index, and normalizations are chains of
   broadcasting maps that store (and, in f32, round) each intermediate.
   The library's [Reference] interpreter calls the same kernels as the
   optimized backends, so differential tests against it cannot see a
   numerics change in them; these can.  Test-only, and deliberately slow. *)

(* Flat offset of [ix] (an index into the broadcast shape [out]) within a
   tensor of shape [src], applying stride-0 semantics on size-1 axes. *)
let broadcast_offset src out ix =
  let rs = Array.length src and ro = Array.length out in
  let off = ref 0 in
  let stride = ref 1 in
  for i = rs - 1 downto 0 do
    let oi = i + (ro - rs) in
    let v = if src.(i) = 1 then 0 else ix.(oi) in
    off := !off + (v * !stride);
    stride := !stride * src.(i)
  done;
  !off

let promote a b = if a = Tensor.F64 || b = Tensor.F64 then Tensor.F64 else Tensor.F32

let map2 f a b =
  let da = Tensor.dims_arr a and db = Tensor.dims_arr b in
  let out = Tensor.broadcast_dims da db in
  let n = Array.fold_left ( * ) 1 out in
  let xa = Tensor.data_f a and xb = Tensor.data_f b in
  let dst = Array.make n 0.0 in
  for flat = 0 to n - 1 do
    let ix = Tensor.unravel out flat in
    dst.(flat) <-
      f xa.(broadcast_offset da out ix) xb.(broadcast_offset db out ix)
  done;
  Tensor.of_floats
    (promote (Tensor.dtype a) (Tensor.dtype b))
    (Array.to_list out) dst

let map_f f t = Tensor.of_floats (Tensor.dtype t) (Tensor.dims t) (Array.map f (Tensor.data_f t))

let reduce kind t ~axes ~keepdims =
  let d = Tensor.dims_arr t in
  let r = Array.length d in
  let axes =
    let axes = if axes = [] then List.init r Fun.id else axes in
    List.sort_uniq compare (List.map (fun a -> if a < 0 then a + r else a) axes)
  in
  let reduced = Array.make r false in
  List.iter (fun a -> reduced.(a) <- true) axes;
  let out_full = Array.mapi (fun i v -> if reduced.(i) then 1 else v) d in
  let count = List.fold_left (fun acc a -> acc * d.(a)) 1 axes in
  let init =
    match kind with
    | Reduction.Sum | Reduction.Mean | Reduction.L2 -> 0.0
    | Reduction.Max -> neg_infinity
    | Reduction.Min -> infinity
    | Reduction.Prod -> 1.0
  in
  let out_n = Array.fold_left ( * ) 1 out_full in
  let dst = Array.make (max 1 out_n) init in
  let src = Tensor.data_f t in
  for flat = 0 to Tensor.numel t - 1 do
    let ix = Tensor.unravel d flat in
    let out_ix = Array.mapi (fun i v -> if reduced.(i) then 0 else v) ix in
    let o = Tensor.ravel out_full out_ix in
    let v = src.(flat) in
    dst.(o) <-
      (match kind with
      | Reduction.Sum | Reduction.Mean -> dst.(o) +. v
      | Reduction.L2 -> dst.(o) +. (v *. v)
      | Reduction.Max -> Float.max dst.(o) v
      | Reduction.Min -> Float.min dst.(o) v
      | Reduction.Prod -> dst.(o) *. v)
  done;
  (match kind with
  | Reduction.Mean ->
    let c = float_of_int (max 1 count) in
    Array.iteri (fun i v -> dst.(i) <- v /. c) dst
  | Reduction.L2 -> Array.iteri (fun i v -> dst.(i) <- sqrt v) dst
  | _ -> ());
  let acc_t =
    Tensor.of_floats (Tensor.dtype t) (Array.to_list out_full) (Array.sub dst 0 out_n)
  in
  if keepdims then acc_t
  else
    Tensor.reshape acc_t
      (List.filteri (fun i _ -> not reduced.(i)) (Array.to_list out_full))

let layer_norm t ~gamma ~beta ~eps =
  let r = Tensor.rank t in
  let mean = reduce Reduction.Mean t ~axes:[ r - 1 ] ~keepdims:true in
  let centered = map2 ( -. ) t mean in
  let var =
    reduce Reduction.Mean (map_f (fun v -> v *. v) centered) ~axes:[ r - 1 ] ~keepdims:true
  in
  let normed = map2 (fun c v -> c /. sqrt (v +. eps)) centered var in
  map2 ( +. ) (map2 ( *. ) normed gamma) beta

(* The chain the softmax kernel reproduces: max, exp of the shifted
   input, sum, quotient — each stored in the input's dtype. *)
let softmax t ~axis =
  let m = reduce Reduction.Max t ~axes:[ axis ] ~keepdims:true in
  let e = map2 (fun x mx -> exp (x -. mx)) t m in
  map2 ( /. ) e (reduce Reduction.Sum e ~axes:[ axis ] ~keepdims:true)

let channel_shape t v =
  let r = Tensor.rank t in
  Tensor.reshape v (1 :: Tensor.numel v :: List.init (r - 2) (fun _ -> 1))

let batch_norm t ~scale ~bias ~mean ~var ~eps =
  let scale = channel_shape t scale and bias = channel_shape t bias in
  let mean = channel_shape t mean and var = channel_shape t var in
  let normed = map2 (fun x m -> x -. m) t mean in
  let normed = map2 (fun x v -> x /. sqrt (v +. eps)) normed var in
  map2 ( +. ) (map2 ( *. ) normed scale) bias

let group_norm t ~groups ~gamma ~beta ~eps =
  let d = Tensor.dims_arr t in
  let n = d.(0) and c = d.(1) in
  let spatial = Array.to_list (Array.sub d 2 (Array.length d - 2)) in
  let sp = List.fold_left ( * ) 1 spatial in
  let grouped = Tensor.reshape t [ n; groups; c / groups * sp ] in
  let mean = reduce Reduction.Mean grouped ~axes:[ 2 ] ~keepdims:true in
  let centered = map2 ( -. ) grouped mean in
  let var =
    reduce Reduction.Mean (map_f (fun v -> v *. v) centered) ~axes:[ 2 ] ~keepdims:true
  in
  let normed = map2 (fun x v -> x /. sqrt (v +. eps)) centered var in
  let normed = Tensor.reshape normed (n :: c :: spatial) in
  map2 ( +. ) (map2 ( *. ) normed (channel_shape t gamma)) (channel_shape t beta)

(* [init_like t dims f]: a tensor of [t]'s dtype whose element at index
   [ix] is [f ix] — float or int by [t]'s kind. *)
let init_like t dims f_float f_int =
  let od = Array.of_list dims in
  let n = Array.fold_left ( * ) 1 od in
  if Tensor.is_float_dtype (Tensor.dtype t) then
    Tensor.of_floats (Tensor.dtype t) dims
      (Array.init n (fun flat -> f_float (Tensor.unravel od flat)))
  else
    Tensor.of_ints (Tensor.dtype t) dims
      (Array.init n (fun flat -> f_int (Tensor.unravel od flat)))

let gather t dims remap =
  init_like t dims (fun ix -> Tensor.get_f t (remap ix)) (fun ix -> Tensor.get_i t (remap ix))

let transpose t perm =
  let d = Tensor.dims_arr t in
  let r = Array.length d in
  let perm = Array.of_list perm in
  gather t
    (Array.to_list (Array.map (fun p -> d.(p)) perm))
    (fun ix ->
      let src_ix = Array.make r 0 in
      Array.iteri (fun i p -> src_ix.(p) <- ix.(i)) perm;
      src_ix)

(* ONNX Gather: the result index [ix] reads the source at [ix] with the
   axis's coordinate replaced by the index stored at [ix]'s coordinates
   over the indices' rank, counted from the axis's end when negative. *)
let gather_axis t ~indices ~axis =
  let d = Tensor.dims_arr t in
  let r = Array.length d in
  let axis = if axis < 0 then axis + r else axis in
  let k = Tensor.rank indices in
  gather t
    (List.filteri (fun i _ -> i < axis) (Tensor.dims t)
    @ Tensor.dims indices
    @ List.filteri (fun i _ -> i > axis) (Tensor.dims t))
    (fun ix ->
      let p = Tensor.get_i indices (Array.sub ix axis k) in
      Array.init r (fun i ->
          if i < axis then ix.(i)
          else if i = axis then if p < 0 then p + d.(axis) else p
          else ix.(i + k - 1)))

(* Nearest resize of the axes past the first two to [out]: result index
   [i] of an axis of source extent [e] and result extent [o] reads source
   index [min (e - 1) (i * e / o)]. *)
let resize_nearest t out =
  let d = Tensor.dims_arr t in
  let od = Array.of_list (List.filteri (fun i _ -> i < 2) (Tensor.dims t) @ out) in
  gather t (Array.to_list od) (fun ix ->
      Array.mapi (fun a i -> if a < 2 then i else min (d.(a) - 1) (i * d.(a) / od.(a))) ix)

let normalize_slice_bound dim v ~is_end ~step =
  let v = if v < 0 then v + dim else v in
  if step > 0 then max 0 (min v dim)
  else if is_end then max (-1) (min v (dim - 1))
  else max 0 (min v (dim - 1))

let slice t ~starts ~ends ~axes ~steps =
  let d = Tensor.dims_arr t in
  let r = Array.length d in
  let start_arr = Array.make r 0 and step_arr = Array.make r 1 in
  let len_arr = Array.copy d in
  List.iteri
    (fun i axis ->
      let axis = if axis < 0 then axis + r else axis in
      let step = List.nth steps i in
      let s = normalize_slice_bound d.(axis) (List.nth starts i) ~is_end:false ~step in
      let e = normalize_slice_bound d.(axis) (List.nth ends i) ~is_end:true ~step in
      let count =
        if step > 0 then (e - s + step - 1) / step else (s - e + -step - 1) / -step
      in
      start_arr.(axis) <- s;
      step_arr.(axis) <- step;
      len_arr.(axis) <- max 0 count)
    axes;
  gather t (Array.to_list len_arr) (fun ix ->
      Array.mapi (fun i v -> start_arr.(i) + (v * step_arr.(i))) ix)

let concat ts ~axis =
  let first = List.hd ts in
  let r = Tensor.rank first in
  let axis = if axis < 0 then axis + r else axis in
  let out_axis = List.fold_left (fun acc t -> acc + (Tensor.dims_arr t).(axis)) 0 ts in
  let out =
    Tensor.zeros (Tensor.dtype first)
      (List.mapi (fun i v -> if i = axis then out_axis else v) (Tensor.dims first))
  in
  let as_float = Tensor.is_float_dtype (Tensor.dtype first) in
  let offset = ref 0 in
  List.iter
    (fun t ->
      let d = Tensor.dims_arr t in
      for flat = 0 to Tensor.numel t - 1 do
        let ix = Tensor.unravel d flat in
        let out_ix = Array.copy ix in
        out_ix.(axis) <- ix.(axis) + !offset;
        if as_float then Tensor.set_f out out_ix (Tensor.get_f t ix)
        else Tensor.set_i out out_ix (Tensor.get_i t ix)
      done;
      offset := !offset + d.(axis))
    ts;
  out

(* Pools by output multi-index: a window's in-bounds taps are read ky
   then kx through [Tensor.get_f]; max keeps a tap when [v > acc],
   average divides the sum by the tap count, and a window with no tap
   (wholly in padding) is 0.  The result has the input's dtype. *)
let pool2d kind t ~kernel:(kh, kw) ~stride:(sh, sw) ~pad:(pt, pl, pb, pr) =
  let d = Tensor.dims_arr t in
  let h = d.(2) and w = d.(3) in
  let oh = ((h + pt + pb - kh) / sh) + 1 and ow = ((w + pl + pr - kw) / sw) + 1 in
  let taps ix =
    List.concat
      (List.init kh (fun ky ->
           List.filter_map
             (fun kx ->
               let iy = (ix.(2) * sh) - pt + ky and jx = (ix.(3) * sw) - pl + kx in
               if iy >= 0 && iy < h && jx >= 0 && jx < w then
                 Some (Tensor.get_f t [| ix.(0); ix.(1); iy; jx |])
               else None)
             (List.init kw Fun.id)))
  in
  init_like t [ d.(0); d.(1); oh; ow ]
    (fun ix ->
      match taps ix, kind with
      | [], _ -> 0.0
      | vs, `Max -> List.fold_left (fun acc v -> if v > acc then v else acc) neg_infinity vs
      | vs, `Avg -> List.fold_left ( +. ) 0.0 vs /. float_of_int (List.length vs))
    (fun _ -> assert false)

let global_avg_pool t =
  let d = Tensor.dims_arr t in
  let spatial = Array.sub d 2 (Array.length d - 2) in
  let count = Array.fold_left ( * ) 1 spatial in
  init_like t
    (d.(0) :: d.(1) :: List.map (fun _ -> 1) (Array.to_list spatial))
    (fun ix ->
      let sum = ref 0.0 in
      for flat = 0 to count - 1 do
        let sx = Tensor.unravel spatial flat in
        sum := !sum +. Tensor.get_f t (Array.append [| ix.(0); ix.(1) |] sx)
      done;
      !sum /. float_of_int count)
    (fun _ -> assert false)

(* The memory plan a full placement reaches at [env], with the artifact's
   strategy, element size and overrides: the re-plan an evaluated plan
   ({!Sod2.Pipeline.instantiated_plan}) is measured against. *)
let replanned (c : Sod2.Pipeline.compiled) env =
  let g = c.Sod2.Pipeline.graph in
  Sod2.Mem_plan.plan ~strategy:c.Sod2.Pipeline.mem_symbolic.Sod2.Mem_plan.sym_strategy
    ~elem:(Tensor.bytes_per_elem c.Sod2.Pipeline.fdtype)
    ~elem_of:(Sod2.Pipeline.elem_overrides g) g c.Sod2.Pipeline.rdp
    c.Sod2.Pipeline.fusion_plan ~order:c.Sod2.Pipeline.exec.Sod2.Exec_plan.order ~env
