(* Shape/movement ops.  Outputs preserve the input's dtype: a float input
   of either precision maps to the same precision, integers stay
   integers.  Transpose, slice, concat and split sit on the serving path
   (a Conformer request runs dozens of them), so they copy by stride
   through {!Tensor.strided} and {!Tensor.blit_strided}; the rarer ops
   below them still go through the generic per-element getters. *)

(* [init_fd dt dims f] is [Tensor.init_f] with an explicit float dtype. *)
let init_fd dt dims f =
  let od = Array.of_list dims in
  let n = List.fold_left ( * ) 1 dims in
  Tensor.of_floats dt dims (Array.init n (fun flat -> f (Tensor.unravel od flat)))

let init_like t dims f = init_fd (Tensor.dtype t) dims f

let transpose t perm =
  let d = Tensor.dims_arr t in
  let r = Array.length d in
  if List.length perm <> r || List.sort compare perm <> List.init r Fun.id then
    invalid_arg "Transform.transpose: perm must be a permutation of axes";
  let st = Tensor.strides t in
  Tensor.strided t ~off:0
    ~strides:(Array.of_list (List.map (fun p -> st.(p)) perm))
    (List.map (fun p -> d.(p)) perm)

let normalize_slice_bound dim v ~is_end ~step =
  let v = if v < 0 then v + dim else v in
  if step > 0 then max 0 (min v dim)
  else if is_end then max (-1) (min v (dim - 1))
  else max 0 (min v (dim - 1))

let slice_window d ~starts ~ends ~axes ~steps =
  let r = Array.length d in
  let start = Array.make r 0 and step = Array.make r 1 and dims = Array.copy d in
  List.iteri
    (fun i axis ->
      let axis = if axis < 0 then axis + r else axis in
      let st = List.nth steps i in
      if st = 0 then invalid_arg "Transform.slice: step 0";
      let s = normalize_slice_bound d.(axis) (List.nth starts i) ~is_end:false ~step:st in
      let e = normalize_slice_bound d.(axis) (List.nth ends i) ~is_end:true ~step:st in
      start.(axis) <- s;
      step.(axis) <- st;
      dims.(axis) <- max 0 (if st > 0 then (e - s + st - 1) / st else (s - e - st - 1) / -st))
    axes;
  let strides = Tensor.contiguous_strides d in
  let off = ref 0 in
  Array.iteri (fun i s -> off := !off + (s * strides.(i))) start;
  let steps = Array.mapi (fun i s -> s * strides.(i)) step in
  (* the farthest reads down and up; a negative step over an empty axis
     still counts one element *)
  let reach sign =
    Array.fold_left ( + ) !off
      (Array.mapi (fun i e -> if sign * steps.(i) > 0 then (e - 1) * steps.(i) else 0) dims)
  in
  if Array.for_all (fun e -> e > 0) dims && (reach (-1) < 0 || reach 1 >= Array.fold_left ( * ) 1 d)
  then invalid_arg "Transform.slice: the window reads outside the input";
  !off, steps, dims

let slice t ~starts ~ends ~axes ?steps () =
  let steps = match steps with Some s -> s | None -> List.map (fun _ -> 1) axes in
  let off, strides, dims = slice_window (Tensor.dims_arr t) ~starts ~ends ~axes ~steps in
  Tensor.strided t ~off ~strides (Array.to_list dims)

(* The normalized axis and the result dims of concatenating operands of
   [dims] along [axis]: they must agree off the axis, since the copies
   would not notice. *)
let concat_dims dims ~axis =
  match dims with
  | [] -> invalid_arg "Transform.concat: empty list"
  | first :: _ ->
    let r = List.length first in
    let axis = if axis < 0 then axis + r else axis in
    let off_axis d = List.filteri (fun i _ -> i <> axis) d in
    if axis < 0 || axis >= r
       || List.exists (fun d -> List.length d <> r || off_axis d <> off_axis first) dims
    then
      Sod2_error.failf Sod2_error.Shape_mismatch
        "Transform.concat: operand dims differ off axis %d" axis;
    let total = List.fold_left (fun n d -> n + List.nth d axis) 0 dims in
    axis, List.mapi (fun i e -> if i = axis then total else e) first

let concat ts ~axis =
  let axis, out_dims = concat_dims (List.map Tensor.dims ts) ~axis in
  let out = Tensor.empty (Tensor.dtype (List.hd ts)) out_dims in
  let ost = Tensor.strides out in
  let offset = ref 0 in
  List.iter
    (fun t ->
      Tensor.blit_strided ~src:t ~soff:0 ~sstr:(Tensor.strides t) ~dst:out
        ~doff:(!offset * ost.(axis)) ~dstr:ost (Tensor.dims_arr t);
      offset := !offset + (Tensor.dims_arr t).(axis))
    ts;
  out

let split t ~axis ~sizes =
  let r = Tensor.rank t in
  let axis = if axis < 0 then axis + r else axis in
  let starts = ref 0 in
  List.map
    (fun size ->
      let s = !starts in
      starts := s + size;
      slice t ~starts:[ s ] ~ends:[ s + size ] ~axes:[ axis ] ())
    sizes

let gather t ~indices ~axis =
  let d = Tensor.dims_arr t in
  let r = Array.length d in
  let axis = if axis < 0 then axis + r else axis in
  let idx_dims = Tensor.dims indices in
  let out_dims =
    List.concat
      [ List.filteri (fun i _ -> i < axis) (Tensor.dims t);
        idx_dims;
        List.filteri (fun i _ -> i > axis) (Tensor.dims t)
      ]
  in
  let ir = List.length idx_dims in
  let src_ix out_ix =
    let idx_ix = Array.sub out_ix axis ir in
    let pos = Tensor.get_i indices idx_ix in
    let pos = if pos < 0 then pos + d.(axis) else pos in
    Array.init r (fun i ->
        if i < axis then out_ix.(i)
        else if i = axis then pos
        else out_ix.(i + ir - 1))
  in
  if Tensor.is_float_dtype (Tensor.dtype t) then
    init_like t out_dims (fun ix -> Tensor.get_f t (src_ix ix))
  else begin
    let out = Tensor.zeros (Tensor.dtype t) out_dims in
    let od = Array.of_list out_dims in
    for flat = 0 to Tensor.numel out - 1 do
      let ix = Tensor.unravel od flat in
      Tensor.set_i out ix (Tensor.get_i t (src_ix ix))
    done;
    out
  end

let pad t ~before ~after ~value =
  let d = Tensor.dims_arr t in
  let r = Array.length d in
  if List.length before <> r || List.length after <> r then
    invalid_arg "Transform.pad: pads must match rank";
  let bef = Array.of_list before in
  let out_dims = List.mapi (fun i v -> v + List.nth before i + List.nth after i) (Tensor.dims t) in
  init_like t out_dims (fun ix ->
      let src = Array.mapi (fun i v -> v - bef.(i)) ix in
      let inside = ref true in
      Array.iteri (fun i v -> if v < 0 || v >= d.(i) then inside := false) src;
      if !inside then Tensor.get_f t src else value)

let tile t ~repeats =
  let d = Tensor.dims_arr t in
  let r = Array.length d in
  if List.length repeats <> r then invalid_arg "Transform.tile: repeats must match rank";
  let out_dims = List.mapi (fun i v -> v * List.nth repeats i) (Tensor.dims t) in
  init_like t out_dims (fun ix ->
      Tensor.get_f t (Array.mapi (fun i v -> v mod d.(i)) ix))

let where cond a b =
  let dims = Tensor.broadcast_dims (Tensor.dims_arr cond)
      (Tensor.broadcast_dims (Tensor.dims_arr a) (Tensor.dims_arr b))
  in
  let dl = Array.to_list dims in
  let odt =
    if Tensor.dtype a = Tensor.F64 || Tensor.dtype b = Tensor.F64 then Tensor.F64
    else Tensor.F32
  in
  let cond = Tensor.broadcast_to cond dl in
  let a = Tensor.broadcast_to a dl in
  let b = Tensor.broadcast_to b dl in
  let mask = Tensor.data_i cond in
  let da = Tensor.data_f a and db = Tensor.data_f b in
  Tensor.of_floats odt dl
    (Array.init (Array.length da) (fun i -> if mask.(i) <> 0 then da.(i) else db.(i)))

let one_hot t ~depth =
  let out_dims = Tensor.dims t @ [ depth ] in
  let src = Tensor.data_i t in
  let sd = Tensor.dims_arr t in
  Tensor.init_f out_dims (fun ix ->
      let r = Array.length ix in
      let base = Array.sub ix 0 (r - 1) in
      let v = src.(if Array.length sd = 0 then 0 else Tensor.ravel sd base) in
      if v = ix.(r - 1) then 1.0 else 0.0)

let range ~start ~limit ~delta =
  if delta = 0 then invalid_arg "Transform.range: delta 0";
  let count = max 0 ((limit - start + delta + (if delta > 0 then -1 else 1)) / delta) in
  Tensor.create_i [ count ] (Array.init count (fun i -> start + (i * delta)))

let depth_to_space t ~block =
  let d = Tensor.dims_arr t in
  let c' = d.(1) / (block * block) in
  let out_dims = [ d.(0); c'; d.(2) * block; d.(3) * block ] in
  init_like t out_dims (fun ix ->
      let oy = ix.(2) and ox = ix.(3) in
      let by = oy mod block and bx = ox mod block in
      let src_c = (((by * block) + bx) * c') + ix.(1) in
      Tensor.get_f t [| ix.(0); src_c; oy / block; ox / block |])

let space_to_depth t ~block =
  let d = Tensor.dims_arr t in
  let c = d.(1) in
  let out_dims = [ d.(0); c * block * block; d.(2) / block; d.(3) / block ] in
  init_like t out_dims (fun ix ->
      let oc = ix.(1) in
      let src_c = oc mod c in
      let rem = oc / c in
      let by = rem / block and bx = rem mod block in
      Tensor.get_f t [| ix.(0); src_c; (ix.(2) * block) + by; (ix.(3) * block) + bx |])
