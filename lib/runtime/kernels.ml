(* Scalar semantics live in [Op_semantics], shared with the block
   evaluator that fused groups and the destination kernels run, so every
   path computes the same bits per element. *)
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

let resolve_reshape_dims in_dims target =
  let total = List.fold_left ( * ) 1 in_dims in
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
      target
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

let view_dims (op : Op.t) d rest =
  match op, rest with
  | Op.Reshape, [ target ] -> resolve_reshape_dims d (Tensor.to_int_list target)
  | Op.Flatten { axis }, [] ->
    let axis = if axis < 0 then axis + List.length d else axis in
    let pre = List.filteri (fun i _ -> i < axis) d |> List.fold_left ( * ) 1 in
    [ pre; List.fold_left ( * ) 1 d / max 1 pre ]
  | Op.Squeeze axes, [] ->
    let r = List.length d in
    let axes = List.map (fun a -> if a < 0 then a + r else a) axes in
    List.filteri (fun i _ -> not (List.mem i axes)) d
  | Op.Unsqueeze axes, [] ->
    let r = List.length d + List.length axes in
    let axes = List.map (fun a -> if a < 0 then a + r else a) axes in
    let rec weave i src =
      if i >= r then []
      else if List.mem i axes then 1 :: weave (i + 1) src
      else
        match src with
        | d :: rest -> d :: weave (i + 1) rest
        | [] -> 1 :: weave (i + 1) []
    in
    weave 0 d
  | _ -> arg_err op (Printf.sprintf "arity %d not supported" (1 + List.length rest))

module OS = Op_semantics

let view_dims_arr (v : Tensor.view) = Array.of_list v.Tensor.vdims

(* The element count of axes [lo, hi) of [d]. *)
let span d lo hi = Array.fold_left ( * ) 1 (Array.sub d lo (hi - lo))

(* Run [code] as a one-stage block program over [n] output elements:
   leaves [0, k) are the operand views [vs], leaf [k] the destination. *)
let run_program ~par ~n ~regs32 ~regs64 code (vs : Tensor.view array) ~c ~co =
  let k = Array.length vs in
  let bufs = Array.make (k + 1) c and offs = Array.make (k + 1) co in
  Array.iteri
    (fun i (v : Tensor.view) ->
      bufs.(i) <- v.Tensor.vbuf;
      offs.(i) <- v.Tensor.voff)
    vs;
  OS.run ~par { OS.code; n; regs32; regs64 } bufs offs

(* An elementwise operator over operands broadcast into [od]: operands
   of that shape are read in place, the others gathered by stride walk
   into a register of their kind, and [last] — given the operand
   locations and the destination — is the operator's instruction.  The
   store into [c] is the single rounding point, as in [Tensor.map2]. *)
let elementwise ~par (vs : Tensor.view array) od last ~c ~co =
  let r32 = ref 0 and r64 = ref 0 and pre = ref [] in
  let locs =
    Array.mapi
      (fun i (v : Tensor.view) ->
        match OS.broadcast_map ~od ~fd:(view_dims_arr v) with
        | None -> OS.Leaf i
        | Some m ->
          let r =
            match v.Tensor.vbuf with
            | Tensor.FB32 _ ->
              incr r32;
              OS.R32 (!r32 - 1)
            | Tensor.FB64 _ ->
              incr r64;
              OS.R64 (!r64 - 1)
          in
          pre := (if Tensor.view_numel v = 1 then OS.Splat (i, r) else OS.Gather (i, m, r)) :: !pre;
          r)
      vs
  in
  let code = Array.of_list (List.rev (last locs (OS.Leaf (Array.length vs)) :: !pre)) in
  run_program ~par ~n:(Array.fold_left ( * ) 1 od) ~regs32:!r32 ~regs64:!r64 code vs ~c
    ~co

(* BatchNorm's parameters fit [x] (rank ≥ 2, channels on axis 1) when
   each holds one value per channel or one for all. *)
let batch_norm_fits (x : Tensor.view) ps =
  match x.Tensor.vdims with
  | _ :: ch :: _ ->
    List.for_all (fun v -> Tensor.view_numel v = 1 || Tensor.view_numel v = ch) ps
  | _ -> false

(* BatchNorm over [x] into [c] at [co]; the shapes must fit. *)
let batch_norm_into ~par ~eps (x : Tensor.view) ps ~c ~co =
  let ps = Array.of_list ps in
  let instr =
    OS.norm ~x:(OS.Leaf 0) ~dst:(OS.Leaf 5) ~eps ~dims:(view_dims_arr x)
      ~xdt:(Tensor.view_dtype x) ~params:[| 1; 2; 3; 4 |]
      ~pdts:(Array.map Tensor.view_dtype ps) ~pnums:(Array.map Tensor.view_numel ps)
  in
  run_program ~par ~n:(Tensor.view_numel x) ~regs32:0 ~regs64:0 [| instr |]
    (Array.append [| x |] ps) ~c ~co

(* The float dtype an operator over [vs] stores its result in: the widest
   operand kind, as the boxed kernels promote. *)
let promoted (vs : Tensor.view list) =
  List.fold_left (fun acc v -> Tensor.promote_f acc (Tensor.view_dtype v)) Tensor.F32 vs

(* The operands [run_into] takes boxed: the integer parameters after a
   Slice's, Gather's or Resize's data. *)
let split_operands (op : Op.t) xs =
  match op, xs with
  | (Op.Slice | Op.Gather _ | Op.Resize _), x :: ints -> [ x ], ints
  | _ -> xs, []

(* ------------------------------------------------------------------ *)
(* Destination-passing execution: every float kernel                   *)

let run_into ?backend ?int8 ?(ints = []) (op : Op.t) (inputs : Tensor.view list)
    ~(dest : int -> Tensor.dtype -> int list -> Tensor.fbuf * int) : int list list option =
  let par, blocked =
    match backend with
    | Some be -> Backend.par_of be, Backend.blocked be
    | None -> Blocked.sequential, false
  in
  (* The one call to [dest] of a single-output op: every shape check has
     passed by now. *)
  let write ?(dt = promoted inputs) dims run =
    let c, co = dest 0 dt dims in
    run ~c ~co;
    Some [ dims ]
  in
  let elementwise vs od last =
    write (Array.to_list od) (elementwise ~par vs od last)
  in
  (* [n] elements of [x] read through [map] (in flat order when [None])
     into [c] at [co]: one Gather or Copy instruction. *)
  let shuffle x map ~n ~c ~co =
    let instr =
      match map with
      | None -> OS.Copy (OS.Leaf 0, OS.Leaf 1)
      | Some m -> OS.Gather (0, m, OS.Leaf 1)
    in
    run_program ~par ~n ~regs32:0 ~regs64:0 [| instr |] [| x |] ~c ~co
  in
  (* a pool's output dims, which a window larger than its padded input
     would make negative *)
  let pooled od =
    if List.exists (fun d -> d < 0) od then
      invalid_arg (Op.name op ^ ": the window exceeds the padded input");
    od
  in
  (* GroupNorm is BatchNorm's chain per sample, with each channel's mean
     and variance those of its group *)
  let group_norm ~groups ~eps (x : Tensor.view) gamma beta =
    let mean, var = Reduction.group_stats ~groups x in
    match x.Tensor.vdims with
    | n :: ch :: sp when batch_norm_fits x [ gamma; beta ] ->
      let size = Tensor.view_numel x / max 1 n in
      write x.Tensor.vdims (fun ~c ~co ->
          for i = 0 to n - 1 do
            let stat buf = Tensor.sub_view ~buf ~off:(i * ch) ~dims:[ ch ] in
            batch_norm_into ~par ~eps
              { x with Tensor.voff = x.Tensor.voff + (i * size); vdims = 1 :: ch :: sp }
              [ gamma; beta; stat mean; stat var ] ~c ~co:(co + (i * size))
          done)
    | _ -> arg_err op "GroupNorm needs per-channel or scalar parameters"
  in
  (* Nearest resize of the axes past the first two (NCHW, NCW) to
     [out]: index [i] of an axis reads source index [i · e / o], [e] and
     [o] its source and result extents (ONNX's [min (e − 1)] clamp never
     binds for [i < o], and the first two axes keep their extents).
     Each row along the last axis is one typed loop. *)
  let resize (x : Tensor.view) out =
    let d = view_dims_arr x in
    let r = Array.length d in
    if List.length out <> r - 2 then invalid_arg "Resize: spatial rank mismatch";
    let od = Array.of_list (List.filteri (fun i _ -> i < 2) x.Tensor.vdims @ out) in
    let ist = Tensor.contiguous_strides d in
    let near a i = ist.(a) * (i * d.(a) / od.(a)) in
    write (Array.to_list od) (fun ~c ~co ->
        let o = ref co and w = od.(r - 1) in
        let rec rows a so =
          if a < r - 1 then for i = 0 to od.(a) - 1 do rows (a + 1) (so + near a i) done
          else begin
            (match x.Tensor.vbuf, c with
             | Tensor.FB32 s, Tensor.FB32 t -> for i = 0 to w - 1 do t.{!o + i} <- s.{so + near a i} done
             | Tensor.FB64 s, Tensor.FB64 t -> for i = 0 to w - 1 do t.{!o + i} <- s.{so + near a i} done
             | _ -> invalid_arg "Resize: a destination of another kind");
            o := !o + w
          end
        in
        rows 0 x.Tensor.voff)
  in
  let int8 =
    match backend, int8 with
    | Some be, Some qw -> Some (qw, fun () -> Backend.record be "quant-kernel")
    | _ -> None
  in
  match Multi_version.heavy_kernel ?int8 ~par ~blocked op inputs with
  | Some (dims, dt, kernel) -> write ~dt dims kernel
  | None -> (
    match op, inputs with
    | Op.Unary u, [ x ] -> elementwise [| x |] (view_dims_arr x) (fun l d -> OS.Unary (u, l.(0), d))
    | Op.Clip (lo, hi), [ x ] ->
      elementwise [| x |] (view_dims_arr x) (fun l d -> OS.Clip (lo, hi, l.(0), d))
    | Op.Binary b, [ x; y ] ->
      elementwise [| x; y |]
        (Tensor.broadcast_dims (view_dims_arr x) (view_dims_arr y))
        (fun l d -> OS.Binary (b, l.(0), l.(1), d))
    | Op.BatchNorm { eps }, [ x; scale; bias; mean; var ] ->
      let ps = [ scale; bias; mean; var ] in
      if not (batch_norm_fits x ps) then
        arg_err op "BatchNorm needs rank >= 2 and per-channel or scalar parameters";
      write x.Tensor.vdims (batch_norm_into ~par ~eps x ps)
    | Op.LayerNorm { eps }, [ x; gamma; beta ] ->
      write x.Tensor.vdims (Reduction.layer_norm_into ~eps x ~gamma ~beta)
    | Op.Softmax { axis }, [ x ] -> write x.Tensor.vdims (Reduction.softmax_into ~axis x)
    | Op.Split { axis; sizes }, [ x ] ->
      let d = view_dims_arr x in
      let r = Array.length d in
      let axis = if axis < 0 then axis + r else axis in
      if axis < 0 || axis >= r || List.exists (fun s -> s < 0) sizes
         || List.fold_left ( + ) 0 sizes <> d.(axis)
      then arg_err op "Split needs an axis in range and sizes that sum to its extent";
      (* piece [i] is, in each of the [outer] rows of [x], the run of
         [size·inner] elements [start·inner] into the row *)
      let inner = span d (axis + 1) r and outer = span d 0 axis in
      let start = ref 0 in
      Some
        (List.mapi
           (fun i size ->
             let dims = Array.to_list (Array.mapi (fun a e -> if a = axis then size else e) d) in
             let c, co = dest i (promoted inputs) dims in
             shuffle
               { x with Tensor.voff = x.Tensor.voff + (!start * inner) }
               (OS.stride_map ~od:[| outer; size * inner |] ~ss:[| d.(axis) * inner; 1 |])
               ~n:(outer * size * inner) ~c ~co;
             start := !start + size;
             dims)
           sizes)
    | Op.Transpose perm, [ x ] ->
      if List.sort compare perm <> List.init (List.length x.Tensor.vdims) Fun.id then
        invalid_arg "Transform.transpose: perm must be a permutation of axes";
      let ind = view_dims_arr x in
      let od = Array.of_list (List.map (fun p -> ind.(p)) perm) in
      write (Array.to_list od)
        (shuffle x (OS.transpose_map ~od ~ind ~perm) ~n:(Tensor.view_numel x))
    | ( (Op.MaxPool { kernel; pool_stride; pool_pads } | Op.AveragePool { kernel; pool_stride; pool_pads }),
        [ x ] ) ->
      let kind = match op with Op.MaxPool _ -> `Max | _ -> `Avg in
      write
        (pooled (Linalg.pool2d_out_dims ~kernel ~stride:pool_stride ~pad:pool_pads x.Tensor.vdims))
        (fun ~c ~co ->
          ignore (Linalg.pool2d_into ~kind ~kernel ~stride:pool_stride ~pad:pool_pads x ~c ~co))
    | Op.GlobalAveragePool, [ x ] ->
      write (Linalg.global_pool_out_dims x.Tensor.vdims) (fun ~c ~co ->
          ignore (Linalg.global_avg_pool_into x ~c ~co))
    | Op.GroupNorm { num_groups; eps }, [ x; gamma; beta ] ->
      group_norm ~groups:num_groups ~eps x gamma beta
    | Op.InstanceNorm { eps }, [ x; gamma; beta ] ->
      (* instance norm = group norm with one group per channel *)
      group_norm ~groups:(match x.Tensor.vdims with _ :: ch :: _ -> ch | _ -> 0) ~eps x gamma beta
    | Op.Cast dt, [ x ] when Tensor.is_float_dtype dt ->
      write ~dt x.Tensor.vdims (shuffle x None ~n:(Tensor.view_numel x))
    | Op.Concat { axis }, _ :: _ ->
      let axis, dims = Transform.concat_dims (List.map (fun v -> v.Tensor.vdims) inputs) ~axis in
      let d = Array.of_list dims in
      let inner = span d (axis + 1) (Array.length d) in
      (* operand [v] fills, in each of the result's rows, its
         [extent·inner] elements after the earlier operands' *)
      write dims (fun ~c ~co ->
          ignore
            (List.fold_left
               (fun start (v : Tensor.view) ->
                 let len = List.nth v.Tensor.vdims axis * inner in
                 for i = 0 to span d 0 axis - 1 do
                   shuffle { v with Tensor.voff = v.Tensor.voff + (i * len) } None ~n:len ~c
                     ~co:(co + (i * d.(axis) * inner) + start)
                 done;
                 start + len)
               0 inputs))
    | Op.Slice, [ x ] -> (
      match List.map Tensor.to_int_list ints with
      | [ starts; ends; axes; steps ] ->
        let off, ss, od = Transform.slice_window (view_dims_arr x) ~starts ~ends ~axes ~steps in
        write (Array.to_list od)
          (shuffle { x with Tensor.voff = x.Tensor.voff + off } (OS.stride_map ~od ~ss)
             ~n:(Array.fold_left ( * ) 1 od))
      | _ -> None)
    | Op.Gather { axis }, [ x ] -> (
      match ints with
      | [ indices ] ->
        let d = view_dims_arr x in
        let r = Array.length d in
        let axis = if axis < 0 then axis + r else axis in
        let e = d.(axis) and inner = span d (axis + 1) r in
        let ids = Tensor.data_i (Tensor.cast indices Tensor.I64) in
        Array.iter
          (fun p ->
            if p < -e || p >= e then
              Sod2_error.failf Sod2_error.Shape_mismatch "Gather: index %d outside an axis of %d" p e)
          ids;
        (* index [j] takes, in each of [x]'s rows, the run of [inner]
           elements at its position on the axis *)
        write
          (Array.to_list (Array.sub d 0 axis) @ Tensor.dims indices
          @ Array.to_list (Array.sub d (axis + 1) (r - axis - 1)))
          (fun ~c ~co ->
            for i = 0 to span d 0 axis - 1 do
              Array.iteri
                (fun j p ->
                  let q = (i * e) + if p < 0 then p + e else p in
                  shuffle { x with Tensor.voff = x.Tensor.voff + (q * inner) } None ~n:inner ~c
                    ~co:(co + (((i * Array.length ids) + j) * inner)))
                ids
            done)
      | _ -> None)
    | Op.Resize Op.Nearest, [ x ] -> (
      match ints with [ sizes ] -> resize x (Tensor.to_int_list sizes) | _ -> None)
    | Op.Upsample { scales }, [ x ] ->
      resize x (List.map2 ( * ) (List.filteri (fun i _ -> i >= 2) x.Tensor.vdims) scales)
    | _ -> None)

(* ------------------------------------------------------------------ *)
(* Execution over boxed tensors                                        *)

let is_int t = not (Tensor.is_float_dtype (Tensor.dtype t))

let rec run ?backend (op : Op.t) (inputs : Tensor.t list) : Tensor.t list =
  (* The destination kernels over a fresh zeroed buffer per output.
     Integer operands promote to F32 for float semantics; float operands
     keep their own precision (an F64 input must not silently narrow). *)
  let fresh () =
    let outs = ref [] in
    let dest _ dt dims =
      let t = Tensor.zeros dt dims in
      outs := t :: !outs;
      Tensor.storage_f t, 0
    in
    let ensure_f t = if is_int t then Tensor.cast t Tensor.F32 else t in
    let data, ints = split_operands op inputs in
    Option.map
      (fun _ -> List.rev !outs)
      (run_into ?backend ~ints op (List.map (fun t -> Tensor.view_f (ensure_f t)) data) ~dest)
  in
  match op, inputs with
  (* integer Neg, Abs, Not and Identity, integer-by-integer Binary and
     integer shuffles keep integer values *)
  | Op.Unary Op.Identity, [ x ] when is_int x -> [ x ]
  | Op.Unary Op.Neg, [ x ] when is_int x -> [ Tensor.map_i (fun v -> -v) x ]
  | Op.Unary Op.Abs, [ x ] when is_int x -> [ Tensor.map_i abs x ]
  | Op.Unary Op.Not, [ x ] when is_int x -> [ Tensor.map_i (fun v -> if v = 0 then 1 else 0) x ]
  | Op.Binary b, [ x; y ] when is_int x && is_int y -> [ Tensor.map2i (int_binary_fn b) x y ]
  | Op.Transpose perm, [ x ] when is_int x -> [ Transform.transpose x perm ]
  | Op.Split { axis; sizes }, [ x ] when is_int x -> Transform.split x ~axis ~sizes
  | Op.Cast dt, [ x ] when is_int x || not (Tensor.is_float_dtype dt) -> [ Tensor.cast x dt ]
  | Op.Where, [ c; a; b ] -> [ Transform.where (Tensor.cast c Tensor.I64) a b ]
  | Op.LogSoftmax { axis }, [ x ] -> [ Reduction.log_softmax x ~axis ]
  | Op.Reduce { rkind; axes; keepdims }, [ x ] ->
    [ Reduction.reduce (reduce_kind rkind) x ~axes ~keepdims ]
  | Op.ArgMax { axis; keepdims }, [ x ] -> [ Reduction.argmax x ~axis ~keepdims ]
  | Op.ArgMin { axis; keepdims }, [ x ] -> [ Reduction.argmin x ~axis ~keepdims ]
  | Op.CumSum { axis }, [ x ] -> [ Reduction.cumsum x ~axis ]
  | (Op.Reshape | Op.Flatten _ | Op.Squeeze _ | Op.Unsqueeze _), x :: rest ->
    [ Tensor.reshape x (view_dims op (Tensor.dims x) rest) ]
  | Op.Concat { axis }, xs when List.exists is_int xs -> [ Transform.concat xs ~axis ]
  | Op.Slice, [ x; starts; ends; axes; steps ] when is_int x ->
    let l = Tensor.to_int_list in
    [ Transform.slice x ~starts:(l starts) ~ends:(l ends) ~axes:(l axes) ~steps:(l steps) () ]
  | Op.Gather { axis }, [ x; indices ] when is_int x ->
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
  | _, _ -> (
    match fresh () with
    | Some outs -> outs
    | None -> (
      match op, inputs with
      | Op.Gemm ({ beta; _ } as g), [ a; b; c ] ->
        (* [C] is wider than [A·B]: [A·B] rounds to its own kind first *)
        let ab = List.hd (run ?backend (Op.Gemm g) [ a; b ]) in
        [ Tensor.map2 (fun x y -> x +. (beta *. y)) ab (Tensor.broadcast_to c (Tensor.dims ab)) ]
      | _ -> arg_err op (Printf.sprintf "arity %d not supported" (List.length inputs))))
