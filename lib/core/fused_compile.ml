(* Fused-group kernel compilation (§4.2 fused code generation).

   [plan] runs at [Pipeline.compile] time and decides, per fusion group,
   whether the group can execute as ONE kernel instead of op-by-op through
   the interpreter.  The compile-time product is a [template]: the group's
   member nodes, its external element inputs in a fixed slot order, and the
   optional heavy anchor (MatMul/Gemm/Conv/Conv1d first member).

   [specialize] runs the first time a group executes under concrete input
   dims (RDP guarantees those dims satisfy the symbolic facts fusion
   legality was proven against; each still-ambiguous broadcast collapses to
   one concrete variant here — the runtime side of bounded multi-version
   code generation).  It compiles the members into block programs
   ({!Op_semantics.stage}), one instruction per member:

   - each register stores in the dtype the op-by-op reference would have
     stored that member in, so every store rounds exactly where the
     reference rounds — pure pointwise, mixed-precision and anchored groups
     alike are bit-for-bit equal to unfused execution;
   - view ops (reshape/squeeze/…) and same-dtype casts are free: they
     preserve flat order.  An input read at the consumer's own flat index
     is read in place; a broadcast or transposed one is gathered through a
     precomputed index map (table or odometer).  A member whose value is
     read through a map is first stored by a stage of its own, so maps
     never compose and nothing is recomputed;
   - a heavy anchor runs first, through {!Multi_version.heavy_kernel} (the
     kernel op-by-op execution runs), straight into the destination when
     the final stage reads it only at its own flat index and the
     destination has the anchor's dtype (the program then runs over it in
     place), else into per-call scratch.

   Specialized kernels are cached by the runtime backend per
   (group × concrete shape tuple); the scratch they run on is pooled. *)

type template = {
  t_gid : int;
  t_members : Graph.node list;  (** in topological order *)
  t_anchor : Graph.node option;  (** heavy first member, when present *)
  t_out : Graph.tensor_id;  (** the terminal (only materialized) output *)
  t_slots : Graph.tensor_id array;  (** external element inputs, slot order *)
  t_versions : int;  (** broadcast versions bounded at fusion time *)
}

type kernel = {
  k_out : Graph.tensor_id;
  k_dims : (Graph.tensor_id * int list) list;
      (** concrete output dims of every member, terminal included *)
  k_dtype : Tensor.dtype;  (** the terminal output's dtype *)
  k_run_into :
    par:Blocked.par -> Tensor.view array -> c:Tensor.fbuf -> co:int -> unit;
      (** args arrive as offset-carrying views in slot order; the terminal
          result is written into [c] at element offset [co] *)
}

(* ------------------------------------------------------------------ *)
(* Compile-time planning                                               *)

let is_heavy = function
  | Op.MatMul | Op.Gemm _ | Op.Conv _ | Op.Conv1d _ -> true
  | _ -> false

(* Operators the block compiler can lower.  Reshape qualifies only
   with a constant target: a data-dependent target would need the value
   lattice at run time, and the op-by-op path handles that rarity. *)
let elementwise_ok g (nd : Graph.node) =
  match nd.Graph.op with
  | Op.Unary _ | Op.Binary _ | Op.Clip _ | Op.Where | Op.Transpose _ | Op.Flatten _
  | Op.Squeeze _ | Op.Unsqueeze _ | Op.BatchNorm _ -> true
  | Op.Cast (Tensor.F32 | Tensor.F64) -> true
  | Op.Reshape -> (
    match nd.Graph.inputs with
    | [ _; target ] -> Graph.const_value g target <> None
    | _ -> false)
  | _ -> false

(* Inputs that carry element data (as opposed to shape operands). *)
let element_inputs (nd : Graph.node) =
  match nd.Graph.op, nd.Graph.inputs with
  | Op.Reshape, [ x; _target ] -> [ x ]
  | _, ins -> ins

let template_of g (grp : Fusion.group) =
  match grp.Fusion.members with
  | [] | [ _ ] -> None
  | mids ->
    let members = List.map (Graph.node g) mids in
    let first = List.hd members in
    let anchor = if is_heavy first.Graph.op then Some first else None in
    let body = match anchor with Some _ -> List.tl members | None -> members in
    let single_out nd = List.length nd.Graph.outputs = 1 in
    if List.for_all single_out members && List.for_all (elementwise_ok g) body then begin
      let produced = Hashtbl.create 8 in
      List.iter
        (fun nd -> List.iter (fun o -> Hashtbl.replace produced o ()) nd.Graph.outputs)
        members;
      let seen = Hashtbl.create 8 in
      let slots = ref [] in
      List.iter
        (fun nd ->
          List.iter
            (fun tid ->
              if (not (Hashtbl.mem produced tid)) && not (Hashtbl.mem seen tid) then begin
                Hashtbl.add seen tid ();
                slots := tid :: !slots
              end)
            (element_inputs nd))
        members;
      let terminal = List.nth members (List.length members - 1) in
      Some
        {
          t_gid = grp.Fusion.gid;
          t_members = members;
          t_anchor = anchor;
          t_out = List.hd terminal.Graph.outputs;
          t_slots = Array.of_list (List.rev !slots);
          t_versions = grp.Fusion.versions;
        }
    end
    else None

(* [quantized] marks nodes the runtime will execute through the int8
   weight-quantized kernels: their groups must keep op-by-op execution —
   the fused float template would compute from the original float weights,
   silently bypassing quantization for exactly the shapes fusion covers. *)
let plan ?(quantized = fun (_ : Graph.node) -> false) g (fp : Fusion.plan) =
  Array.map
    (fun grp ->
      match template_of g grp with
      | Some tpl when List.exists quantized tpl.t_members -> None
      | t -> t)
    fp.Fusion.groups

(* ------------------------------------------------------------------ *)
(* Specialization                                                      *)

exception Spec_fail of string

let fail fmt = Printf.ksprintf (fun s -> raise (Spec_fail s)) fmt

module OS = Op_semantics

let numel_of (d : int array) = Array.fold_left ( * ) 1 d

(* Per-call storage for the values a program reads through maps: the
   anchor result on the two-phase path and materialized intermediates.
   Grow-only, pooled like the register files. *)
type call_scratch = {
  mutable s32 : Tensor.fbuf;
  mutable s64 : Tensor.fbuf;
}

let call_pool =
  Blocked.Pool.create (fun () ->
      { s32 = Tensor.fbuf_create Tensor.F32 0; s64 = Tensor.fbuf_create Tensor.F64 0 })

(* How a member reads one of its element inputs: at the same flat index,
   through a broadcast/transpose map, as a one-element broadcast, or as a
   per-channel BatchNorm parameter.  Every use but the first needs the
   input in storage. *)
type use =
  | Direct
  | Mapped of OS.imap
  | Scalar
  | Param

(* The dtype the op-by-op reference stores each member's output in. *)
let output_dtype (nd : Graph.node) (dt : Graph.tensor_id -> Tensor.dtype) =
  match nd.Graph.op, nd.Graph.inputs with
  | Op.Binary _, [ x; y ] | Op.Where, [ _; x; y ] -> Tensor.promote_f (dt x) (dt y)
  | Op.Cast d, _ -> d
  | Op.BatchNorm _, x :: params ->
    List.fold_left (fun acc p -> Tensor.promote_f acc (dt p)) (dt x) params
  | _, x :: _ -> dt x
  | op, [] -> fail "operator %s has no inputs" (Op.name op)

let specialize g (tpl : template) ~(args : (int list * Tensor.dtype) array) : (kernel, string) result =
  try
    let nslots = Array.length tpl.t_slots in
    if Array.length args <> nslots then fail "argument count %d <> slot count %d" (Array.length args) nslots;
    Array.iteri
      (fun i (_, dt) ->
        if not (Tensor.is_float_dtype dt) then
          fail "slot %d is %s: integer element semantics stay on the reference path"
            i (Tensor.dtype_name dt))
      args;
    let dims_tbl : (Graph.tensor_id, int array) Hashtbl.t = Hashtbl.create 16 in
    let dtype_tbl : (Graph.tensor_id, Tensor.dtype) Hashtbl.t = Hashtbl.create 16 in
    Array.iteri
      (fun i tid ->
        Hashtbl.replace dims_tbl tid (Array.of_list (fst args.(i)));
        Hashtbl.replace dtype_tbl tid (snd args.(i)))
      tpl.t_slots;
    (* Concrete shape inference over the members, mirroring what the
       executor's dry pass computes — Shape_fn is the single source of
       truth for output extents. *)
    let shape_of tid =
      match Hashtbl.find_opt dims_tbl tid with
      | Some d -> Shape.of_ints (Array.to_list d)
      | None -> (
        match Graph.const_value g tid with
        | Some t -> Shape.of_ints (Tensor.dims t)
        | None -> fail "tensor %d has no known dims" tid)
    in
    let value_of tid =
      match Graph.const_value g tid with
      | Some t
        when Tensor.dtype t = Tensor.I64
             && Tensor.numel t <= Value_info.max_tracked_elements ->
        Value_info.of_ints (Tensor.to_int_list t)
      | _ -> Value_info.undef
    in
    List.iter
      (fun nd ->
        let io =
          {
            Shape_fn.in_shapes = Array.of_list (List.map shape_of nd.Graph.inputs);
            in_values = Array.of_list (List.map value_of nd.Graph.inputs);
          }
        in
        let shapes, _ = Shape_fn.forward nd.Graph.op io in
        match Shape.as_ints shapes.(0) with
        | Some d -> Hashtbl.replace dims_tbl (List.hd nd.Graph.outputs) (Array.of_list d)
        | None -> fail "member %s has a non-concrete output shape" nd.Graph.nname)
      tpl.t_members;
    let dims_of tid =
      match Hashtbl.find_opt dims_tbl tid with
      | Some d -> d
      | None -> fail "tensor %d missing from shape table" tid
    in
    let dtype_of tid =
      match Hashtbl.find_opt dtype_tbl tid with
      | Some d -> d
      | None -> fail "tensor %d missing from dtype table" tid
    in
    let out_of (nd : Graph.node) = List.hd nd.Graph.outputs in
    let is_anchor (nd : Graph.node) =
      match tpl.t_anchor with Some a -> a.Graph.nid = nd.Graph.nid | None -> false
    in
    (match tpl.t_anchor with
    | Some anc ->
      let dt i = dtype_of (List.nth anc.Graph.inputs i) in
      let d = Tensor.promote_f (dt 0) (dt 1) in
      (* Gemm's C operand is added after the product is stored: the fused
         anchor keeps the reference's rounding points only when C shares
         the product's dtype. *)
      (match anc.Graph.op, anc.Graph.inputs with
      | Op.Gemm _, [ _; _; c ] when dtype_of c <> d ->
        fail "Gemm C operand is %s, its product %s" (Tensor.dtype_name (dtype_of c))
          (Tensor.dtype_name d)
      | _ -> ());
      Hashtbl.replace dtype_tbl (out_of anc) d
    | None -> ());
    List.iter
      (fun nd ->
        if not (is_anchor nd) then
          Hashtbl.replace dtype_tbl (out_of nd) (output_dtype nd dtype_of))
      tpl.t_members;
    let term_dims = dims_of tpl.t_out and term_dt = dtype_of tpl.t_out in
    let member_dims =
      List.map (fun nd -> (out_of nd, Array.to_list (dims_of (out_of nd)))) tpl.t_members
    in
    let producer = Hashtbl.create 16 in
    List.iter (fun nd -> Hashtbl.replace producer (out_of nd) nd) tpl.t_members;

    (* --- leaves: storage a program reads in place --- *)
    let leaf_of_tid = Hashtbl.create 16 in
    Array.iteri (fun i tid -> Hashtbl.replace leaf_of_tid tid i) tpl.t_slots;
    let nleaves = ref nslots in
    let new_leaf tid =
      let l = !nleaves in
      incr nleaves;
      Hashtbl.replace leaf_of_tid tid l;
      l
    in
    let anchor_leaf =
      Option.map (fun anc -> new_leaf (out_of anc)) tpl.t_anchor
    in
    (* Views and same-dtype casts change no element: a value is its
       source's. *)
    let rec source tid =
      match Hashtbl.find_opt producer tid with
      | Some nd when not (is_anchor nd) -> (
        match nd.Graph.op with
        | Op.Reshape | Op.Flatten _ | Op.Squeeze _ | Op.Unsqueeze _ ->
          source (List.hd (element_inputs nd))
        | Op.Cast d when d = dtype_of (List.hd nd.Graph.inputs) ->
          source (List.hd nd.Graph.inputs)
        | _ -> tid)
      | _ -> tid
    in
    let uses_tbl = Hashtbl.create 16 in
    let uses_of (nd : Graph.node) =
      let od = dims_of (out_of nd) in
      let broadcast tid =
        let fd = dims_of tid in
        if numel_of fd = 1 && numel_of od > 1 then tid, Scalar
        else
          match OS.broadcast_map ~od ~fd with
          | None -> tid, Direct
          | Some m -> tid, Mapped m
      in
      match nd.Graph.op, nd.Graph.inputs with
      | (Op.Binary _ | Op.Where), ins -> List.map broadcast ins
      | Op.Transpose perm, [ x ] -> (
        match OS.transpose_map ~od ~ind:(dims_of x) ~perm with
        | None -> [ x, Direct ]
        | Some m -> [ x, Mapped m ])
      | Op.BatchNorm _, x :: params ->
        if Array.length od < 2 then fail "BatchNorm input rank < 2";
        List.iter
          (fun p ->
            let k = numel_of (dims_of p) in
            if k <> 1 && k <> od.(1) then
              fail "BatchNorm parameter has %d elements for %d channels" k od.(1))
          params;
        (x, Direct) :: List.map (fun p -> p, Param) params
      | _ -> List.map (fun tid -> tid, Direct) (element_inputs nd)
    in
    let uses (nd : Graph.node) =
      match Hashtbl.find_opt uses_tbl nd.Graph.nid with
      | Some u -> u
      | None ->
        let u = uses_of nd in
        Hashtbl.replace uses_tbl nd.Graph.nid u;
        u
    in
    (* A value read other than at the consumer's own flat index must be in
       storage: a member whose value is used that way is computed into a
       scratch buffer by a stage of its own, before the stages reading it. *)
    let materialized = ref [] in
    List.iter
      (fun nd ->
        if not (is_anchor nd) then
          List.iter
            (fun (tid, u) ->
              let src = source tid in
              if u <> Direct && not (Hashtbl.mem leaf_of_tid src) then begin
                ignore (new_leaf src);
                materialized := src :: !materialized
              end)
            (uses nd))
      tpl.t_members;
    let materialized = List.rev !materialized in
    let dest_leaf = !nleaves in
    let nleaves = dest_leaf + 1 in

    (* --- one stage per stored value --- *)
    let anchor_read_mapped = ref false in
    let compile_stage ~target ~target_leaf =
      let regs32 = ref 0 and regs64 = ref 0 in
      let code = ref [] in
      let emit i = code := i :: !code in
      let fresh tid =
        match dtype_of tid with
        | Tensor.F32 ->
          incr regs32;
          OS.R32 (!regs32 - 1)
        | Tensor.F64 ->
          incr regs64;
          OS.R64 (!regs64 - 1)
        | dt -> fail "tensor %d is %s" tid (Tensor.dtype_name dt)
      in
      let memo = Hashtbl.create 8 in
      let leaf src =
        if src = target then None
        else Hashtbl.find_opt leaf_of_tid src
      in
      let stored tid =
        match leaf (source tid) with
        | Some l ->
          if Some l = anchor_leaf then anchor_read_mapped := true;
          l
        | None -> fail "tensor %d is read through a map but not stored" tid
      in
      let rec value tid =
        let src = source tid in
        match leaf src with
        | Some l -> OS.Leaf l
        | None -> (
          match Hashtbl.find_opt memo src with
          | Some loc -> loc
          | None ->
            let nd =
              match Hashtbl.find_opt producer src with
              | Some nd -> nd
              | None -> fail "tensor %d has no producer in the group" src
            in
            let loc = compute nd in
            Hashtbl.replace memo src loc;
            loc)
      and operand (tid, u) =
        match u with
        | Direct -> value tid
        | Mapped m ->
          let d = fresh tid in
          emit (OS.Gather (stored tid, m, d));
          d
        | Scalar ->
          let d = fresh tid in
          emit (OS.Splat (stored tid, d));
          d
        | Param -> OS.Leaf (stored tid)
      and compute (nd : Graph.node) =
        match nd.Graph.op, List.map operand (uses nd) with
        | Op.Transpose _, [ x ] -> x (* its gather is the value *)
        | op, ops ->
          let d = fresh (out_of nd) in
          emit
            (match op, ops with
            | Op.Unary u, [ x ] -> OS.Unary (u, x, d)
            | Op.Binary b, [ x; y ] -> OS.Binary (b, x, y, d)
            | Op.Clip (lo, hi), [ x ] -> OS.Clip (lo, hi, x, d)
            | Op.Cast _, [ x ] -> OS.Copy (x, d)
            | Op.Where, [ c; x; y ] -> OS.Where (c, x, y, d)
            | Op.BatchNorm { eps }, [ x; OS.Leaf sc; OS.Leaf bi; OS.Leaf me; OS.Leaf va ] ->
              let ps = Array.of_list (List.tl nd.Graph.inputs) in
              OS.norm ~x ~dst:d ~eps ~dims:(dims_of (out_of nd))
                ~xdt:(dtype_of (List.hd nd.Graph.inputs)) ~params:[| sc; bi; me; va |]
                ~pdts:(Array.map dtype_of ps)
                ~pnums:(Array.map (fun p -> numel_of (dims_of p)) ps)
            | op, _ -> fail "operator %s is not block-compilable" (Op.name op));
          d
      in
      let result = compute (Hashtbl.find producer target) in
      (* The last instruction stores straight into the stage's storage
         when it produced the result; otherwise copy it there. *)
      let t = OS.Leaf target_leaf in
      let retarget = function
        | OS.Unary (u, x, d) when d = result -> Some (OS.Unary (u, x, t))
        | OS.Binary (b, x, y, d) when d = result -> Some (OS.Binary (b, x, y, t))
        | OS.Clip (lo, hi, x, d) when d = result -> Some (OS.Clip (lo, hi, x, t))
        | OS.Copy (x, d) when d = result -> Some (OS.Copy (x, t))
        | OS.Where (c, x, y, d) when d = result -> Some (OS.Where (c, x, y, t))
        | OS.Gather (l, m, d) when d = result -> Some (OS.Gather (l, m, t))
        | OS.Splat (l, d) when d = result -> Some (OS.Splat (l, t))
        | OS.Norm nm when nm.OS.n_dst = result -> Some (OS.Norm { nm with OS.n_dst = t })
        | _ -> None
      in
      let code =
        match !code with
        | last :: rest -> (
          match retarget last with
          | Some i -> i :: rest
          | None -> OS.Copy (result, t) :: last :: rest)
        | [] -> [ OS.Copy (result, t) ]
      in
      { OS.code = Array.of_list (List.rev code); n = numel_of (dims_of target);
        regs32 = !regs32; regs64 = !regs64 }
    in
    let stages =
      List.map
        (fun tid -> compile_stage ~target:tid ~target_leaf:(Hashtbl.find leaf_of_tid tid))
        materialized
    in
    anchor_read_mapped := false;
    let term_src = source tpl.t_out in
    let final =
      if Hashtbl.mem leaf_of_tid term_src then
        (* The terminal is a view of stored data: one copy. *)
        { OS.code = [| OS.Copy (OS.Leaf (Hashtbl.find leaf_of_tid term_src),
                                OS.Leaf dest_leaf) |];
          n = numel_of term_dims; regs32 = 0; regs64 = 0 }
      else compile_stage ~target:term_src ~target_leaf:dest_leaf
    in
    let stages = stages @ [ final ] in

    (* --- scratch layout: materialized values, then the anchor --- *)
    let size32 = ref 0 and size64 = ref 0 in
    let place tid =
      let n = numel_of (dims_of tid) in
      match dtype_of tid with
      | Tensor.F32 ->
        size32 := !size32 + n;
        Tensor.F32, !size32 - n
      | _ ->
        size64 := !size64 + n;
        Tensor.F64, !size64 - n
    in
    let mat_slots =
      List.map (fun tid -> Hashtbl.find leaf_of_tid tid, place tid) materialized
    in
    let anchor_slot = Option.map (fun anc -> place (out_of anc)) tpl.t_anchor in
    let size32 = !size32 and size64 = !size64 in

    (* --- the anchor: the heavy kernel into its storage --- *)
    let run_anchor =
      match tpl.t_anchor with
      | None -> None
      | Some anc ->
        let slots =
          List.map
            (fun tid ->
              match Hashtbl.find_opt leaf_of_tid tid with
              | Some i when i < nslots -> i
              | _ -> fail "anchor input %d is not an external slot" tid)
            anc.Graph.inputs
        in
        (* specialization refused every anchor [heavy_kernel] declines (a
           Gemm whose C is wider than its product) *)
        Some
          (fun ~par (args : Tensor.view array) ~c ~co ->
            let _, _, kernel =
              Option.get
                (Multi_version.heavy_kernel ~par ~blocked:true anc.Graph.op
                   (List.map (fun i -> args.(i)) slots))
            in
            kernel ~c ~co)
    in
    (* The anchor may write straight into the destination when the final
       stage reads it only at its own flat index and the destination's
       kind is the anchor's dtype: then the stored anchor result is the
       reference's, and the program runs over it in place. *)
    let in_place_dt =
      match tpl.t_anchor with
      | Some anc when not !anchor_read_mapped -> Some (dtype_of (out_of anc))
      | _ -> None
    in
    let k_run_into ~par (args : Tensor.view array) ~c ~co =
      Blocked.Pool.use call_pool (fun cs ->
          if Tensor.fbuf_len cs.s32 < size32 then cs.s32 <- Tensor.fbuf_create Tensor.F32 size32;
          if Tensor.fbuf_len cs.s64 < size64 then cs.s64 <- Tensor.fbuf_create Tensor.F64 size64;
          let bufs = Array.make nleaves c and offs = Array.make nleaves co in
          for i = 0 to nslots - 1 do
            bufs.(i) <- args.(i).Tensor.vbuf;
            offs.(i) <- args.(i).Tensor.voff
          done;
          let store l (dt, off) =
            bufs.(l) <- (if dt = Tensor.F32 then cs.s32 else cs.s64);
            offs.(l) <- off
          in
          List.iter (fun (l, slot) -> store l slot) mat_slots;
          (match run_anchor, anchor_leaf, anchor_slot with
          | Some run, Some l, Some slot ->
            if in_place_dt <> Some (Tensor.fbuf_dtype c) then store l slot;
            run ~par args ~c:bufs.(l) ~co:offs.(l)
          | _ -> ());
          List.iter (fun st -> OS.run ~par st bufs offs) stages)
    in
    Ok { k_out = tpl.t_out; k_dims = member_dims; k_dtype = term_dt; k_run_into }
  with
  | Spec_fail msg -> Error msg
