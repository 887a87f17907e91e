type control =
  | Selected_only
  | All_paths

type group_exec = {
  step : int;
  gid : int;
  ops : (Op.t * int list list * int list list) list;
  external_bytes : int;
  internal_bytes : int;
  gemm : (int * int * int) option;
}

type tensor_event = {
  te_tid : Graph.tensor_id;
  te_bytes : int;
  te_alloc : int;
  te_free : int;
}

type trace = {
  steps : group_exec list;
  events : tensor_event list;
  out_dims : (Graph.tensor_id * int list) list;
  nodes_executed : int;
  arena_bytes : int;
  arena_resident : int;
  gate_outcomes : (Graph.tensor_id * int) list;
      (** branch taken per predicate tensor, in gate order *)
}

type memory =
  | Malloc
  | Arena of { arena : Arena.t; env : Env.t }

type mem_kind =
  | Mem_malloc
  | Mem_arena

type config = {
  backend : Backend.kind;
  memory : mem_kind;
  guarded : bool;
  control : control;
  compile : Compile_opts.t;
}

let default_config =
  {
    backend = Backend.Naive;
    memory = Mem_malloc;
    guarded = false;
    control = Selected_only;
    compile = Compile_opts.default;
  }

(* "<backend>[,arena][,guarded][,all-paths][,<compile token>…]" — the
   CLI's --exec syntax.  Modifiers the executor does not recognize are
   offered to [Compile_opts.parse_token], so one spec can carry both sides
   of the surface ("fused,arena,int8,variants=8"). *)
let config_of_string s =
  match String.split_on_char ',' (String.lowercase_ascii (String.trim s)) with
  | [] | [ "" ] -> Error "empty exec spec"
  | kind :: mods -> (
    match Backend.kind_of_string kind with
    | None ->
      Error
        (Printf.sprintf "unknown backend %S (expected naive|blocked|parallel|fused)" kind)
    | Some backend ->
      List.fold_left
        (fun acc m ->
          Result.bind acc (fun cfg ->
              match String.trim m with
              | "arena" -> Ok { cfg with memory = Mem_arena }
              | "malloc" -> Ok { cfg with memory = Mem_malloc }
              | "guarded" -> Ok { cfg with guarded = true }
              | "all-paths" -> Ok { cfg with control = All_paths }
              | m -> (
                match Compile_opts.parse_token cfg.compile m with
                | Ok compile -> Ok { cfg with compile }
                | Error _ ->
                  Error
                    (Printf.sprintf
                       "unknown exec modifier %S (expected \
                        arena|malloc|guarded|all-paths, or a compile token: \
                        f32|f64|int8|nofuse|sym=N|variants=N|aot=VEC)" m))))
        (Ok { default_config with backend })
        mods)

let config_to_string cfg =
  String.concat ","
    (Backend.kind_name cfg.backend
     :: List.filter_map Fun.id
          [
            (if cfg.memory = Mem_arena then Some "arena" else None);
            (if cfg.guarded then Some "guarded" else None);
            (if cfg.control = All_paths then Some "all-paths" else None);
          ]
     @ Compile_opts.to_tokens cfg.compile)
exception Unresolved of string

exception Variant_mispredict of int * int * int
(** [(gate, assumed, got)] — a variant run's per-gate verification found
    the computed predicate disagreeing with the plan's assumed branch. *)

(* Runtime view of an instantiated memory plan: per-tensor slots (element
   offset and capacity) over one grow-only buffer, plus which tensors
   currently live in it.  Built per inference from the binding-cached
   plan; the buffer is shared and persists across inferences. *)
type arena_rt = {
  ar_buf : Tensor.fbuf;
  ar_slot : (int * int) option array;  (* tid -> (elem offset, capacity) *)
  ar_loc : bool array;  (* tid's live value is in the arena *)
  mutable ar_resident : int;  (* tensors dest-stored this inference *)
  ar_bytes : int;
}

type state = {
  dims : int list option array;
  ivals : int list option array;
  avail : bool array;
  tensors : Tensor.t option array;
}

(* Byte size of a tensor extent.  [dtype] defaults to F32; pass the real
   dtype — a hardcoded 4-byte element here once made every F64/I64 figure
   a lie by half. *)
let bytes_of_dims ?(dtype = Tensor.F32) dims =
  Tensor.bytes_per_elem dtype * List.fold_left (fun a d -> a * max 1 d) 1 dims

(* [tid]'s value is [t]; small I64 values also feed shape computations. *)
let store st tid t =
  st.tensors.(tid) <- Some t;
  st.dims.(tid) <- Some (Tensor.dims t);
  if Tensor.dtype t = Tensor.I64 && Tensor.numel t <= Value_info.max_tracked_elements
  then st.ivals.(tid) <- Some (Tensor.to_int_list t);
  st.avail.(tid) <- true

let init_state (c : Pipeline.compiled) ~keep_tensors =
  let g = c.graph in
  let n = Graph.tensor_count g in
  let st =
    {
      dims = Array.make n None;
      ivals = Array.make n None;
      avail = Array.make n false;
      tensors = Array.make n None;
    }
  in
  for tid = 0 to n - 1 do
    match (Graph.tensor g tid).kind with
    | Graph.Const t ->
      store st tid t;
      if not keep_tensors then st.tensors.(tid) <- None
    | Graph.Input _ | Graph.Activation -> ()
  done;
  st

(* Membership structures shared by both modes. *)
type ctx = {
  c : Pipeline.compiled;
  internal : (Graph.tensor_id, unit) Hashtbl.t;
  out_tids : Graph.tensor_id list;
}

let make_ctx (c : Pipeline.compiled) =
  let internal = Hashtbl.create 64 in
  Array.iter
    (fun (grp : Fusion.group) ->
      List.iter (fun tid -> Hashtbl.replace internal tid ()) grp.internal)
    c.fusion_plan.groups;
  { c; internal; out_tids = Graph.outputs c.graph }

let is_internal ctx tid = Hashtbl.mem ctx.internal tid

let switch_pred_tid (nd : Graph.node) =
  match nd.inputs with
  | [ _; pred ] -> pred
  | _ ->
    Sod2_error.fail ~op:"Switch" ~node:nd.nname Sod2_error.Arity_mismatch
      "Executor: Switch expects [data; pred]"

let combine_pred_tid (nd : Graph.node) =
  match List.rev nd.inputs with
  | pred :: _ -> pred
  | [] ->
    Sod2_error.fail ~op:"Combine" ~node:nd.nname Sod2_error.Arity_mismatch
      "Executor: Combine without inputs"

(* --- routing and readiness, shared by both walkers ----------------- *)

let clamp_branch branches b = max 0 (min (branches - 1) b)

(* Switch/Combine outputs alias their routed source's value. *)
let copy_value st ~dst ~src =
  st.dims.(dst) <- st.dims.(src);
  st.ivals.(dst) <- st.ivals.(src);
  st.tensors.(dst) <- st.tensors.(src);
  st.avail.(dst) <- true

let node_ready ~control st ~member_tids (nd : Graph.node) =
  (* Tensors produced by earlier members of the same group become
     available during group execution. *)
  let ok tid = st.avail.(tid) || List.mem tid member_tids in
  match nd.op with
  | Op.Combine { branches } ->
    ok (combine_pred_tid nd)
    && (match control with
       | Selected_only ->
         List.exists ok (List.filteri (fun i _ -> i < branches) nd.inputs)
       | All_paths -> true)
  | _ -> List.for_all ok nd.inputs

(* --- step recorder, shared by both walkers ------------------------- *)

type recorder = {
  step_of_group : (int, int) Hashtbl.t;
  mutable steps : group_exec list;  (* newest first *)
  mutable produced : (Graph.tensor_id * int * int) list;  (* tid, bytes, step *)
  mutable nodes_executed : int;
  mutable n_steps : int;
  mutable gate_obs : (Graph.tensor_id * int) list;  (* newest first *)
}

let recorder () =
  {
    step_of_group = Hashtbl.create 64;
    steps = [];
    produced = [];
    nodes_executed = 0;
    n_steps = 0;
    gate_obs = [];
  }

let observe_gate rc pred b =
  if not (List.mem_assoc pred rc.gate_obs) then rc.gate_obs <- (pred, b) :: rc.gate_obs

(* Switch: pick the branch, record it, and route the data input to the
   taken output (every output under [All_paths]).  Returns the branch. *)
let route_switch ~control rc ~branch ~route (nd : Graph.node) branches =
  let data = List.hd nd.inputs in
  let pred = switch_pred_tid nd in
  let b = clamp_branch branches (branch pred) in
  observe_gate rc pred b;
  List.iteri
    (fun i tid -> if control = All_paths || i = b then route ~dst:tid ~src:data)
    nd.outputs;
  b

(* Combine: [All_paths] reads the predicate; [Selected_only] takes the one
   branch that arrived.  False when none did. *)
let route_combine ~control st ~branch ~route (nd : Graph.node) branches =
  let branch_tids = List.filteri (fun i _ -> i < branches) nd.inputs in
  let chosen =
    match control with
    | All_paths ->
      List.nth_opt branch_tids (clamp_branch branches (branch (combine_pred_tid nd)))
    | Selected_only -> List.find_opt (fun tid -> st.avail.(tid)) branch_tids
  in
  match chosen with
  | Some src ->
    route ~dst:(List.hd nd.outputs) ~src;
    true
  | None -> false

(* Element size from the materialized tensor when there is one; otherwise
   the compiled artifact's float dtype — the kind arena-resident values
   actually occupy — so Dry and arena traffic figures use the same element
   size the plan reserved. *)
let tensor_bytes ctx st tid dims =
  let dtype =
    match st.tensors.(tid) with
    | Some t -> Tensor.dtype t
    | None -> ctx.c.Pipeline.fdtype
  in
  bytes_of_dims ~dtype dims

(* Record one executed group: its extents, traffic and produced tensors. *)
let record_step ctx st rc ~gid ~member_tids members =
  let step = rc.n_steps in
  rc.n_steps <- step + 1;
  Hashtbl.replace rc.step_of_group gid step;
  rc.nodes_executed <- rc.nodes_executed + List.length members;
  let dims_of tid = Option.value ~default:[] st.dims.(tid) in
  let ops =
    List.map
      (fun (nd : Graph.node) ->
        nd.op, List.map dims_of nd.inputs, List.map dims_of nd.outputs)
      members
  in
  let in_bytes =
    List.concat_map (fun (nd : Graph.node) -> nd.Graph.inputs) members
    |> List.sort_uniq compare
    |> List.fold_left
         (fun acc tid ->
           match st.dims.(tid) with
           | Some d when not (List.mem tid member_tids) -> acc + tensor_bytes ctx st tid d
           | _ -> acc)
         0
  in
  let out_bytes = ref 0 and internal_bytes = ref 0 in
  List.iter
    (fun (nd : Graph.node) ->
      (* Switch outputs alias their input; they cost no memory. *)
      if not (Op.is_control_flow nd.Graph.op) then
        List.iter
          (fun tid ->
            match st.dims.(tid) with
            | Some d ->
              let b = tensor_bytes ctx st tid d in
              if is_internal ctx tid then internal_bytes := !internal_bytes + b
              else begin
                out_bytes := !out_bytes + b;
                rc.produced <- (tid, b, step) :: rc.produced
              end
            | None -> ())
          nd.Graph.outputs)
    members;
  let gemm =
    List.find_map
      (fun (op, ind, outd) -> Multi_version.gemm_dims_of_op op ~in_dims:ind ~out_dims:outd)
      ops
  in
  rc.steps <-
    {
      step;
      gid;
      ops;
      external_bytes = in_bytes + !out_bytes;
      internal_bytes = !internal_bytes;
      gemm;
    }
    :: rc.steps

let finish ctx st rc ~arena_bytes ~arena_resident =
  let c = ctx.c in
  (* Lifetime events for materialized tensors. *)
  let last_step = max 0 (rc.n_steps - 1) in
  let events =
    List.rev_map
      (fun (tid, bytes, alloc) ->
        let free =
          if List.mem tid ctx.out_tids then last_step
          else
            List.fold_left
              (fun acc cnid ->
                match
                  Hashtbl.find_opt rc.step_of_group c.fusion_plan.group_of.(cnid)
                with
                | Some s -> max acc s
                | None -> acc)
              alloc
              (Graph.consumers c.graph tid)
        in
        { te_tid = tid; te_bytes = bytes; te_alloc = alloc; te_free = free })
      rc.produced
  in
  let out_dims =
    List.filter_map
      (fun tid -> Option.map (fun d -> tid, d) st.dims.(tid))
      ctx.out_tids
  in
  {
    steps = List.rev rc.steps;
    events;
    out_dims;
    nodes_executed = rc.nodes_executed;
    arena_bytes;
    arena_resident;
    gate_outcomes = List.rev rc.gate_obs;
  }

let group_members ctx gid =
  let members = List.map (Graph.node ctx.c.graph) ctx.c.fusion_plan.groups.(gid).members in
  members, List.concat_map (fun (nd : Graph.node) -> nd.Graph.outputs) members

(* --- dry walker --------------------------------------------------- *)

let value_info_of st tid : Value_info.t =
  match st.ivals.(tid) with
  | Some ints -> Value_info.of_ints ints
  | None -> if st.avail.(tid) then Lattice.Nac else Value_info.undef

let eval_value_info (v : Value_info.t) : int list option =
  match Value_info.as_exprs v with
  | Some exprs ->
    let ints = Array.to_list exprs |> List.map (Expr.eval (fun _ -> None)) in
    if List.for_all Option.is_some ints then Some (List.map Option.get ints) else None
  | None -> None

let dry_forward st (nd : Graph.node) =
  let in_dims = List.map (fun tid -> Option.get st.dims.(tid)) nd.inputs in
  match nd.op with
  | Op.NonZero ->
    let d = List.hd in_dims in
    let r = List.length d in
    let count = List.fold_left (fun a x -> a * max 1 x) 1 d / 2 in
    [ [ max r 1; max 1 count ] ], [ None ]
  | Op.NonMaxSuppression { max_out; _ } ->
    let n = match List.hd in_dims with n :: _ -> n | [] -> 0 in
    [ [ min max_out (max 1 (n / 4)); 3 ] ], [ None ]
  | Op.If | Op.Loop -> raise (Unresolved "If/Loop have no dry interpretation")
  | _ ->
    let io =
      {
        Shape_fn.in_shapes =
          Array.of_list (List.map (fun d -> Shape.of_ints d) in_dims);
        in_values = Array.of_list (List.map (value_info_of st) nd.inputs);
      }
    in
    let out_shapes, out_values = Shape_fn.forward nd.op io in
    let dims =
      Array.to_list out_shapes
      |> List.map (fun s ->
             match Shape.as_ints s with
             | Some d -> d
             | None ->
               raise
                 (Unresolved
                    (Printf.sprintf "node %s: output shape %s not concrete" nd.nname
                       (Shape.to_string s))))
    in
    let vals = Array.to_list out_values |> List.map eval_value_info in
    dims, vals

(* Shape-only walk over the static order: concrete extents (and the small
   integer values feeding shape computations) propagate, and [gate]
   supplies every predicate. *)
let run_dry ?(control = Selected_only) ?(gate = fun _ -> 0) (c : Pipeline.compiled)
    ~input_dims =
  let ctx = make_ctx c in
  let st = init_state c ~keep_tensors:false in
  List.iter
    (fun (tid, dims) ->
      st.dims.(tid) <- Some dims;
      st.avail.(tid) <- true)
    input_dims;
  List.iter
    (fun tid ->
      if not st.avail.(tid) then
        raise (Unresolved (Printf.sprintf "graph input t%d has no concrete dims" tid)))
    (Graph.inputs c.graph);
  let rc = recorder () in
  let route = copy_value st in
  List.iter
    (fun gid ->
      let members, member_tids = group_members ctx gid in
      if List.for_all (node_ready ~control st ~member_tids) members
         && List.for_all
              (fun (nd : Graph.node) ->
                match nd.op with
                | Op.Switch { branches } ->
                  ignore (route_switch ~control rc ~branch:gate ~route nd branches);
                  true
                | Op.Combine { branches } ->
                  route_combine ~control st ~branch:gate ~route nd branches
                | _ ->
                  let dims, vals = dry_forward st nd in
                  List.iteri
                    (fun i tid ->
                      st.dims.(tid) <- Some (List.nth dims i);
                      st.ivals.(tid) <- List.nth vals i;
                      st.avail.(tid) <- true)
                    nd.outputs;
                  true)
              members
      then record_step ctx st rc ~gid ~member_tids members)
    c.exec.Exec_plan.order;
  finish ctx st rc ~arena_bytes:0 ~arena_resident:0

(* --- real walker -------------------------------------------------- *)

let run_engine ~control ~verify ?kernel_hook ?backend ?arena ?variant ctx st =
  let c = ctx.c in
  let counter kind =
    Profile.Counters.record ~profile:c.Pipeline.profile.Profile.name ~kind
  in
  (* Boxed tensor for [tid].  An arena-resident value is copied out on its
     first boxed use and memoized — the only intermediate-tensor copy the
     arena mode ever performs (counted, so tests can assert zero on
     dest-capable graphs). *)
  let fetch_boxed tid =
    match st.tensors.(tid) with
    | Some t -> t
    | None -> (
      match arena with
      | Some ar when ar.ar_loc.(tid) ->
        let off, _ = Option.get ar.ar_slot.(tid) in
        let dims = Option.get st.dims.(tid) in
        (* Always a copy, never a shared window: the slot's storage is
           reused by later tensors once this one's lifetime ends. *)
        let t = Tensor.copy_view (Tensor.sub_view ~buf:ar.ar_buf ~off ~dims) in
        counter "arena-copy-out";
        st.tensors.(tid) <- Some t;
        t
      | _ -> Option.get st.tensors.(tid))
  in
  (* Kernel-facing view of [tid]'s value: its arena slot when resident
     (zero-copy), else a whole-tensor view of the boxed F32 tensor. *)
  let view_of tid =
    match arena with
    | Some ar when ar.ar_loc.(tid) ->
      let off, _ = Option.get ar.ar_slot.(tid) in
      Some (Tensor.sub_view ~buf:ar.ar_buf ~off ~dims:(Option.get st.dims.(tid)))
    | _ -> (
      match st.tensors.(tid) with
      | Some t when Tensor.is_float_dtype (Tensor.dtype t) -> Some (Tensor.view_f t)
      | _ -> None)
  in
  (* Routing alias for Switch/Combine.  Variant plans resolved the gate's
     routing at plan time and kept the source slot live across the alias's
     consumers (Mem_plan [?alias]), so the alias can point at the source's
     arena slot directly — no boxed copy out of the arena per gate.
     Otherwise the alias must not share an arena slot (it would outlive
     the slot's planned lifetime), so the value is boxed first. *)
  let route ~dst ~src =
    (match arena with
    | Some ar when ar.ar_loc.(src) && st.tensors.(src) = None -> (
      match variant with
      | Some v when v.Pipeline.v_alias.(dst) >= 0 ->
        ar.ar_slot.(dst) <- ar.ar_slot.(src);
        ar.ar_loc.(dst) <- true
      | _ -> ignore (fetch_boxed src))
    | _ -> ());
    copy_value st ~dst ~src
  in
  (* A predicate with no value is a malformed execution, not branch 0. *)
  let branch_of_pred tid =
    let value =
      match st.tensors.(tid), arena with
      | None, Some ar when ar.ar_loc.(tid) -> Some (fetch_boxed tid)
      | t, _ -> t
    in
    match Option.map (fun t -> Tensor.to_int_list (Tensor.cast t Tensor.I64)) value with
    | Some (b :: _) -> b
    | Some [] ->
      Sod2_error.failf ~tensor:tid Sod2_error.Shape_mismatch
        "Executor: control-flow predicate tensor t%d is empty" tid
    | None ->
      Sod2_error.failf ~tensor:tid Sod2_error.Shape_mismatch
        "Executor: control-flow predicate tensor t%d has no value" tid
  in
  (* Variant runs verify the plan's assumption once per gate, at the
     Switch — the only branch check left on the specialized path.  A
     disagreement aborts into the any-path fallback (predict-verify-
     fallback for data-dependent gates). *)
  let verify_gate (nd : Graph.node) b =
    match variant with
    | Some v -> (
      match Control_region.gate_of_switch c.Pipeline.control nd.Graph.nid with
      | Some gid
        when gid < Array.length v.Pipeline.v_outcome
             && v.Pipeline.v_outcome.(gid) >= 0
             && v.Pipeline.v_outcome.(gid) <> b ->
        raise (Variant_mispredict (gid, v.Pipeline.v_outcome.(gid), b))
      | _ -> ())
    | None -> ()
  in
  let rc = recorder () in
  let cls_of (nd : Graph.node) =
    match backend with
    | None -> None
    | Some _ when nd.nid < Array.length ctx.c.Pipeline.kernel_classes ->
      ctx.c.Pipeline.kernel_classes.(nd.nid)
    | Some _ -> None
  in
  (* Graph outputs must outlive the arena (slots are recycled next
     inference), so their destination is a fresh boxed buffer rather than
     the slot — the kernel still reads its inputs as zero-copy slot views,
     which beats both a slot store followed by a boundary copy and a fully
     boxed run that copies every arena-resident input out first. *)
  let is_graph_out tid = List.mem tid ctx.out_tids in
  let set_dims = List.iter (fun (tid, d) -> st.dims.(tid) <- Some d; st.avail.(tid) <- true) in
  (* Destination for a float result of [dims] that [write] computes: its
     planned slot when the capacity matches exactly and it is not a graph
     output, else a fresh boxed buffer. *)
  let place otid dims write =
    let numel = List.fold_left ( * ) 1 dims in
    match arena with
    | Some ar
      when (match ar.ar_slot.(otid) with Some (_, cap) -> cap = numel | None -> false)
           && not (is_graph_out otid) ->
      let off, _ = Option.get ar.ar_slot.(otid) in
      write ~cbuf:ar.ar_buf ~co:off;
      ar.ar_loc.(otid) <- true;
      ar.ar_resident <- ar.ar_resident + 1;
      counter "arena-dest-store"
    | _ ->
      let buf = Tensor.fbuf_create c.Pipeline.fdtype numel in
      Tensor.fbuf_fill buf 0 numel 0.0;
      write ~cbuf:buf ~co:0;
      st.tensors.(otid) <- Some (Tensor.of_fbuf dims buf);
      if Option.is_some arena then counter "arena-out-direct"
  in
  (* Destination-passing attempt: single-output node whose result has a
     planned slot, all inputs viewable as F32 windows, and the op has a
     [Kernels.run_into] kernel producing exactly the slot's capacity.
     Writes straight into the arena — no output allocation, no blit. *)
  let try_dest (nd : Graph.node) =
    match arena, nd.Graph.outputs with
    | Some ar, [ otid ] -> (
      match ar.ar_slot.(otid) with
      | Some (off, cap) -> (
        let rec views acc = function
          | [] -> Some (List.rev acc)
          | tid :: rest -> (
            match view_of tid with
            | Some v -> views (v :: acc) rest
            | None -> None)
        in
        match views [] nd.Graph.inputs with
        | Some vs ->
          if is_graph_out otid then (
            let buf = Tensor.fbuf_create c.Pipeline.fdtype cap in
            Tensor.fbuf_fill buf 0 cap 0.0;
            match
              Kernels.run_into ?backend ?cls:(cls_of nd) nd.Graph.op vs ~c:buf
                ~co:0 ~cap
            with
            | Some dims ->
              let numel = List.fold_left ( * ) 1 dims in
              let t =
                if numel = cap then Tensor.of_fbuf dims buf
                else Tensor.copy_view (Tensor.sub_view ~buf ~off:0 ~dims)
              in
              st.tensors.(otid) <- Some t;
              st.dims.(otid) <- Some dims;
              st.avail.(otid) <- true;
              counter "arena-out-direct";
              true
            | None -> false)
          else (
            match
              Kernels.run_into ?backend ?cls:(cls_of nd) nd.Graph.op vs
                ~c:ar.ar_buf ~co:off ~cap
            with
            | Some dims ->
              ar.ar_loc.(otid) <- true;
              ar.ar_resident <- ar.ar_resident + 1;
              st.dims.(otid) <- Some dims;
              st.avail.(otid) <- true;
              counter "arena-dest-store";
              true
            | None -> false)
        | None -> false)
      | None -> false)
    | _ -> false
  in
  (* Int8 weight-quantized dispatch (dynamic-range): a node whose constant
     weight was quantized at compile runs the packed int8 kernel with the
     dequantization epilogue folded into the write-back.  The result is
     float, so it lands in the output's arena slot when the capacity
     matches (dest-passing, same as [try_dest]) or a fresh boxed buffer
     otherwise.  The activation is fetched boxed — calibration reads every
     element anyway.  Output dims are computed up front from the operand
     dims so the slot decision precedes the kernel; any shape the
     quantized kernels cannot take falls through to the float path. *)
  let quant_dispatch (nd : Graph.node) =
    match backend with
    | Some be when c.Pipeline.quant && Backend.kind_of be <> Backend.Naive -> (
      match nd.Graph.op, nd.Graph.inputs, nd.Graph.outputs with
      | Op.MatMul, [ x; w ], [ otid ] -> (
        match Pipeline.quant_weight c w, st.dims.(x) with
        | Some qt, Some [ m; k ] -> (
          match Tensor.dims qt.Quant.q with
          | [ k'; n ] when k = k' && k > 0 ->
            Some
              ( otid,
                [ m; n ],
                fun ~cbuf ~co ->
                  ignore
                    (Backend.matmul_q8_into ?cls:(cls_of nd) be (fetch_boxed x) qt
                       ~c:cbuf ~co) )
          | _ -> None)
        | _ -> None)
      | Op.Conv { stride; pads; dilation; groups }, x :: w :: rest, [ otid ] -> (
        let bias = match rest with [ b ] -> Some b | _ -> None in
        match Pipeline.quant_weight c w, st.dims.(x) with
        | Some qt, Some [ n; _; h; wd ] -> (
          match Tensor.dims qt.Quant.q with
          | [ m; _; kh; kw ] -> (
            try
              let sh, sw = stride and dh, dw_ = dilation in
              let pt, pl, pb, pr = pads in
              let oh =
                Linalg.conv2d_out_dim ~in_:h ~kernel:kh ~stride:sh ~pad_begin:pt
                  ~pad_end:pb ~dilation:dh
              in
              let ow =
                Linalg.conv2d_out_dim ~in_:wd ~kernel:kw ~stride:sw ~pad_begin:pl
                  ~pad_end:pr ~dilation:dw_
              in
              Some
                ( otid,
                  [ n; m; oh; ow ],
                  fun ~cbuf ~co ->
                    ignore
                      (Backend.conv2d_q8_into ?cls:(cls_of nd) be ~stride ~pad:pads
                         ~dilation ~groups (fetch_boxed x) qt
                         (Option.map fetch_boxed bias) ~c:cbuf ~co) )
            with Sod2_error.Error _ | Invalid_argument _ -> None)
          | _ -> None)
        | _ -> None)
      | _ -> None)
    | _ -> None
  in
  let try_quant (nd : Graph.node) =
    match quant_dispatch nd with
    | None -> false
    | Some (otid, dims, run) ->
      place otid dims run;
      set_dims [ otid, dims ];
      counter "quant-kernel";
      true
  in
  let exec_plain (nd : Graph.node) =
    if not (try_quant nd || try_dest nd) then
      List.iter2 (store st) nd.outputs
        (Kernels.run ?backend ?cls:(cls_of nd) nd.op (List.map fetch_boxed nd.inputs))
  in
  (* Arena fused path: fetch the group's slot inputs as zero-copy views,
     resolve the specialized kernel through the backend cache, and drive
     its destination entry point straight into the terminal output's
     planned slot. *)
  let run_fused_arena be ~gid tpl =
    let n = Array.length tpl.Fused_compile.t_slots in
    let vs = Array.make n None in
    Array.iteri (fun i tid -> vs.(i) <- view_of tid) tpl.Fused_compile.t_slots;
    if Array.exists Option.is_none vs then false
    else
      let va = Array.map Option.get vs in
      let shapes =
        Array.to_list (Array.map (fun v -> v.Tensor.vdims, Tensor.view_dtype v) va)
      in
      match Backend.fused_kernel be ~tpl c ~gid ~args:shapes with
      | None -> false
      | Some k ->
        let out = k.Fused_compile.k_out in
        place out (List.assoc out k.Fused_compile.k_dims) (fun ~cbuf ~co ->
            k.Fused_compile.k_run_into ~par:(Backend.par_of be) va ~c:cbuf ~co);
        set_dims k.Fused_compile.k_dims;
        true
  in
  (* A variant executes its pruned order with no per-group readiness scan:
     every surviving group is statically known to run, and branch inputs
     were resolved at compile time.  The scan counter makes "zero per-node
     branch resolution in steady state" a testable claim. *)
  let order, templates =
    match variant with
    | Some v -> v.Pipeline.v_order, v.Pipeline.v_fused
    | None -> c.exec.Exec_plan.order, c.Pipeline.fused
  in
  (* A multi-member group first offers itself to the fused backend: one
     compiled kernel, internal tensors never materialized.  Any refusal
     (no template, shape not specializable, non-fused backend) falls
     through to the op-by-op loop.  Quantized members never execute
     fused: compile withheld their groups' templates. *)
  let run_fused ~gid members =
    match backend with
    | Some be when List.length members > 1 -> (
      (match arena, templates.(gid) with
      | Some _, Some tpl -> run_fused_arena be ~gid tpl
      | _ -> false)
      ||
      match Backend.fused_run be ?tpl:templates.(gid) c ~gid ~fetch:fetch_boxed with
      | Some fr ->
        set_dims fr.Backend.fr_dims;
        st.tensors.(fr.Backend.fr_out) <- Some fr.Backend.fr_tensor;
        true
      | None -> false)
    | _ -> false
  in
  List.iter
    (fun gid ->
      let members, member_tids = group_members ctx gid in
      (* Combine fires when its selected branch arrived even though other
         branch inputs are missing; plain nodes need everything. *)
      let ready =
        match variant with
        | Some _ -> true
        | None ->
          counter "exec-ready-scan";
          List.for_all (node_ready ~control st ~member_tids) members
      in
      if ready then begin
        (match kernel_hook with
        | Some hook ->
          List.iter (fun (nd : Graph.node) -> hook ~gid ~node:nd.Graph.nid) members
        | None -> ());
        let executed_all =
          run_fused ~gid members
          || List.for_all
               (fun (nd : Graph.node) ->
                 match nd.op with
                 | Op.Switch { branches } ->
                   verify_gate nd
                     (route_switch ~control rc ~branch:branch_of_pred ~route nd branches);
                   true
                 | Op.Combine { branches } ->
                   route_combine ~control st ~branch:branch_of_pred ~route nd branches
                 | _ ->
                   exec_plain nd;
                   true)
               members
        in
        if executed_all then begin
          (* Fused-group boundary guard: hand every produced extent to the
             caller's verifier (no-op unless dims cross-checking is on). *)
          List.iter
            (fun tid -> Option.iter (verify tid) st.dims.(tid))
            member_tids;
          record_step ctx st rc ~gid ~member_tids members
        end
      end)
    order;
  finish ctx st rc
    ~arena_bytes:(match arena with Some ar -> ar.ar_bytes | None -> 0)
    ~arena_resident:(match arena with Some ar -> ar.ar_resident | None -> 0)

(* --- run_real ----------------------------------------------------- *)

(* One attempt over [variant] (or the base plan): fresh state, the arena
   laid out, the real walk, then the outputs boxed at the boundary. *)
let run_attempt ~control ~check_env ?backend ~memory ?plan ?kernel_hook ctx ~inputs variant =
  let c = ctx.c in
  let st = init_state c ~keep_tensors:true in
  List.iter (fun (tid, t) -> store st tid t) inputs;
  (* Arena mode: fetch the binding's instantiated plan and its vetting
     verdict (both cached — affine evaluation and vetting only on the
     first inference per binding) and lay the slots over the grow-only
     buffer.  A plan with defects is not trusted at all: the run goes
     boxed and counts ["arena-fallback-malloc"]. *)
  let arena =
    match memory with
    | Malloc -> None
    | Arena { arena; env } ->
      let plan, defects =
        match variant, plan with
        | None, Some p -> p
        | _ -> Pipeline.vetted_plan c ?variant env
      in
      if defects <> [] then begin
        Profile.Counters.record ~profile:c.Pipeline.profile.Profile.name
          ~kind:"arena-fallback-malloc";
        None
      end
      else
        (* A clean verdict puts every slotted allocation inside the arena
           on the [fdtype] element grid — the kind the buffer is
           allocated in — so byte offsets divide exactly. *)
        let elem = Tensor.bytes_per_elem c.Pipeline.fdtype in
        let buf =
          Arena.ensure arena c.Pipeline.fdtype
            (max 1 ((plan.Mem_plan.arena_bytes + elem - 1) / elem))
        in
        let n = Graph.tensor_count c.graph in
        let slot = Array.make n None in
        Array.iter
          (fun (a : Mem_plan.alloc) ->
            if Mem_plan.has_slot ~elem a then
              slot.(a.tid) <- Some (a.offset / elem, a.size / elem))
          plan.Mem_plan.allocs;
        Some
          {
            ar_buf = buf;
            ar_slot = slot;
            ar_loc = Array.make n false;
            ar_resident = 0;
            ar_bytes = plan.Mem_plan.arena_bytes;
          }
  in
  let verify =
    match check_env with
    | None -> fun _ _ -> ()
    | Some env ->
      fun tid dims ->
        (match Shape.eval env (Rdp.shape c.rdp tid) with
        | Some want when want <> dims ->
          Sod2_error.failf ~tensor:tid Sod2_error.Shape_mismatch
            "executed dims [%s] disagree with RDP prediction [%s]"
            (String.concat "; " (List.map string_of_int dims))
            (String.concat "; " (List.map string_of_int want))
        | _ -> ())
  in
  let trace = run_engine ~control ~verify ?kernel_hook ?backend ?arena ?variant ctx st in
  (* Model outputs must outlive the arena (its slots are overwritten by the
     next inference), so arena-resident outputs are boxed at the boundary.
     This is the one unavoidable copy of arena mode and is counted
     separately from intermediate copy-outs. *)
  let outs =
    List.filter_map
      (fun tid ->
        match st.tensors.(tid) with
        | Some t -> Some (tid, t)
        | None -> (
          match arena with
          | Some ar when ar.ar_loc.(tid) ->
            let off, _ = Option.get ar.ar_slot.(tid) in
            let dims = Option.get st.dims.(tid) in
            Profile.Counters.record ~profile:c.Pipeline.profile.Profile.name
              ~kind:"arena-out-materialize";
            Some (tid, Tensor.copy_view (Tensor.sub_view ~buf:ar.ar_buf ~off ~dims))
          | _ -> None))
      ctx.out_tids
  in
  trace, outs

(* [Mem_arena] needs a symbol binding ([env]) to instantiate the plan; an
   explicit [memory] supplies its own.  A non-naive [config.backend] with
   no caller-supplied instance creates a transient backend for this one
   run and shuts it down afterwards; callers with steady traffic should
   pass their own long-lived [?backend] (or use {!Engine}). *)
let run_real ?(config = default_config) ?env ?backend ?memory ?outcomes ?plan
    ?kernel_hook (c : Pipeline.compiled) ~inputs =
  let memory =
    match memory, config.memory, env with
    | Some m, _, _ -> m
    | None, Mem_malloc, _ -> Malloc
    | None, Mem_arena, Some env -> Arena { arena = Arena.create (); env }
    | None, Mem_arena, None ->
      invalid_arg
        "Executor.run_real: config.memory = Mem_arena needs ~env (the symbol \
         binding its plan is instantiated under) or an explicit ~memory"
  in
  let check_env = if config.guarded then env else None in
  let owned, backend =
    match backend, config.backend with
    | (Some _ as be), _ -> None, be
    | None, Backend.Naive -> None, None
    | None, k ->
      let be = Backend.for_compiled k c in
      Some be, Some be
  in
  let ctx = make_ctx c in
  let attempt =
    run_attempt ~control:config.control ~check_env ?backend ~memory ?plan ?kernel_hook ctx
      ~inputs
  in
  let counter kind = Profile.Counters.record ~profile:c.Pipeline.profile.Profile.name ~kind in
  Fun.protect
    ~finally:(fun () -> Option.iter Backend.shutdown owned)
    (fun () ->
      (* Variant dispatch: resolve the outcome vector to a specialized plan
         (bounded by the artifact's budget), execute it, and on a per-gate
         verification failure rerun from scratch on the any-path base plan —
         mispredicted state never leaks into the fallback. *)
      match Option.bind outcomes (fun o -> Pipeline.variant c ~outcome:o) with
      | None -> attempt None
      | Some v -> (
        try
          let r = attempt (Some v) in
          counter "variant-run";
          r
        with Variant_mispredict _ ->
          counter "variant-mispredict";
          attempt None))

let peak_live_bytes (trace : trace) =
  let last =
    List.fold_left (fun acc e -> max acc e.te_free) 0 trace.events
  in
  let peak = ref 0 in
  for s = 0 to last do
    let live =
      List.fold_left
        (fun acc e -> if e.te_alloc <= s && s <= e.te_free then acc + e.te_bytes else acc)
        0 trace.events
    in
    if live > !peak then peak := live
  done;
  !peak

let total_flops (trace : trace) =
  List.fold_left
    (fun acc ge ->
      List.fold_left
        (fun acc (op, ind, outd) -> acc +. Cost_model.flops op ~in_dims:ind ~out_dims:outd)
        acc ge.ops)
    0.0 trace.steps
