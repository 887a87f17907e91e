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
      (** branch taken per predicate tensor, in first-observation order *)
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
   of the surface ("blocked,arena,int8"). *)
let config_of_string s =
  match String.split_on_char ',' (String.lowercase_ascii (String.trim s)) with
  | [] | [ "" ] -> Error "empty exec spec"
  | kind :: mods -> (
    match Backend.kind_of_string kind with
    | None ->
      Error
        (Printf.sprintf "unknown backend %S (expected naive|blocked)" kind)
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
                        f32|f64|int8|nofuse|sym=N)" m))))
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

(* Runtime view of an instantiated memory plan: per-tensor slots (element
   offset and capacity) over one grow-only buffer, plus which tensors
   currently live in it.  Built per inference from the binding's
   evaluated plan; the buffer is shared and persists across inferences. *)
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

(* A value some executed node consumes but no executed node produced: the
   plan skipped or lost its producer.  {!Guarded_exec} files it as a
   truncated plan. *)
let missing tid =
  Sod2_error.failf ~tensor:tid Sod2_error.Plan_violation
    "Executor: t%d is consumed but was never produced" tid

let dims_exn st tid = match st.dims.(tid) with Some d -> d | None -> missing tid

(* --- routing and branch selection, shared by both walkers ---------- *)

let clamp_branch branches b = max 0 (min (branches - 1) b)

(* Switch/Combine outputs alias their routed source's value. *)
let copy_value st ~dst ~src =
  st.dims.(dst) <- st.dims.(src);
  st.ivals.(dst) <- st.ivals.(src);
  st.tensors.(dst) <- st.tensors.(src);
  st.avail.(dst) <- true

(* --- step recorder, shared by both walkers ------------------------- *)

type recorder = {
  step_of_group : (int, int) Hashtbl.t;
  mutable steps : group_exec list;  (* newest first *)
  mutable produced : (Graph.tensor_id * int * int) list;  (* tid, bytes, step *)
  mutable nodes_executed : int;
  mutable n_steps : int;
  mutable gate_obs : (Graph.tensor_id * int) list;  (* newest first *)
  taken : int array;  (* per gate: the branch its Switch took, -1 = not yet *)
}

let recorder ctx =
  {
    step_of_group = Hashtbl.create 64;
    steps = [];
    produced = [];
    nodes_executed = 0;
    n_steps = 0;
    gate_obs = [];
    taken = Array.make (Control_region.gate_count ctx.c.Pipeline.control) (-1);
  }

(* The one way both walkers decide whether a group runs.  Under
   [Selected_only] its members' compile-time branch constraints must hold
   for the branches the Switches have taken so far — a lookup, with no
   scan of the group's inputs.  Under [All_paths] every group runs. *)
let group_live ~control ctx rc gid =
  control = All_paths
  || List.for_all
       (Control_region.live_node ctx.c.Pipeline.control ~outcome:rc.taken)
       ctx.c.fusion_plan.groups.(gid).members

(* Switch: pick the branch, record it, and route the data input to the
   taken output (every output under [All_paths]). *)
let route_switch ~control ctx rc ~branch ~route (nd : Graph.node) branches =
  let data = List.hd nd.inputs in
  let pred = switch_pred_tid nd in
  let b = clamp_branch branches (branch pred) in
  if not (List.mem_assoc pred rc.gate_obs) then rc.gate_obs <- (pred, b) :: rc.gate_obs;
  Option.iter
    (fun gid -> rc.taken.(gid) <- b)
    (Control_region.gate_of_switch ctx.c.Pipeline.control nd.nid);
  List.iteri
    (fun i tid -> if control = All_paths || i = b then route ~dst:tid ~src:data)
    nd.outputs

(* Combine: forward the branch its predicate selects — under
   [Selected_only] the one branch that ran. *)
let route_combine st ~branch ~route (nd : Graph.node) branches =
  let src = List.nth nd.inputs (clamp_branch branches (branch (combine_pred_tid nd))) in
  if not st.avail.(src) then missing src;
  route ~dst:(List.hd nd.outputs) ~src

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

(* Record one executed group: its extents, traffic and produced tensors.
   A group-internal tensor counts as internal traffic only when the group
   ran as one fused kernel ([fused]); a group run op by op wrote it. *)
let record_step ctx st rc ~fused ~gid ~member_tids members =
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
              if not (is_internal ctx tid) then begin
                out_bytes := !out_bytes + b;
                rc.produced <- (tid, b, step) :: rc.produced
              end
              else if fused then internal_bytes := !internal_bytes + b
              else out_bytes := !out_bytes + b
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
  let in_dims = List.map (dims_exn st) nd.inputs in
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
  let rc = recorder ctx in
  let route = copy_value st in
  List.iter
    (fun gid ->
      if group_live ~control ctx rc gid then begin
        let members, member_tids = group_members ctx gid in
        List.iter
          (fun (nd : Graph.node) ->
            match nd.op with
            | Op.Switch { branches } ->
              route_switch ~control ctx rc ~branch:gate ~route nd branches
            | Op.Combine { branches } -> route_combine st ~branch:gate ~route nd branches
            | _ ->
              let dims, vals = dry_forward st nd in
              List.iteri
                (fun i tid ->
                  st.dims.(tid) <- Some (List.nth dims i);
                  st.ivals.(tid) <- List.nth vals i;
                  st.avail.(tid) <- true)
                nd.outputs)
          members;
        record_step ctx st rc ~fused:true ~gid ~member_tids members
      end)
    c.exec.Exec_plan.order;
  finish ctx st rc ~arena_bytes:0 ~arena_resident:0

(* --- real walker -------------------------------------------------- *)

let run_engine ~control ~verify ?kernel_hook ?backend ?arena ctx st =
  let c = ctx.c in
  let counter kind =
    Profile.Counters.record ~profile:c.Pipeline.profile.Profile.name ~kind
  in
  (* [tid]'s arena window, when its value lives in a slot. *)
  let slot_view tid =
    match arena with
    | Some ar when ar.ar_loc.(tid) ->
      let off, _ = Option.get ar.ar_slot.(tid) in
      Some (Tensor.sub_view ~buf:ar.ar_buf ~off ~dims:(Option.get st.dims.(tid)))
    | _ -> None
  in
  (* Boxed tensor for [tid]: an arena-resident value is boxed as a window
     of its slot, read in place and never kept. *)
  let fetch tid =
    match slot_view tid, st.tensors.(tid) with
    | Some v, _ -> Tensor.of_view v
    | None, Some t -> t
    | None, None -> missing tid
  in
  (* Kernel-facing view of [tid]'s value: its arena slot when resident,
     else a whole-tensor view of the boxed float tensor; [None] for an
     integer value. *)
  let view_of tid =
    match slot_view tid, st.tensors.(tid) with
    | (Some _ as v), _ -> v
    | None, Some t when Tensor.is_float_dtype (Tensor.dtype t) -> Some (Tensor.view_f t)
    | None, _ -> None
  in
  (* [dst] (a view or route output) aliases [src]'s value under [dims].
     An arena-resident source lends [dst] its slot, which the plan keeps
     live until [dst]'s last consumer.  A boxed source is shared by the
     caller.  No graph output reaches a slot this way: [destination]
     gives every tensor a graph output shares storage with a fresh
     buffer. *)
  let alias ~dst ~src dims =
    st.dims.(dst) <- Some dims;
    st.avail.(dst) <- true;
    match arena with
    | Some ar when ar.ar_loc.(src) ->
      ar.ar_slot.(dst) <- ar.ar_slot.(src);
      ar.ar_loc.(dst) <- true
    | _ -> ()
  in
  let route ~dst ~src =
    copy_value st ~dst ~src;
    alias ~dst ~src (dims_exn st src)
  in
  (* A predicate with no value is a malformed execution, not branch 0. *)
  let branch_of_pred tid =
    match Tensor.to_int_list (Tensor.cast (fetch tid) Tensor.I64) with
    | b :: _ -> b
    | [] ->
      Sod2_error.failf ~tensor:tid Sod2_error.Shape_mismatch
        "Executor: control-flow predicate tensor t%d is empty" tid
  in
  let rc = recorder ctx in
  let set_dims = List.iter (fun (tid, d) -> st.dims.(tid) <- Some d; st.avail.(tid) <- true) in
  (* The one destination rule: where a float result of [dtype] × [dims]
     for [otid] lands.  Its planned slot when the arena has one of exactly
     that capacity in that kind and no graph output shares [otid]'s
     storage (outputs must outlive the arena, whose slots are recycled
     next inference); otherwise a fresh buffer, boxed as [otid]'s value —
     counted in arena mode as ["arena-out-direct"] for a tensor a graph
     output shares and ["arena-dest-malloc"] for anything else.  [Malloc]
     simply has no slots.  Every writer of a float result asks here,
     once, right before it writes. *)
  let out_shared = c.Pipeline.mem_symbolic.Mem_plan.sym_out_shared in
  let fresh otid =
    if Option.is_some arena then
      counter (if out_shared.(otid) then "arena-out-direct" else "arena-dest-malloc")
  in
  let destination otid dtype dims =
    let numel = List.fold_left ( * ) 1 dims in
    match arena with
    | Some ar
      when (match ar.ar_slot.(otid) with Some (_, cap) -> cap = numel | None -> false)
           && Tensor.fbuf_dtype ar.ar_buf = dtype
           && not out_shared.(otid) ->
      ar.ar_loc.(otid) <- true;
      ar.ar_resident <- ar.ar_resident + 1;
      counter "arena-dest-store";
      ar.ar_buf, fst (Option.get ar.ar_slot.(otid))
    | _ ->
      let buf = Tensor.fbuf_create dtype numel in
      Tensor.fbuf_fill buf 0 numel 0.0;
      st.tensors.(otid) <- Some (Tensor.of_fbuf dims buf);
      fresh otid;
      buf, 0
  in
  (* Every data operand of a node viewable as a float window (slot or
     boxed), and the op has a [Kernels.run_into] kernel that fits: each
     result is written once, straight into its destination. *)
  let try_dest (nd : Graph.node) =
    let data, ints = Kernels.split_operands nd.Graph.op nd.Graph.inputs in
    let vs = List.map view_of data in
    List.for_all Option.is_some vs
    &&
    match
      Kernels.run_into ?backend
        ?int8:(Pipeline.int8_weight c.Pipeline.quant_weights nd)
        ~ints:(List.map fetch ints) nd.Graph.op (List.map Option.get vs)
        ~dest:(fun i -> destination (List.nth nd.Graph.outputs i))
    with
    | Some dims ->
      set_dims (List.combine nd.Graph.outputs dims);
      true
    | None -> false
  in
  (* A view of an arena-resident value writes nothing: it aliases the
     slot. *)
  let try_view (nd : Graph.node) =
    match nd.Graph.inputs, nd.Graph.outputs, arena with
    | src :: rest, [ dst ], Some ar when Op.is_view nd.Graph.op && ar.ar_loc.(src) ->
      alias ~dst ~src (Kernels.view_dims nd.Graph.op (dims_exn st src) (List.map fetch rest));
      true
    | _ -> false
  in
  (* The boxed path: its float results land in fresh buffers and count as
     [destination]'s do (a view's result shares its source's storage). *)
  let exec_plain (nd : Graph.node) =
    if not (try_view nd || try_dest nd) then
      List.iter2
        (fun tid t ->
          if Tensor.is_float_dtype (Tensor.dtype t) && not (Op.is_view nd.op) then fresh tid;
          store st tid t)
        nd.outputs
        (Kernels.run ?backend nd.op (List.map fetch nd.inputs))
  in
  (* A multi-member group with a template first offers itself to the
     backend's fused-kernel cache — one lookup per execution: one compiled
     kernel reads the group's inputs as views and writes its terminal
     result to [destination]; internal tensors never materialize.  Any
     refusal (shape not specializable, variant budget spent, naive
     backend) falls through to the op-by-op loop.  Quantized members never
     execute fused: compile withheld their groups' templates. *)
  let run_fused ~gid members =
    match backend with
    | Some be when List.length members > 1 -> (
      match c.Pipeline.fused.(gid) with
      | None -> false
      | Some tpl -> (
        let slots = tpl.Fused_compile.t_slots in
        let vs = Array.map view_of slots in
        (* a slot with no view holds an integer tensor: specialization
           rejects it, and counts the reject *)
        let args =
          Array.to_list
            (Array.mapi
               (fun i v ->
                 match v with
                 | Some v -> v.Tensor.vdims, Tensor.view_dtype v
                 | None ->
                   let t = fetch slots.(i) in
                   Tensor.dims t, Tensor.dtype t)
               vs)
        in
        match Backend.fused_kernel be c ~gid ~args with
        | None -> false
        | Some k ->
          let out = k.Fused_compile.k_out in
          let buf, off =
            destination out k.Fused_compile.k_dtype (List.assoc out k.Fused_compile.k_dims)
          in
          k.Fused_compile.k_run_into ~par:(Backend.par_of be) (Array.map Option.get vs)
            ~c:buf ~co:off;
          set_dims k.Fused_compile.k_dims;
          true))
    | _ -> false
  in
  List.iter
    (fun gid ->
      if group_live ~control ctx rc gid then begin
        let members, member_tids = group_members ctx gid in
        (match kernel_hook with
        | Some hook ->
          List.iter (fun (nd : Graph.node) -> hook ~gid ~node:nd.Graph.nid) members
        | None -> ());
        let fused = run_fused ~gid members in
        if not fused then
          List.iter
            (fun (nd : Graph.node) ->
              match nd.op with
              | Op.Switch { branches } ->
                route_switch ~control ctx rc ~branch:branch_of_pred ~route nd branches
              | Op.Combine { branches } ->
                route_combine st ~branch:branch_of_pred ~route nd branches
              | _ -> exec_plain nd)
            members;
        (* Fused-group boundary guard: hand every produced extent to the
           caller's verifier (no-op unless dims cross-checking is on). *)
        List.iter (fun tid -> Option.iter (verify tid) st.dims.(tid)) member_tids;
        record_step ctx st rc ~fused ~gid ~member_tids members
      end)
    c.exec.Exec_plan.order;
  finish ctx st rc
    ~arena_bytes:(match arena with Some ar -> ar.ar_bytes | None -> 0)
    ~arena_resident:(match arena with Some ar -> ar.ar_resident | None -> 0)

(* --- run_real ----------------------------------------------------- *)

(* Fresh state, the arena laid out, the real walk, then the outputs. *)
let interpret ~control ~check_env ?backend ~memory ?plan ?kernel_hook ctx ~inputs =
  let c = ctx.c in
  let st = init_state c ~keep_tensors:true in
  List.iter (fun (tid, t) -> store st tid t) inputs;
  (* Arena mode: evaluate the binding's plan (placed at compile time, so
     no two live slots can overlap) and lay the slots over the grow-only
     buffer.  A caller-supplied plan comes with its vetting verdict; one
     with defects is not trusted at all: the run goes boxed and counts
     ["arena-fallback-malloc"]. *)
  let arena =
    match memory with
    | Malloc -> None
    | Arena { arena; env } ->
      let plan, defects =
        match plan with
        | Some p -> p
        | None -> Pipeline.instantiated_plan c env, []
      in
      if defects <> [] then begin
        Profile.Counters.record ~profile:c.Pipeline.profile.Profile.name
          ~kind:"arena-fallback-malloc";
        None
      end
      else
        (* An evaluated plan, like a clean verdict, puts every slotted
           allocation inside the arena on the [fdtype] element grid — the
           kind the buffer is allocated in — so byte offsets divide
           exactly. *)
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
        (* an alias with one root shares the root's slot, so a fused
           kernel whose result is a view writes straight into it *)
        List.iter
          (fun (a, root) -> slot.(a) <- slot.(root))
          c.Pipeline.mem_symbolic.Mem_plan.sym_alias;
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
  let trace = run_engine ~control ~verify ?kernel_hook ?backend ?arena ctx st in
  (* [destination] never gives a graph output a slot, so every produced
     output is already boxed and outlives the arena. *)
  ( trace,
    List.filter_map (fun tid -> Option.map (fun t -> tid, t) st.tensors.(tid)) ctx.out_tids )

(* [Mem_arena] needs a symbol binding ([env]) to instantiate the plan; an
   explicit [memory] supplies its own.  A non-naive [config.backend] with
   no caller-supplied instance creates a transient backend for this one
   run and shuts it down afterwards; callers with steady traffic should
   pass their own long-lived [?backend] (or use {!Engine}).  [outcomes]
   is ignored: a compatibility leftover of outcome-predicted plan
   variants. *)
let run_real ?(config = default_config) ?env ?backend ?memory ?outcomes:_ ?plan
    ?kernel_hook (c : Pipeline.compiled) ~inputs =
  Validate.check_inputs c.graph inputs;
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
  Fun.protect
    ~finally:(fun () -> Option.iter Backend.shutdown owned)
    (fun () ->
      interpret ~control:config.control ~check_env ?backend ~memory ?plan ?kernel_hook
        (make_ctx c) ~inputs)

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
