type opt_flags = {
  fusion : bool;
  sep : bool;
  dmp : bool;
  mvc : bool;
}

let all_opts = { fusion = true; sep = true; dmp = true; mvc = true }
let no_opts = { fusion = false; sep = false; dmp = false; mvc = false }

type variant = {
  v_outcome : int array;
  v_key : string;
  v_order : int list;  (** exec order with dead-branch groups pruned *)
  v_live_group : bool array;
  v_live_tensor : bool array;
  v_mem_symbolic : Mem_plan.symbolic;  (** slots over live tensors only *)
  v_alias : int array;  (** tid -> aliased source tid, [-1] = none *)
  v_fused : Fused_compile.template option array;
}

type plan_entry = {
  pe_plan : Mem_plan.t;
  mutable pe_defects : Mem_plan.defect list option;  (** [None] until vetted *)
}

type compiled = {
  graph : Graph.t;
  rdp : Rdp.t;
  fusion_plan : Fusion.plan;
  exec : Exec_plan.t;
  versions : Multi_version.table;
  kernel_classes : Multi_version.shape_class option array;
  fused : Fused_compile.template option array;
  flags : opt_flags;
  profile : Profile.t;
  fdtype : Tensor.dtype;  (** float precision the arena plan is sized for *)
  quant : bool;  (** int8 weight quantization was requested at compile *)
  quant_weights : (Graph.tensor_id, Quant.qtensor) Hashtbl.t;
      (** per-weight-tensor int8 payloads; read-only after compile *)
  mem_symbolic : Mem_plan.symbolic;
  plan_syms : string list;
  plan_cache : (string, plan_entry) Hashtbl.t;
  plan_lock : Mutex.t;
  control : Control_region.t;
  variant_budget : int;
  variants : (string, variant) Hashtbl.t;
      (** per outcome key; guarded by [variant_lock] *)
  variant_lock : Mutex.t;
}

let env_with_all_syms g v =
  List.fold_left (fun env s -> Env.bind s v env) Env.empty (Graph.free_syms g)

(* Static shape-class resolution (§4.4.2): the implicit-GEMM extents of
   every heavy operator, evaluated from the RDP shapes under the planning
   binding of the shape variables.  Symbolic dims resolve to the
   representative value, so a matmul whose M is [batch] still lands in a
   class at compile time; operators whose extents stay unknown get [None]
   and dispatch on observed extents at run time. *)
let kernel_classes_of graph rdp ~env =
  Array.map
    (fun (nd : Graph.node) ->
      let dims_of tid = Shape.eval env (Rdp.shape rdp tid) in
      let all_dims tids = List.map dims_of tids in
      let sequence l =
        List.fold_right
          (fun x acc ->
            match x, acc with Some v, Some vs -> Some (v :: vs) | _ -> None)
          l (Some [])
      in
      match sequence (all_dims nd.inputs), sequence (all_dims nd.outputs) with
      | Some in_dims, Some out_dims ->
        Option.map
          (fun (m, n, k) -> Multi_version.classify_gemm ~m ~n ~k)
          (Multi_version.gemm_dims_of_op nd.op ~in_dims ~out_dims)
      | _ -> None)
    (Graph.nodes graph)

(* Element-size overrides for the memory plan: tensors whose producer
   statically yields a non-float dtype (shape values, index results,
   integer casts) would otherwise get slots sized as if they held the
   arena's float dtype — under-reserving I64 values by half on f32 plans.
   One-step scan: dtype propagation through views stays with the runtime,
   which never arena-stores a non-float tensor anyway. *)
let int_elem_overrides (g : Graph.t) =
  let tbl = Hashtbl.create 8 in
  let mark tids e = List.iter (fun tid -> Hashtbl.replace tbl tid e) tids in
  Array.iter
    (fun (nd : Graph.node) ->
      match nd.Graph.op with
      | Op.Cast dt when not (Tensor.is_float_dtype dt) ->
        mark nd.Graph.outputs (Tensor.bytes_per_elem dt)
      | Op.ShapeOf | Op.SizeOf | Op.NonZero | Op.Range | Op.ArgMax _ | Op.ArgMin _
      | Op.NonMaxSuppression _ ->
        mark nd.Graph.outputs (Tensor.bytes_per_elem Tensor.I64)
      | Op.TopK _ -> (
        match nd.Graph.outputs with
        | [ _values; indices ] -> mark [ indices ] (Tensor.bytes_per_elem Tensor.I64)
        | _ -> ())
      | _ -> ())
    (Graph.nodes g);
  fun tid -> Hashtbl.find_opt tbl tid

let elem_overrides = int_elem_overrides

(* The weight side of dynamic-range quantization (the TFLite recipe): at
   compile time, constant weights of heavy operators are quantized to int8
   — per-tensor symmetric for MatMul, per-channel over the output axis for
   Conv (OIHW axis 0), both with zero points pinned to 0 so the packed
   kernels' zero-point correction reduces to the activation term.
   Activations are quantized per-tensor at run time by the executor.  The
   float constants stay in the graph untouched: the same artifact serves
   float execution (naive backend, guarded fallback) bit-exactly. *)
let quant_weight_of g (nd : Graph.node) =
  let const_float tid =
    match Graph.const_value g tid with
    | Some t when Tensor.is_float_dtype (Tensor.dtype t) && Tensor.numel t > 0 ->
      Some t
    | _ -> None
  in
  match nd.Graph.op, nd.Graph.inputs with
  | Op.MatMul, [ _; w ] ->
    Option.bind (const_float w) (fun t ->
        if List.length (Tensor.dims t) = 2 then
          Some (w, Quant.quantize t (Quant.choose_per_tensor ~symmetric:true t))
        else None)
  | Op.Conv _, _ :: w :: _ ->
    Option.bind (const_float w) (fun t ->
        if List.length (Tensor.dims t) = 4 then
          Some (w, Quant.quantize t (Quant.choose_per_channel ~axis:0 t))
        else None)
  | _ -> None

let quant_table g =
  let tbl = Hashtbl.create 8 in
  Array.iter
    (fun nd ->
      match quant_weight_of g nd with
      | Some (w, qt) -> if not (Hashtbl.mem tbl w) then Hashtbl.replace tbl w qt
      | None -> ())
    (Graph.nodes g);
  tbl

(* ------------------------------------------------------------------ *)
(* Per-outcome plan variants (§4.2/§4.4.2 multi-versioning lifted from
   kernels to whole execution plans).  A variant is the artifact
   re-specialized under one predicate-outcome vector: dead-branch groups
   pruned from the exec order (relative order preserved), the symbolic
   memory plan recomputed over live tensors only, and the fused-template
   array masked to live groups.  The base artifact is itself the any-path
   fallback, so a variant is never required for correctness. *)

let build_variant c outcome =
  let live_n nid = Control_region.live_node c.control ~outcome nid in
  let fp = c.fusion_plan in
  let n_groups = Array.length fp.Fusion.groups in
  let live_group = Array.make n_groups true in
  Array.iter
    (fun (grp : Fusion.group) ->
      (* Fusion never crosses a Switch/Combine (control flow stays in
         singleton groups), so all members share one constraint set;
         [for_all] is the safe reading if that ever changes. *)
      live_group.(grp.Fusion.gid) <- List.for_all live_n grp.Fusion.members)
    fp.Fusion.groups;
  let v_order = Exec_plan.restrict c.exec ~live:(fun gid -> live_group.(gid)) in
  let live_tensor = Array.make (Graph.tensor_count c.graph) true in
  Array.iter
    (fun (nd : Graph.node) ->
      if not (live_n nd.Graph.nid && live_group.(fp.Fusion.group_of.(nd.Graph.nid)))
      then List.iter (fun tid -> live_tensor.(tid) <- false) nd.Graph.outputs)
    (Graph.nodes c.graph);
  (* With the outcome fixed, Switch/Combine are pure routing: the live
     Switch output {e is} its data input and each Combine output {e is}
     its selected branch.  Recording that as an alias map lets the memory
     plan skip their slots and keep the source slot live across the
     alias's consumers — the executor then routes gates by slot aliasing
     with no per-gate copy out of the arena. *)
  let v_alias = Array.make (Graph.tensor_count c.graph) (-1) in
  Array.iteri
    (fun gid (gt : Control_region.gate) ->
      let b = if gid < Array.length outcome then outcome.(gid) else -1 in
      if b >= 0 then begin
        List.iter
          (fun nid ->
            let nd = Graph.node c.graph nid in
            if live_n nid && b < List.length nd.Graph.outputs then
              v_alias.(List.nth nd.Graph.outputs b) <- List.hd nd.Graph.inputs)
          gt.Control_region.g_switches;
        List.iter
          (fun nid ->
            let nd = Graph.node c.graph nid in
            if live_n nid && b < List.length nd.Graph.inputs - 1 then
              v_alias.(List.hd nd.Graph.outputs) <- List.nth nd.Graph.inputs b)
          gt.Control_region.g_combines
      end)
    c.control.Control_region.gates;
  let v_mem_symbolic =
    Mem_plan.plan_symbolic
      ~strategy:c.mem_symbolic.Mem_plan.sym_strategy
      ~elem:c.mem_symbolic.Mem_plan.sym_elem
      ~elem_of:(int_elem_overrides c.graph)
      ~live:(fun tid -> live_tensor.(tid))
      ~alias:(fun tid ->
        match v_alias.(tid) with -1 -> None | src -> Some src)
      c.graph c.rdp fp ~order:v_order
  in
  {
    v_outcome = Array.copy outcome;
    v_key = Multi_version.outcome_key outcome;
    v_order;
    v_live_group = live_group;
    v_live_tensor = live_tensor;
    v_mem_symbolic;
    v_alias;
    v_fused = Fused_compile.restrict c.fused ~live:(fun gid -> live_group.(gid));
  }

(* Lookup-or-specialize, bounded by the budget.  Outcomes with open gates
   (digit -1) or the wrong arity never specialize — the caller runs the
   any-path base plan, which is also the budget-overflow answer. *)
let variant c ~outcome =
  let n_gates = Control_region.gate_count c.control in
  if
    c.variant_budget <= 0 || n_gates = 0
    || Array.length outcome <> n_gates
    || Array.exists (fun o -> o < 0) outcome
    || Array.exists2 (fun o g -> o >= g.Control_region.g_branches) outcome
         c.control.Control_region.gates
  then None
  else
    let key = Multi_version.outcome_key outcome in
    Mutex.protect c.variant_lock (fun () ->
        match Hashtbl.find_opt c.variants key with
        | Some v -> Some v
        | None ->
          if Hashtbl.length c.variants >= c.variant_budget then begin
            Profile.Counters.record ~profile:c.profile.Profile.name
              ~kind:"variant-overflow";
            None
          end
          else begin
            let v = build_variant c outcome in
            Profile.Counters.record ~profile:c.profile.Profile.name
              ~kind:"variant-specialize";
            Hashtbl.replace c.variants key v;
            Some v
          end)

(* Ahead-of-time enumeration at compile: explicitly requested vectors
   first, then the full outcome space when it fits the remaining budget
   (otherwise variants specialize lazily, per observed outcome). *)
let aot_variants c requested =
  if c.variant_budget > 0 && Control_region.gate_count c.control > 0 then begin
    List.iter (fun o -> ignore (variant c ~outcome:o)) requested;
    let branches =
      Array.map (fun g -> g.Control_region.g_branches) c.control.Control_region.gates
    in
    match Multi_version.enumerate_outcomes ~branches ~budget:c.variant_budget with
    | Some outs ->
      List.iter
        (fun o ->
          if Hashtbl.length c.variants < c.variant_budget then
            ignore (variant c ~outcome:o))
        outs
    | None -> ()
  end

let compile ?flags ?(opts = Compile_opts.default) profile graph =
  let flags =
    match flags with
    | Some f -> f
    | None -> { all_opts with fusion = opts.Compile_opts.fusion }
  in
  let float_dtype = opts.Compile_opts.float_dtype in
  let quant = opts.Compile_opts.quant in
  if not (Tensor.is_float_dtype float_dtype) then
    invalid_arg "Pipeline.compile: float_dtype must be F32 or F64";
  Validate.check_exn graph;
  let rdp = Rdp.analyze graph in
  let fusion_plan =
    Fusion.plan ~mode:(if flags.fusion then Fusion.Rdp_based else Fusion.Static_only)
      graph rdp
  in
  let env = env_with_all_syms graph opts.Compile_opts.plan_sym_value in
  let exec =
    Exec_plan.plan
      ~strategy:(if flags.sep then Exec_plan.Optimal_small else Exec_plan.Topological)
      graph rdp fusion_plan ~env
  in
  let versions =
    if flags.mvc then Multi_version.build profile else Multi_version.single_version profile
  in
  let kernel_classes = kernel_classes_of graph rdp ~env in
  let quant_weights = if quant then quant_table graph else Hashtbl.create 0 in
  let quantized (nd : Graph.node) =
    match nd.Graph.op, nd.Graph.inputs with
    | Op.MatMul, [ _; w ] | Op.Conv _, _ :: w :: _ -> Hashtbl.mem quant_weights w
    | _ -> false
  in
  let fused = Fused_compile.plan ~quantized graph fusion_plan in
  let mem_symbolic =
    Mem_plan.plan_symbolic
      ~strategy:(if flags.dmp then Mem_plan.Peak_first else Mem_plan.Greedy_first_fit)
      ~elem:(Tensor.bytes_per_elem float_dtype)
      ~elem_of:(int_elem_overrides graph) graph rdp fusion_plan
      ~order:exec.Exec_plan.order
  in
  let plan_syms =
    List.concat_map
      (fun (e : Mem_plan.sym_entry) -> Shape.free_syms e.Mem_plan.se_shape)
      mem_symbolic.Mem_plan.sym_entries
    |> List.sort_uniq compare
  in
  let c =
    {
      graph;
      rdp;
      fusion_plan;
      exec;
      versions;
      kernel_classes;
      fused;
      flags;
      profile;
      fdtype = float_dtype;
      quant;
      quant_weights;
      mem_symbolic;
      plan_syms;
      plan_cache = Hashtbl.create 8;
      plan_lock = Mutex.create ();
      control = Control_region.discover graph;
      variant_budget = opts.Compile_opts.variant_budget;
      variants = Hashtbl.create 8;
      variant_lock = Mutex.create ();
    }
  in
  aot_variants c opts.Compile_opts.variants_aot;
  c

(* Functional update: the replacement table rides on the same plan cache,
   lock, variants and fused templates — versions only steer kernel-config
   selection, nothing shape- or memory-plan-relevant. *)
let with_versions c versions = { c with versions }

let compile_checked ?flags ?opts profile graph =
  match Validate.check graph with
  | Error defects -> Error defects
  | Ok () -> Ok (compile ?flags ?opts profile graph)

(* Cache key: the binding restricted to the shape variables the plan's
   entries actually mention (canonical order).  Unbound variables render as
   "?" so partial bindings with different unresolved sets never collide. *)
let plan_key c env =
  String.concat ";"
    (List.map
       (fun s ->
         match Env.lookup env s with
         | Some v -> s ^ "=" ^ string_of_int v
         | None -> s ^ "=?")
       c.plan_syms)

(* Engine workers share one [compiled] artifact across domains, so the
   cache lookup-or-instantiate must be a critical section (callers hold
   [plan_lock]): two workers arriving with the same fresh binding would
   otherwise both instantiate (double-counting the miss) and race the
   Hashtbl.  Instantiation runs under the lock deliberately — it is a short
   linear pass, and holding the lock gives concurrent same-binding requests
   a guaranteed single miss.  Variant plans live in the same cache under a
   compound key, so the steady-state zero-miss property (and its counters)
   covers them too. *)
let cached_entry c ?variant env =
  let key, sym =
    match variant with
    | None -> plan_key c env, c.mem_symbolic
    | Some v -> plan_key c env ^ "|v=" ^ v.v_key, v.v_mem_symbolic
  in
  match Hashtbl.find_opt c.plan_cache key with
  | Some e ->
    Profile.Counters.record ~profile:c.profile.Profile.name ~kind:"plan-cache-hit";
    e
  | None ->
    Profile.Counters.record ~profile:c.profile.Profile.name ~kind:"plan-cache-miss";
    let e = { pe_plan = Mem_plan.instantiate sym ~env; pe_defects = None } in
    Hashtbl.replace c.plan_cache key e;
    e

let instantiated_plan c env =
  Mutex.protect c.plan_lock (fun () -> (cached_entry c env).pe_plan)

let plan_cache_keys c =
  Mutex.protect c.plan_lock (fun () ->
      Hashtbl.fold (fun k _ acc -> k :: acc) c.plan_cache [])

let vet_plan c env p =
  Mem_plan.vet
    ~elem:(Tensor.bytes_per_elem c.fdtype)
    ~predicted:(fun tid -> Shape.eval env (Rdp.shape c.rdp tid))
    p

(* First-use vetting: the verdict rides in the plan-cache entry, so each
   (binding × plan) pays the O(n²) sweep once ("plan-vet") and every later
   run reads it for free. *)
let vetted_plan c ?variant env =
  Mutex.protect c.plan_lock (fun () ->
      let e = cached_entry c ?variant env in
      match e.pe_defects with
      | Some d -> e.pe_plan, d
      | None ->
        let d = vet_plan c env e.pe_plan in
        Profile.Counters.record ~profile:c.profile.Profile.name ~kind:"plan-vet";
        e.pe_defects <- Some d;
        e.pe_plan, d)

let mem_plan_for c env =
  (* Defensive copy of the alloc array: callers (fault-injection tests) may
     rewrite allocations, and the cached plan must stay pristine. *)
  let p = instantiated_plan c env in
  { p with Mem_plan.allocs = Array.copy p.Mem_plan.allocs }

let plan_env c v = env_with_all_syms c.graph v

(* The executor's dispatch predicate: does this node run on the int8
   weight-quantized kernels?  Mirrors the membership rule the fused-group
   filter used at compile time, so a group skipped there is exactly a
   group with at least one [quant_node] member. *)
let quant_node c (nd : Graph.node) =
  match nd.Graph.op, nd.Graph.inputs with
  | Op.MatMul, [ _; w ] | Op.Conv _, _ :: w :: _ -> Hashtbl.mem c.quant_weights w
  | _ -> false

let quant_weight c tid = Hashtbl.find_opt c.quant_weights tid
