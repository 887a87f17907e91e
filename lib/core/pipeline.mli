(** End-to-end SoD² compilation: RDP analysis followed by the four
    RDP-enabled optimizations, with per-optimization switches for the
    ablation studies of Fig. 5/6.

    Compilation is shape-generic: it runs once per model and device, and
    the resulting artifact executes any concrete input shape without
    re-initialization.  Only the memory plan has a per-inference component
    ({!mem_plan_for}): offsets are re-derived from the symbolic plan once
    the shape variables are bound — a linear-time pass, not a search. *)

type opt_flags = {
  fusion : bool;  (** RDP-based operator fusion (§4.2) *)
  sep : bool;  (** static execution planning (§4.3) *)
  dmp : bool;  (** dynamic memory planning (§4.4.1) *)
  mvc : bool;  (** multi-version code generation (§4.4.2) *)
}

val all_opts : opt_flags
val no_opts : opt_flags
(** Baseline "No opt": general static optimizations (static fusion,
    topological order, first-fit memory, untuned kernels) still apply, as
    in the paper's Fig. 5/6 baseline. *)

type variant = {
  v_outcome : int array;
      (** the predicate-outcome vector this plan is specialized for — one
          digit per gate, in {!Control_region.t} gate order *)
  v_key : string;  (** {!Multi_version.outcome_key} of [v_outcome] *)
  v_order : int list;
      (** the artifact's exec order with dead-branch groups pruned;
          relative order of survivors unchanged (topologically valid) *)
  v_live_group : bool array;  (** per fusion-group id *)
  v_live_tensor : bool array;  (** per tensor id *)
  v_mem_symbolic : Mem_plan.symbolic;
      (** symbolic memory plan over live tensors only — dead branches get
          no arena slots at all *)
  v_alias : int array;
      (** per tensor id: the tensor this one is a pure routing alias of
          ([-1] = none).  With the outcome fixed, the live Switch output
          is its data input and each Combine output is its selected
          branch — [v_mem_symbolic] gives such tensors no slot and keeps
          the source slot live across their consumers, so executors route
          gates by slot aliasing instead of copying out of the arena *)
  v_fused : Fused_compile.template option array;
      (** base fused templates masked to live groups (shared values, so
          kernel caches keyed by template identity span variants) *)
}

type plan_entry = {
  pe_plan : Mem_plan.t;
  mutable pe_defects : Mem_plan.defect list option;
      (** the plan's vetting verdict, filled on first {!vetted_plan} *)
}

type compiled = {
  graph : Graph.t;
  rdp : Rdp.t;
  fusion_plan : Fusion.plan;
  exec : Exec_plan.t;
  versions : Multi_version.table;
  kernel_classes : Multi_version.shape_class option array;
      (** per-node GEMM shape class resolved at compile time from the
          RDP-predicted (possibly symbolic) extents; [None] when the node
          is not a heavy operator or its extents stay unknown, in which
          case the runtime classifies from observed extents *)
  fused : Fused_compile.template option array;
      (** per-group fused-kernel templates (indexed by group id); [None]
          when the group stays on op-by-op execution *)
  flags : opt_flags;
  profile : Profile.t;
  fdtype : Tensor.dtype;
      (** float precision the artifact plans for: arena slots are sized
          [bytes_per_elem fdtype × numel] and the executor allocates the
          arena in this kind *)
  quant : bool;
      (** int8 weight quantization was requested at compile; implies
          {!quant_weights} is populated for every eligible heavy node.
          The one int8 switch: the executor runs the quantized kernels
          exactly when this is set and the backend is not naive *)
  quant_weights : (Graph.tensor_id, Quant.qtensor) Hashtbl.t;
      (** int8 payload + scheme per quantized constant weight tensor
          (MatMul: per-tensor symmetric; Conv: per-channel over OIHW axis
          0).  The float constants stay in the graph, so float execution
          of the same artifact is unchanged.  Read-only after compile —
          safe to share across engine workers *)
  mem_symbolic : Mem_plan.symbolic;
      (** env-independent memory plan: symbolic lifetimes computed once at
          compile time; {!instantiated_plan} binds them per inference *)
  plan_syms : string list;
      (** shape variables the symbolic plan depends on (cache-key basis) *)
  plan_cache : (string, plan_entry) Hashtbl.t;
      (** instantiated plans per symbol binding; hits/misses are recorded
          in {!Profile.Counters} as ["plan-cache-hit"]/["plan-cache-miss"].
          Guarded by [plan_lock] — access through {!instantiated_plan} *)
  plan_lock : Mutex.t;
      (** serializes plan-cache lookups/instantiations so one [compiled]
          artifact can be shared by concurrent {!Engine} workers *)
  control : Control_region.t;
      (** the graph's gates (predicate → Switch/Combine families) and
          per-node branch constraints, discovered at compile *)
  variant_budget : int;
      (** max per-outcome plan variants kept; [0] disables variants *)
  variants : (string, variant) Hashtbl.t;
      (** outcome key → specialized plan variant.  Guarded by
          [variant_lock] — access through {!variant} *)
  variant_lock : Mutex.t;
}

val compile : ?flags:opt_flags -> ?opts:Compile_opts.t -> Profile.t -> Graph.t -> compiled
(** Compile [graph] for the device.  [opts] (default
    {!Compile_opts.default}) is the whole compile surface; [flags]
    (default {!all_opts} with [fusion] from [opts]) picks the
    optimizations for the ablation studies.  [opts.plan_sym_value] is the
    representative value bound to every shape variable while comparing
    candidate execution orders.  [opts.float_dtype] selects the float
    precision the arena plan and executor run in; an integer dtype raises
    [Invalid_argument].  [opts.quant] quantizes every eligible constant
    weight (MatMul/Conv) to int8 and withholds fused templates from their
    groups; the artifact then runs the quantized kernels on every
    non-naive backend ({!Executor.run_real}) and float on the naive one.
    With [opts.variant_budget > 0] and a gated graph, per-branch
    plan variants are enumerated ahead of time: [opts.variants_aot] first,
    then the full outcome space when it fits the budget (otherwise the
    remaining outcomes specialize lazily on first observation, still
    bounded by the budget).  The graph is validated first
    ({!Validate.check}); raises [Sod2_error.Error] on the first defect of a
    malformed graph. *)

val compile_checked :
  ?flags:opt_flags -> ?opts:Compile_opts.t -> Profile.t -> Graph.t ->
  (compiled, Sod2_error.t list) result
(** Like {!compile}, but collects {e every} validation defect instead of
    raising on the first — the entry point for untrusted graphs (e.g. ones
    loaded from disk). *)

val with_versions : compiled -> Multi_version.table -> compiled
(** The same artifact with a replacement kernel-version table (e.g. one
    warm-started from a {!Tune_cache} file or re-derived by measured
    tuning).  Shares the plan cache/lock with the original — version
    tables steer kernel-config selection only, never shapes or memory. *)

val plan_key : compiled -> Env.t -> string
(** Canonical rendering of [env] restricted to [plan_syms] — the plan-cache
    key for that binding.  Requests with equal keys share an instantiated
    plan (and may be micro-batched onto one engine worker). *)

val instantiated_plan : compiled -> Env.t -> Mem_plan.t
(** The memory plan for one symbol binding, served from the per-binding
    cache: the first call per binding runs {!Mem_plan.instantiate} (affine
    evaluation + placement) and is counted as a ["plan-cache-miss"]; every
    later call with the same binding returns the cached plan and counts a
    ["plan-cache-hit"].  The returned plan is shared — treat it as
    read-only. *)

val variant : compiled -> outcome:int array -> variant option
(** The plan variant for one full predicate-outcome vector: cached, or
    specialized on the spot while the variant count is under the budget.
    [None] — run the any-path base plan — when variants are disabled, the
    vector has the wrong arity, leaves a gate open ([-1]) or names an
    out-of-range branch, or the budget is exhausted (counted as
    ["variant-overflow"]).  Fresh specializations count
    ["variant-specialize"].  Thread-safe. *)

val vetted_plan : compiled -> ?variant:variant -> Env.t -> Mem_plan.t * Mem_plan.defect list
(** The base plan ({!instantiated_plan}) or [variant]'s plan for one
    binding, with its {!vet_plan} verdict.  Variant plans share the
    per-binding cache under the compound key [plan_key ^ "|v=" ^ v_key],
    with the same hit/miss counters.  The verdict is computed on the
    first query per (binding × plan), counted as ["plan-vet"], and cached
    beside the plan, so steady-state runs pay a lookup, not an O(n²)
    sweep.  Executors run a plan only when its defect list is empty.
    The returned plan is shared — treat it as read-only. *)

val vet_plan : compiled -> Env.t -> Mem_plan.t -> Mem_plan.defect list
(** Uncached {!Mem_plan.vet} of any plan for this artifact: the
    artifact's float element size, and sizes checked against the RDP
    dims instantiated under [env].  {!Guarded_exec} uses it on injected
    plans. *)

val plan_cache_keys : compiled -> string list
(** Snapshot of the plan-cache keys currently instantiated (base bindings
    and ["…|v=…"] variant compounds) — {!Engine.stats} aggregates these
    per model for the serve report. *)

val mem_plan_for : compiled -> Env.t -> Mem_plan.t
(** Instantiate the memory plan for one concrete input shape.  Served from
    the same cache as {!instantiated_plan} but with a fresh allocation
    array, so callers may rewrite it (fault injection) without poisoning
    the cache. *)

val plan_env : compiled -> int -> Env.t
(** [plan_env c v] binds every shape variable of the model to [v]. *)

val quant_node : compiled -> Graph.node -> bool
(** Does this node dispatch to the int8 weight-quantized kernels?  True
    exactly when its weight input has an entry in {!quant_weights} — the
    same membership rule that withheld the node's fused template. *)

val quant_weight : compiled -> Graph.tensor_id -> Quant.qtensor option
(** The compile-time int8 payload for a weight tensor, when quantized. *)

val elem_overrides : Graph.t -> Graph.tensor_id -> int option
(** The per-tensor element-size overrides {!compile} hands to
    {!Mem_plan.plan_symbolic} ([?elem_of]): tensors whose producer
    statically yields a non-float dtype (shape values, index results,
    integer casts) report that dtype's byte width so their arena slots are
    not under-reserved on f32 plans.  Exposed so callers re-deriving a
    concrete plan with {!Mem_plan.plan} can reproduce the artifact's exact
    slot sizing. *)
