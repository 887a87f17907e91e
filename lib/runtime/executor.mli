(** Plan executor.

    Executes a compiled model over one input sample, following the static
    execution order, the fusion plan (a group that runs as one fused
    kernel never materializes its internal tensors) and the
    [<Switch, Combine>] routing.  Two walkers share
    one step/event recorder:

    - {!run_real} interprets the model: tensors are computed with
      {!Kernels}; used by the correctness tests, the engine and the
      examples;
    - {!run_dry} is a shape-only walk: only concrete shapes (and the small
      integer values that feed shape computations) propagate; used by the
      evaluation harness, which sweeps hundreds of (model × sample ×
      framework × device) combinations that would be prohibitively slow
      to interpret.

    Control flow executes either [Selected_only] (SoD²: the predicate
    routes exactly one branch) or [All_paths] (the baseline frameworks'
    "execute every branch and strip invalid results" strategy).  Both
    walkers follow the one static order and decide whether a group runs
    the same way: under [Selected_only] its members' compile-time branch
    constraints ({!Control_region.live_node}) must hold for the branches
    the Switches have taken so far; under [All_paths] every group runs.
    A group that runs but consumes a value no executed group produced (a
    truncated or corrupted plan) raises [Sod2_error.Error] (class
    [Plan_violation]).

    The result is a {!trace}: per-step operator extents for latency
    costing, and per-tensor allocation events for memory accounting.  The
    framework simulators turn traces into latency/memory figures under
    their own policies.

    In the dry walk, execution-determined extents that depend on tensor
    {e contents} are drawn deterministically: [NonZero] yields half its
    input elements, [NonMaxSuppression] a quarter of its boxes, and
    [Switch] predicates come from the [gate] callback (seeded per sample
    by the workload generator), so input-dependent paths vary across
    samples exactly as real predicates would. *)

type control =
  | Selected_only
  | All_paths

type group_exec = {
  step : int;
  gid : int;
  ops : (Op.t * int list list * int list list) list;
      (** member ops with concrete input/output extents *)
  external_bytes : int;
      (** traffic: materialized inputs + outputs, and the group's internal
          tensors when it ran op by op *)
  internal_bytes : int;
      (** traffic avoided by fusion: the group's internal tensors when it
          ran as one fused kernel (the dry walk assumes it always does) *)
  gemm : (int * int * int) option;  (** implicit-GEMM extents of the heavy member *)
}

type tensor_event = {
  te_tid : Graph.tensor_id;
  te_bytes : int;
  te_alloc : int;  (** step index when produced *)
  te_free : int;  (** step index after which it is dead *)
}

type trace = {
  steps : group_exec list;  (** executed groups, in order *)
  events : tensor_event list;  (** materialized intermediate tensors *)
  out_dims : (Graph.tensor_id * int list) list;  (** graph outputs' extents *)
  nodes_executed : int;
  arena_bytes : int;  (** instantiated plan size; 0 under [Malloc] *)
  arena_resident : int;
      (** tensors computed straight into arena slots this inference *)
  gate_outcomes : (Graph.tensor_id * int) list;
      (** branch taken per Switch predicate tensor, in first-observation
          order *)
}

type memory =
  | Malloc  (** an arena with no slots: every result gets a fresh buffer (the default) *)
  | Arena of { arena : Arena.t; env : Env.t }
      (** §4.4 planned execution: the binding's instantiated memory plan
          ({!Pipeline.instantiated_plan} under [env]) lays tensor slots over
          [arena]'s grow-only buffer.

          Both modes run the same walker and the same kernels; they differ
          only in where a float result lands.  One rule decides it: a
          result goes to its planned slot when the arena has one of
          exactly its size and kind and no graph output shares the
          tensor's storage ({!Mem_plan.symbolic.sym_out_shared}), and to
          a fresh buffer otherwise ([Malloc] has no slots).  Every
          destination kernel ({!Kernels.run_into}, int8 arm included) and
          fused group ({!Backend.fused_kernel}) asks that rule once, just
          before it writes — so steady-state arena execution performs no
          plan recomputation and no intermediate-tensor allocation.  The
          fresh buffers that outputs share survive slot recycling without
          a boundary copy (counted as ["arena-out-direct"]); any other
          result in a fresh buffer, a boxed kernel's float result
          included, is counted as ["arena-dest-malloc"].  Views (Reshape,
          Flatten, Squeeze, Unsqueeze) and Switch/Combine outputs of an
          arena-resident value point at its slot and write nothing; the
          plan keeps that slot live until their last consumer.  Composes
          with any [backend].  Every kernel reads arena-resident operands
          in place: boxed ones (ops with no destination kernel, integer
          operands) as windows of the slots ({!Tensor.of_view}). *)

(** {1 Execution configuration}

    One record naming the execution policies: each is settable here and
    nowhere else.  {!Engine.create}, {!run_real} and {!Guarded_exec.run}
    all accept a [?config]; the CLI's [--exec] flag parses straight into
    it ({!config_of_string}).  Int8 is not among them: it is a property
    of the compiled artifact ({!Pipeline.compiled.quant}). *)

type mem_kind =
  | Mem_malloc  (** fresh allocation per tensor *)
  | Mem_arena
      (** symbolic-plan arena execution; the runner owns the {!Arena.t}
          and instantiates the plan from the request's symbol binding *)

type config = {
  backend : Backend.kind;
      (** [Naive] or [Blocked]; a blocked run also runs every templated
          fusion group fused and sizes its domain pool from the host (an
          {!Engine} divides the host across its workers), so neither is
          a setting *)
  memory : mem_kind;
  guarded : bool;
      (** in {!run_real}: fail-fast RDP cross-checks under the [env]
          binding; in {!Engine}: serve through {!Guarded_exec} *)
  control : control;
  compile : Compile_opts.t;
      (** the compile-side surface riding along with the exec config, so
          one spec configures both halves ({!Engine.create} and the CLI
          compile through it); execution entry points ignore it *)
}

val default_config : config
(** [{ backend = Naive; memory = Mem_malloc; guarded = false;
      control = Selected_only; compile = Compile_opts.default }] — what
    {!run_real} runs under when no [config] is given. *)

val config_of_string : string -> (config, string) result
(** Parses the CLI [--exec] syntax
    ["naive|blocked[,arena][,malloc][,guarded][,all-paths]"] (["fused"]
    still reads as [blocked]).
    Modifiers the executor does not recognize are folded through
    {!Compile_opts.parse_token} into [compile], so a single spec can carry
    compile tokens too (["blocked,arena,int8"]). *)

val config_to_string : config -> string
(** Canonical [--exec] rendering (exec modifiers first, then the
    non-default compile tokens); [config_of_string (config_to_string c)]
    is [Ok c] for any [c] built by {!config_of_string}. *)

exception Unresolved of string
(** Raised by {!run_dry} when a shape could not be resolved concretely —
    indicates a gap in the operator's transfer function. *)

val run_dry :
  ?control:control -> ?gate:(Graph.tensor_id -> int) ->
  Pipeline.compiled -> input_dims:(Graph.tensor_id * int list) list -> trace
(** Shape-only execution.  [gate pred_tid] chooses the branch taken at the
    Switch/Combine pair keyed by predicate tensor [pred_tid] (default:
    branch 0). *)

val run_real :
  ?config:config -> ?env:Env.t -> ?backend:Backend.t -> ?memory:memory ->
  ?outcomes:int array ->
  ?plan:Mem_plan.t * Mem_plan.defect list ->
  ?kernel_hook:(gid:int -> node:Graph.node_id -> unit) ->
  Pipeline.compiled -> inputs:(Graph.tensor_id * Tensor.t) list ->
  trace * (Graph.tensor_id * Tensor.t) list
(** Full interpretation; returns the trace and the graph output tensors.
    A graph input that [inputs] leaves unbound raises [Sod2_error.Error]
    (class [Invalid_graph], {!Validate.check_inputs}) before anything
    runs.  Switch predicates are read from the computed predicate tensors;
    an empty predicate raises [Sod2_error.Error] (class [Shape_mismatch]).

    [config] (default {!default_config}) carries every execution choice:
    - [config.control] is the control-flow policy;
    - [config.memory = Mem_arena] runs over a fresh arena instantiated
      from [env]; without an [env] (and no explicit [memory]) it raises
      [Invalid_argument];
    - [config.guarded] with an [env] turns on the fail-fast RDP
      cross-check: every tensor materialized at a fused-group boundary is
      compared with its RDP-predicted dims under [env], and a
      disagreement raises [Sod2_error.Error] (class [Shape_mismatch]).
      {!Guarded_exec} turns that raise into a re-run on {!Reference};
    - a non-naive [config.backend] creates a transient backend for this
      run.

    Int8 kernels run for the nodes whose weights the artifact quantized
    ({!Pipeline.compiled.quant}) whenever a non-naive backend is in use:
    each node's payload ({!Pipeline.int8_weight}) goes to
    {!Kernels.run_into}, whose heavy arm runs them; the naive path always
    runs float, bit-identical to {!Reference}.

    The remaining arguments are resources, not choices.  [backend] is a
    long-lived kernel backend (it replaces the transient one): heavy
    operators route through its blocked kernels and domain pool, each problem
    classified by its own extents.  [memory] is
    the allocation discipline with its own arena (see {!memory}); it
    replaces the one [config.memory] would build.  Graph outputs never
    live in arena slots, so they stay valid across later inferences over
    the same arena.  An arena run evaluates the binding's plan
    ({!Pipeline.instantiated_plan}) and follows it unvetted: its slots
    were placed at compile time so that no binding can overlap two live
    ones.

    [outcomes] is ignored: a compatibility leftover of the
    outcome-predicted plan variants this executor no longer has.

    [plan] and [kernel_hook] are {!Guarded_exec}'s seams.  [plan]
    replaces the evaluated plan for an [Arena] run and carries its
    vetting verdict; a plan with defects runs boxed and counts
    ["arena-fallback-malloc"].
    [kernel_hook] runs before each executed group's members, fused or
    not, and may raise to simulate a faulty kernel. *)

(** {1 Accounting helpers} *)

val peak_live_bytes : trace -> int
(** Event-based peak of simultaneously-live materialized intermediates. *)

val total_flops : trace -> float
