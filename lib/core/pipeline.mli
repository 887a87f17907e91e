(** End-to-end SoD² compilation: RDP analysis followed by the four
    RDP-enabled optimizations, with per-optimization switches for the
    ablation studies of Fig. 5/6.

    Compilation is shape-generic: it runs once per model and device, and
    the resulting artifact executes any concrete input shape without
    re-initialization.  The artifact is read-only after compile, so engine
    workers share it without a lock.  Only the memory plan has a
    per-inference component ({!instantiated_plan}): the slots were placed
    once at compile time, and their offsets are evaluated from the bound
    shape variables — a linear-time pass, not a search. *)

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

type compiled = {
  graph : Graph.t;
  rdp : Rdp.t;
  fusion_plan : Fusion.plan;
  exec : Exec_plan.t;
  versions : Multi_version.table;  (** read by the simulators only *)
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
          The one int8 switch: a non-naive backend runs the quantized
          kernels exactly when this is set ({!int8_weight}) *)
  quant_weights : (Graph.tensor_id, Quant.qtensor) Hashtbl.t;
      (** int8 payload + scheme per quantized constant weight tensor
          (MatMul: per-tensor symmetric; Conv: per-channel over OIHW axis
          0).  The float constants stay in the graph, so float execution
          of the same artifact is unchanged.  Read-only after compile —
          safe to share across engine workers *)
  mem_symbolic : Mem_plan.symbolic;
      (** env-independent memory plan: lifetimes placed once at compile
          time, at the [plan_sym_value] binding; {!instantiated_plan}
          evaluates its offsets per inference *)
  plan_syms : string list;
      (** shape variables the symbolic plan depends on ({!plan_key}'s
          basis) *)
  control : Control_region.t;
      (** the graph's gates (predicate → Switch/Combine families) and
          per-node branch constraints, discovered at compile; the
          executor reads the constraints to pick the groups each
          computed predicate selects *)
}

val compile : ?flags:opt_flags -> ?opts:Compile_opts.t -> Profile.t -> Graph.t -> compiled
(** Compile [graph] for the device.  [opts] (default
    {!Compile_opts.default}) is the whole compile surface; [flags]
    (default {!all_opts} with [fusion] from [opts]) picks the
    optimizations for the ablation studies.  [opts.plan_sym_value] is the
    representative value bound to every shape variable while comparing
    candidate execution orders and placing the memory plan's slots.  [opts.float_dtype] selects the float
    precision the arena plan and executor run in; an integer dtype raises
    [Invalid_argument].  [opts.quant] quantizes every eligible constant
    weight (MatMul/Conv) to int8 and withholds fused templates from their
    groups; the artifact then runs the quantized kernels on every
    non-naive backend ([Kernels.run_into]) and float on the naive one.
    The graph is validated first
    ({!Validate.check}); raises [Sod2_error.Error] on the first defect of a
    malformed graph. *)

val compile_checked :
  ?flags:opt_flags -> ?opts:Compile_opts.t -> Profile.t -> Graph.t ->
  (compiled, Sod2_error.t list) result
(** Like {!compile}, but collects {e every} validation defect instead of
    raising on the first — the entry point for untrusted graphs (e.g. ones
    loaded from disk). *)

val plan_key : compiled -> Env.t -> string
(** Canonical rendering of [env] restricted to [plan_syms].  Requests
    with equal keys get the same memory plan, so {!Engine} keys its
    circuit breakers on it. *)

val instantiated_plan : compiled -> Env.t -> Mem_plan.t
(** The memory plan for one symbol binding: {!Mem_plan.instantiate} of
    {!mem_symbolic} under [env], one O(entries + edges) evaluation with no
    placement.  Every call returns a fresh plan, which the caller owns. *)

val vet_plan : compiled -> Env.t -> Mem_plan.t -> Mem_plan.defect list
(** {!Mem_plan.vet} of any plan for this artifact: the artifact's float
    element size, and sizes checked against the RDP dims instantiated
    under [env].  {!Guarded_exec} runs it on every plan it follows. *)

val plan_env : compiled -> int -> Env.t
(** [plan_env c v] binds every shape variable of the model to [v]. *)

val int8_weight :
  (Graph.tensor_id, Quant.qtensor) Hashtbl.t -> Graph.node -> Quant.qtensor option
(** [int8_weight c.quant_weights nd] — the int8 payload node [nd] runs
    on: its weight's entry in the table, for a MatMul or Conv node.  The
    executor hands it to [Kernels.run_into]; {!compile} withholds the
    fused template of every group with a member that has one. *)

val elem_overrides : Graph.t -> Graph.tensor_id -> int option
(** The per-tensor element-size overrides {!compile} hands to
    {!Mem_plan.plan_symbolic} ([?elem_of]): tensors whose producer
    statically yields a non-float dtype (shape values, index results,
    integer casts) report that dtype's byte width so their arena slots are
    not under-reserved on f32 plans.  Exposed so callers re-deriving a
    concrete plan with {!Mem_plan.plan} can reproduce the artifact's exact
    slot sizing. *)
