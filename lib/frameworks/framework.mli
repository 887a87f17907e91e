(** Simulators of the DNN execution frameworks the paper compares against
    (§2, §5), each reduced to the {e mechanism} the paper identifies as its
    cost driver, executing the same graphs through the same runtime:

    - {b SoD²} — this repository's pipeline: compile once (RDP + fusion +
      execution planning), per-inference symbolic memory-plan
      instantiation, multi-version kernels, selected-branch control flow.
    - {b MNN} — static-model engine: re-initialization (shape propagation
      + layout selection, schedule tuning, full arena re-allocation) every
      time the input shape changes; tuned kernels; greedy first-fit
      memory; execute-all-paths control flow.
    - {b ONNX Runtime} — native dynamic-shape support (no re-init), per-op
      runtime shape inference, BFC-style pooled allocation with power-of-2
      size binning (the memory overhead driver), generic kernels,
      execute-all-paths.
    - {b TVM + Nimble} — VM with runtime shape functions per operator and
      per-tensor dynamic allocation with no cross-operator reuse, plus the
      resident RPC-application overhead the paper calls out; minimal
      fusion; execute-all-paths.
    - {b TFLite} — re-initialization plus a conservative arena sized for
      the maximum declared input; used by the paper only for fixed-shape
      comparisons and the equal-memory-budget study (XLA-style
      rematerialization under a budget).
    - {b DNNFusion} — the static baseline SoD² extends: full optimization
      with shapes and control flow frozen (Fig. 12).

    The support matrix ({!supports}) mirrors the '-' cells of Tables 5
    and 6. *)

type kind =
  | Sod2_fw
  | Mnn
  | Ort
  | Tvm_nimble
  | Tflite
  | Dnnfusion

val kind_name : kind -> string

val supports : kind -> model:string -> Profile.target -> bool
(** Whether the framework runs the given zoo model on the target — the
    '-' cells of Tables 5 and 6. *)

type breakdown = {
  shape_pass_us : float;  (** SL: shape propagation + layout selection *)
  tuning_us : float;  (** ST: schedule and tuning *)
  alloc_us : float;  (** memory allocation *)
  infer_us : float;  (** kernel execution *)
}

type stats = {
  latency_us : float;
      (** steady-state inference latency, including per-inference overheads
          (runtime shape functions, dynamic allocation, plan
          instantiation) but not per-shape-change re-initialization *)
  peak_bytes : int;  (** intermediate-result memory *)
  bd : breakdown;
  reinit_us : float;
      (** re-initialization cost paid on this run (MNN/TFLite on a shape
          change) — the Table 1 overhead, reported separately exactly as
          the paper separates it *)
  reinitialized : bool;
}

type session

val create :
  ?seed:int -> kind -> Profile.t -> Graph.t ->
  max_dims:(Graph.tensor_id * int list) list -> session
(** Build a session (the one-time compile).  [max_dims] is the largest
    declared input extent — TFLite sizes its conservative arena with it. *)

val run :
  ?control:Executor.control -> session ->
  input_dims:(Graph.tensor_id * int list) list ->
  gate:(Graph.tensor_id -> int) -> stats
(** Simulate one inference.  Sessions are stateful: a shape change
    triggers re-initialization for the frameworks that need it, and pooled
    allocators retain their high-water marks.  [control] overrides the
    framework's native control-flow strategy (used by the
    same-execution-path study of Fig. 9, which disables SoD²'s branch
    selection). *)

val run_with_budget :
  session -> budget_bytes:int -> input_dims:(Graph.tensor_id * int list) list ->
  gate:(Graph.tensor_id -> int) -> stats
(** Like {!run} but capping memory at [budget_bytes]; frameworks exceeding
    it pay an XLA-style rematerialization latency penalty proportional to
    the deficit (Fig. 11's setup). *)

val compiled : session -> Pipeline.compiled

val create_sod2_with_flags :
  Pipeline.opt_flags -> Profile.t -> Graph.t -> session
(** A SoD² session compiled with a subset of the optimizations — the
    ablation configurations of Figs. 5 and 6 ([Pipeline.no_opts] is the
    paper's "No opt" baseline, which still performs the general static
    optimizations). *)
