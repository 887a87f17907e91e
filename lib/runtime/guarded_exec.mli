(** Guarded execution with graceful degradation.

    SoD²'s fusion, execution and memory plans are all derived from the RDP
    facts, so one wrong dimension prediction — or a corrupted plan — would
    silently corrupt an arena execution.  Guarded execution is a policy
    over the one plan-following interpreter ({!Executor}), with
    {!Reference} as the one fallback:

    - {b vet}: every plan a guarded run follows — evaluated from [env]
      or injected — is vetted ({!Pipeline.vet_plan}, O(n²) per run: this
      is the opt-in checked mode).  Each defect is an incident, and a
      plan with defects runs boxed (["arena-fallback-malloc"]) instead of
      on the arena.
    - {b run}: the executor follows the plan with the RDP cross-check on:
      every tensor produced at a fused-group boundary must have the dims
      RDP predicts under the symbol {!Env}.
    - {b else re-run}: if the attempt raises (a dims disagreement, a
      faulty kernel, a group consuming a value the plan never produced)
      or leaves a graph output unproduced (a truncated plan), the whole
      request re-runs on {!Reference.run}; nothing from the failed attempt
      leaks into the answer.

    Every incident is recorded in the report and in the process-global
    {!Profile.Counters}, giving production monitoring a fallback-health
    signal.  The fault-injection suite verifies that each corruption kind
    is caught and that degraded execution still matches {!Reference.run}
    bit-for-bit. *)

type fault_kind =
  | Arena_bounds  (** allocation outside the arena (or misaligned) *)
  | Plan_overlap  (** two allocations overlap in space while both live *)
  | Size_mismatch  (** planned byte size disagrees with the RDP size *)
  | Dim_mismatch  (** executed dims disagree with the RDP prediction under [env] *)
  | Truncated_plan
      (** the plan left a graph output, or a value an executed group
          consumes, unproduced *)
  | Kernel_fault  (** a kernel raised while executing the plan *)

val fault_name : fault_kind -> string

type incident = {
  kind : fault_kind;
  detail : string;
}

type report = {
  outputs : (Graph.tensor_id * Tensor.t) list;
  incidents : incident list;  (** in detection order *)
  planned_groups : int;  (** groups executed through the plan; 0 after a fallback *)
  demoted_nodes : int;
      (** nodes of the graph re-run by {!Reference} — the whole graph
          after a fallback, 0 on a clean run *)
  arena_bytes : int;
  arena_resident : int;  (** tensors that lived in the arena *)
}

val run :
  ?config:Executor.config ->
  ?mem_plan:Mem_plan.t ->
  ?arena:Arena.t ->
  ?kernel_hook:(gid:int -> node:Graph.node_id -> unit) ->
  ?backend:Backend.t ->
  Pipeline.compiled ->
  env:Env.t ->
  inputs:(Graph.tensor_id * Tensor.t) list ->
  report
(** Execute under guards.

    [config] (default {!Executor.default_config}) supplies the backend
    (a non-naive one is created and shut down per run unless [backend]
    is given) and [control]; its [memory] and [guarded] fields do not
    apply — guarded runs always follow the plan over an arena ([arena],
    persistent across calls, or a fresh one) with the cross-check on
    ({!Executor.run_real} under [{ config with guarded = true }]).

    [mem_plan] replaces the plan evaluated from [env] and is vetted like
    it (the fault-injection seam).  [kernel_hook] runs before
    each executed group's members and may raise to simulate a faulty
    specialized kernel.  Never raises on plan corruption; raises
    [Sod2_error.Error] only when [inputs] leaves a graph input unbound
    ({!Validate.check_inputs}, before any attempt) or {!Reference.run}
    cannot compute a graph output either (malformed graph). *)
