(** Graph well-formedness validation.

    [check] inspects a frozen {!Graph.t} and reports {e every} defect it
    finds as a structured {!Sod2_error.t} instead of dying on the first:

    - dangling / undefined tensor ids (node inputs, node outputs, declared
      graph outputs) and producer/output table inconsistencies;
    - arity violations per operator (the same rule table
      {!Graph.Builder.finish} enforces) and operator/output-count
      disagreements;
    - dtype consistency per {!Op_class}: a constant feeding an operator
      input whose {e value} determines the output shape
    ({!Op_class.value_inputs}) must be an integer tensor;
    - cycles and topological-order violations;
    - [<Switch, Combine>] control-flow pairing: every [Switch] branch must
      be consumed (or be a graph output) and every [Combine] must merge a
      [Switch] with the same branch count driven by the same predicate.

    {!Pipeline.compile} runs this validator on every graph before any
    analysis, so a malformed graph surfaces as a readable report rather
    than a crash deep inside RDP or the planners. *)

val check : Graph.t -> (unit, Sod2_error.t list) result
(** All defects, in detection order. *)

val check_exn : Graph.t -> unit
(** Raise [Sod2_error.Error] with the first defect, if any. *)

val check_inputs : Graph.t -> (Graph.tensor_id * 'a) list -> unit
(** Raise [Sod2_error.Error] (class [Invalid_graph]) naming the first graph
    input, in {!Graph.inputs} order, that the [(tensor, value)] bindings
    leave unbound.  The run-time twin of {!check}: {!Executor.run_real}
    and {!Reference.run} call it before interpreting anything, so a
    request missing an input fails with a report instead of a partial
    answer. *)

val report : Sod2_error.t list -> string
(** Multi-line human-readable rendering of a defect list. *)
