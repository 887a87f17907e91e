(** Control-region discovery over the [<Switch, Combine>] EDO pair.

    A {e gate} is one run-time branch decision: a predicate tensor together
    with every Switch it drives and every Combine that merges the branches
    back.

    Discovery also assigns every node its {e branch constraints}: the set
    of [(gate, branch)] pairs that must all be selected for the node to
    execute.  Constraints propagate forward from Switch outputs and are
    discharged at the gate's Combine, so nodes after the merge are
    unconditional again.  The executor checks them ({!live_node}) against
    the branches its Switches have taken so far, so choosing which groups
    of the one static order run is a lookup, not a scan of their inputs. *)

type gate = {
  g_id : int;  (** index of this gate in {!t.gates} and in outcome arrays *)
  g_pred : Graph.tensor_id;  (** the predicate tensor all members share *)
  g_branches : int;  (** branch count (max across the gate's Switches) *)
  g_switches : Graph.node_id list;  (** Switch nodes driven by the predicate *)
  g_combines : Graph.node_id list;  (** paired Combine nodes *)
}

type t = {
  gates : gate array;  (** in topological (first-Switch) order *)
  node_constraints : (int * int) list array;
      (** per node id: the [(gate, branch)] selections required for the
          node to execute; [[]] = unconditional *)
}

val discover : Graph.t -> t
(** Group the graph's control flow into gates and propagate branch
    constraints.  Linear in graph size; safe on gate-free graphs (zero
    gates, every constraint set empty). *)

val gate_count : t -> int

val constraints : t -> Graph.node_id -> (int * int) list
(** The node's required [(gate, branch)] selections. *)

val live_node : t -> outcome:int array -> Graph.node_id -> bool
(** Does the node execute under [outcome]?  [outcome.(g)] is the branch
    gate [g] selects, or [-1] to leave the gate open (the node then counts
    as live: a gate whose Switch has not run yet constrains nothing).
    Gates beyond the array's length are treated as open. *)

val gate_of_switch : t -> Graph.node_id -> int option
(** The gate a Switch node belongs to, when it belongs to one. *)

val pp : Format.formatter -> t -> unit
