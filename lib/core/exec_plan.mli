(** Static execution (order) planning based on RDP (§4.3).

    Choosing the order in which a DAG's operators execute changes the peak
    size of live intermediate results; finding a memory-optimal order is
    NP-complete, so SoD² partitions the graph and solves each piece with a
    method matched to how much RDP could prove about it:

    - sub-graphs whose tensors all have {e known constant} shapes, and that
      are small enough, get an exact subset-DP search for the
      peak-memory-optimal topological order;
    - sub-graphs with {e mixed known / symbolic / op-inferred} shapes are
      ordered by the same machinery with symbolic sizes evaluated at a
      representative valuation of the shape variables (sizes here are
      monotone affine images of the same symbol set, so a positive sample
      point preserves comparisons);
    - operators with [nac] shapes disable planning and instead become the
      partition boundaries, exactly as the paper observes.

    Scheduling units are fusion groups, not raw nodes — ordering decisions
    below a fused kernel would be meaningless. *)

type strategy =
  | Topological
      (** breadth-first (Kahn/FIFO) order — the eager, serialization-like
          order a planning-oblivious executor follows; the no-planning
          baseline *)
  | Greedy_memory  (** frontier node minimizing live memory after the step *)
  | Optimal_small
      (** exact subset-DP when the sub-graph has at most
          {!exhaustive_limit} groups, greedy otherwise — the SoD² default *)

type sg_kind =
  | All_known  (** every tensor shape a known integer constant *)
  | Mixed of int  (** symbolic/op-inferred shapes; payload = code versions needed *)
  | Has_nac  (** contains an execution-determined shape *)

type subgraph = {
  sgid : int;
  sg_groups : int list;  (** fusion-group ids, in planned execution order *)
  kind : sg_kind;
}

type t = {
  subgraphs : subgraph array;
  order : int list;  (** global execution order of fusion groups *)
  strategy : strategy;
}

val exhaustive_limit : int
(** Largest sub-graph (in groups) solved exactly; 16 keeps the subset DP
    at 2^16 states. *)

val plan :
  ?strategy:strategy -> Graph.t -> Rdp.t -> Fusion.plan -> env:Env.t -> t
(** Partition and order the fused graph.  [env] supplies representative
    values for the shape variables (the planner only uses them to compare
    candidate orders; the resulting order is reused for every concrete
    shape). *)

val simulate_peak_bytes :
  Graph.t -> Rdp.t -> Fusion.plan -> env:Env.t -> order:int list -> int
(** Peak bytes of live materialized intermediates when executing fusion
    groups in [order] under valuation [env] — the planner's objective,
    also used by tests to check optimality claims. *)

val subgraph_kind_counts : t -> (string * int) list
(** Histogram of sub-graph kinds: all-known / mixed (1, 2–4, 5–8 versions)
    / nac — the Fig. 8 breakdown. *)

val pp : Format.formatter -> t -> unit
