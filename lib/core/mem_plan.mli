(** Memory allocation planning (§4.4.1).

    A memory plan places every materialized intermediate tensor at a fixed
    offset of one linear arena such that tensors with overlapping lifetimes
    never overlap in space.  Offsets are computed from the execution order
    (lifetimes) and the RDP sizes.  Placement runs once, at compile time,
    at a representative binding of the shape variables; it leaves an order
    on the slots, and at inference time each offset is the sum of sizes
    affine in the shape variables along that order — an evaluation, not a
    search, unlike the per-tensor dynamic allocation of runtime solutions
    like Nimble.

    Three strategies are provided:

    - [Greedy_first_fit] — allocate tensors in execution order into the
      lowest fitting hole (the strategy of MNN and the memory-pool
      literature the paper cites);
    - [Peak_first] — SoD²'s plan: find the execution step with peak live
      bytes, place the tensors live at that step first, then traverse
      outward in both directions, reusing slots by best fit.  The paper
      reports this reaches ≈1.05× of the optimum where greedy reaches
      ≈1.16×;
    - [Optimal_search] — exhaustive permutation search (small counts
      only), used to measure the two heuristics' optimality gaps. *)

type strategy =
  | Greedy_first_fit
  | Peak_first
  | Optimal_search

type alloc = {
  tid : Graph.tensor_id;
  offset : int;  (** byte offset in the arena *)
  size : int;  (** bytes *)
  first_step : int;  (** index in the execution order when produced *)
  last_step : int;  (** index of the last consuming step *)
  elem : int;
      (** bytes per element the slot was sized with — the plan's float
          dtype unless the tensor carries a dtype override (I64 values,
          int8 payloads); executors must only place a tensor in a slot
          whose element size matches its storage *)
}

type t = {
  allocs : alloc array;
      (** by tensor id from {!plan}, in placement order from {!instantiate} *)
  dynamic : Graph.tensor_id list;
      (** tensors with execution-determined sizes, left to runtime malloc *)
  arena_bytes : int;
  strategy : strategy;
}

val plan :
  ?strategy:strategy -> ?elem:int -> ?elem_of:(Graph.tensor_id -> int option) ->
  Graph.t -> Rdp.t -> Fusion.plan ->
  order:int list -> env:Env.t -> t
(** Compute the plan for executing fusion groups in [order] with shape
    variables bound by [env].  [elem] is the byte size of the float dtype
    the arena will hold (default [Tensor.bytes_per_elem Tensor.F32]);
    every slot size is [elem × numel] unless [elem_of] overrides the
    element size for a tensor (statically non-float values — I64 shape
    results, int8 payloads — get truthfully-sized slots instead of
    float-sized ones; see {!slot_bytes} for the padding rule).
    A full placement at one binding: the reference the evaluated
    {!instantiate} is compared against, and what {!plan_symbolic} runs
    once at its compile binding. *)

val slot_bytes : plan_elem:int -> elem:int -> int -> int
(** [slot_bytes ~plan_elem ~elem numel] — the bytes a plan reserves for a
    [numel]-element tensor: exactly [elem × numel] when [elem] is the
    plan's float element size, padded up to an 8-byte multiple otherwise
    so dtype-override slots never knock later offsets off the float
    grid. *)

(** {1 Symbolic plans (§4.4.1, static half)}

    The product of lifetime analysis and one placement: per materialized
    tensor, its RDP shape (dims as affine {!Expr}s over the shape
    variables), its execution-step live range and the earlier slots it
    sits above.  Every activation materializes except an alias (the
    output of a view, Switch or Combine), which shares its source's
    storage: group-internal tensors are planned too, live for their
    group's step, because a group that runs op by op writes them.  Each
    alias root lives until the last consumer of any alias reaching it.

    Computed once at compile time by placing the entries at a
    representative binding; every pair of entries whose lifetimes overlap
    is then ordered by that placement's offsets.  {!instantiate} turns it
    into a concrete {!t} by affine evaluation of the sizes and one
    longest-path pass over that order — no placement, no graph traversal,
    no re-analysis.  Because every lifetime-overlapping pair is ordered,
    no binding can put two live slots on the same bytes. *)

type sym_entry = {
  se_tid : Graph.tensor_id;
  se_shape : Shape.t;  (** RDP shape; dims are affine in the shape syms *)
  se_numel : Expr.t option;  (** affine element count, when representable *)
  se_first : int;
  se_last : int;
  se_elem : int option;  (** element-size override; [None] = [sym_elem] *)
  se_preds : int array;
      (** positions in [sym_entries] of the earlier entries whose lifetimes
          overlap this one: the slots it is stacked above *)
}

type symbolic = {
  sym_entries : sym_entry array;
      (** the entries resolved at the compile binding, sorted by (offset
          there, tensor id) *)
  sym_dynamic : sym_entry list;
      (** entries unresolved at the compile binding: left to runtime
          malloc at every binding *)
  sym_alias : (Graph.tensor_id * Graph.tensor_id) list;
      (** [(alias, root)] for every alias with exactly one root entry: the
          alias's value sits in [root]'s slot.  An alias reaching several
          roots (through a Combine) takes its slot at run time. *)
  sym_out_shared : bool array;
      (** by tensor id: a graph output shares this tensor's storage (the
          outputs and their view, Switch and Combine alias chains), so
          the executor gives it a fresh buffer, never a slot *)
  sym_strategy : strategy;
  sym_elem : int;  (** bytes per element of the float dtype planned for *)
}

val plan_symbolic :
  ?strategy:strategy -> ?elem:int -> ?elem_of:(Graph.tensor_id -> int option) ->
  Graph.t -> Rdp.t -> Fusion.plan ->
  order:int list -> env:Env.t -> symbolic
(** The compile-time half: lifetimes, one placement with [strategy] at the
    representative binding [env], and the order it induces.  [elem]
    (default 4, f32) fixes the element size all slot bytes derive from;
    [elem_of] overrides it per tensor (default: no overrides). *)

val instantiate : symbolic -> env:Env.t -> t
(** The runtime half, O(entries + order edges): each entry's size is the
    {!slot_bytes} of its element count under [env] (zero when a
    degenerate binding drives it to zero or below), its offset the
    highest [offset + size] among its predecessors (0 with none), and
    the arena the highest [offset + size] overall.  Entries that stay
    unresolved under [env] join the plan's [dynamic] list.  Every call
    returns a fresh plan. *)

val plan_raw : strategy -> lifetimes:(int * int * int) list -> t
(** Place raw [(bytes, first_step, last_step)] lifetimes (tensor ids are
    the list positions) into a full plan — {!arena_for} keeping the
    placement, for property tests over {!validate}. *)

val live_peak_bytes : t -> int
(** Sum of sizes of simultaneously-live tensors at the worst step — the
    lower bound any placement must reach. *)

(** {1 Vetting} *)

type defect =
  | Out_of_arena of alloc
      (** lies outside [\[0, arena_bytes)], or its offset or size is off
          the plan's element grid *)
  | Wrong_size of alloc * int list
      (** planned bytes disagree with the RDP-predicted dims *)
  | Overlap of alloc * alloc  (** share bytes while both are live *)

val has_slot : elem:int -> alloc -> bool
(** Does an executor place this allocation in the arena?  Exactly the
    non-empty allocations sized in the plan's float element size [elem];
    zero-size allocations and dtype-override ones (I64 values on an f32
    plan) are not defects, they simply run boxed. *)

val vet : ?elem:int -> ?predicted:(Graph.tensor_id -> int list option) -> t -> defect list
(** The one rule for a well-formed instantiated plan.  With [elem] (the
    plan's float element size) only {!has_slot} allocations are vetted
    and must sit on the [elem] grid; without it every non-empty
    allocation is.  [predicted tid] (default: none) supplies RDP dims to
    check planned sizes against.  Overlap is checked pairwise among the
    in-bounds allocations — O(n²), so it guards injected plans and
    guarded runs rather than every request.  [[]] means well-formed. *)

val defect_message : defect -> string

val validate : t -> (unit, string) result
(** [vet] without element size or predictions, as a result: the first
    defect's message, if any. *)

val arena_for :
  strategy -> lifetimes:(int * int * int) list -> int
(** [arena_for strategy ~lifetimes] places raw [(bytes, first_step,
    last_step)] lifetimes (e.g. from an execution trace) and returns the
    arena size — the building block the framework simulators use for their
    per-inference memory accounting. *)

val pack :
  [ `First_fit | `Best_fit ] -> lifetimes:(int * int * int) list -> int list * int
(** [pack fit ~lifetimes] places raw [(bytes, first_step, last_step)]
    lifetimes in the given order with the chosen hole-selection rule and
    returns the per-tensor offsets (in input order) plus the arena size.
    Exposed so placement policies can be compared directly in tests. *)

val pp : Format.formatter -> t -> unit
val pp_symbolic : Format.formatter -> symbolic -> unit
