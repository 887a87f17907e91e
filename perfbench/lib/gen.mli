(** Seeded workload generation.  Everything a run feeds the program — the
    shape bindings, the pooled input tensors, the order requests draw from
    the pool and the open-loop arrival schedule — is a function of the
    run's seed alone. *)

type item = {
  binding : int;  (** index into the workload's binding list *)
  env : Env.t;
  inputs : (Graph.tensor_id * Tensor.t) list;
}

val bindings : (string * int list) list -> Env.t list
(** Every combination of the grid's symbol values, first symbol slowest. *)

val pool : seed:int -> Zoo.spec -> Graph.t -> Env.t list -> per_binding:int -> item array
(** [per_binding] distinct random inputs for each binding, in binding order. *)

val order : seed:int -> item array -> n:int -> int array
(** The pool index of each of the first [n] requests: shuffled rounds that
    each visit every binding once, a binding's inputs taking turns. *)

val arrivals : seed:int -> rate:float -> slice_s:float -> slices:int -> float array
(** Arrival offsets in seconds, ascending, over [0, slices × slice_s), with
    [rate × slice_s] arrivals (rounded) in every slice.  Every slice's gaps
    are the same: the exponential distribution's quantiles at the midpoints
    of that many equal-probability strata, scaled to fill the slice — a
    Poisson process's bursts and lulls, stratified — in a seeded order. *)
