(** Summary statistics for benchmark samples, and the two rules that
    decide what a pair of benchmark run sets shows: a claimed gain (the
    pair-win rule) and a regression beyond a metric's bound. *)

val median : float list -> float
val mean : float list -> float
(** Both raise [Invalid_argument] on an empty list. *)

val quartiles : float list -> float * float * float
(** [(q1, q2, q3)] exactly as Python's [statistics.quantiles(xs, n=4)]
    computes them (the default "exclusive" method, with its index
    clamping); a single sample is its own three quartiles.  [q2] is the
    median. *)

val spread : float list -> float
(** Interquartile distance as a share of the median: [(q3 - q1) / |q2|]. *)

val percentile : float list -> float -> float
(** [percentile xs p] — nearest-rank [p]-th percentile ([p] in 0..100):
    the [ceil (p/100 × n)]-th smallest sample. *)

val samples_beyond : n:int -> float -> int
(** Samples strictly above the nearest-rank [p]-th percentile of [n]. *)

val tail_supported : n:int -> float -> bool
(** The tail-percentile rule: a percentile may be reported as the tail of
    [n] samples only when at least ten samples lie beyond it. *)

type better = Lower | Higher

val better_of_string : string -> better option
(** ["lower"] or ["higher"], as written in [BENCHMARK.json]. *)

type gain = { wins : int; pairs : int; claimed : bool }

val pair_win : better -> parent:float list -> change:float list -> gain
(** The pair-win rule over runs paired in order: a gain is [claimed] only
    when the change wins at least nine tenths of the pairs (ties count for
    neither side) and the medians differ, in the better direction, by more
    than the parent's interquartile distance.  Raises [Invalid_argument]
    unless both lists are non-empty and equally long. *)

type verdict = Within | Regressed | Unresolved

val verdict_name : verdict -> string

val worse_by : better -> parent:float list -> change:float list -> float
(** How much worse the change's median is than the parent's, as a share of
    the parent's median (negative when it is better). *)

val regression : better -> bound:float -> parent:float list -> change:float list -> verdict
(** The regression-bound check.  [Regressed] when the change's median is
    worse than the parent's by more than [bound] (a share of the parent's
    median).  When either side's {!spread} exceeds [bound] the sets cannot
    resolve a change that small: the verdict is [Unresolved], unless every
    change run reads better than every parent run. *)
