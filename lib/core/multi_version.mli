(** Multi-version kernel selection (§4.4.2).

    Input tensors of unknown extent defeat per-shape kernel tuning: one
    version tuned for a representative shape performs poorly on skinny or
    fat problems.  RDP narrows the possible shapes enough that generating a
    handful of versions — the paper uses fat / regular / skinny matrices
    for GEMM and CONV — covers the space.  At run time the observed extents
    pick the version.

    A {!table} holds one tuned {!Autotune.config} per shape class for a
    device; {!efficiency_for} evaluates the selected version on the actual
    problem, and degrades gracefully when versioning is disabled (the
    single generic version is used everywhere). *)

type shape_class =
  | Fat  (** both output extents large *)
  | Regular
  | Skinny  (** one output extent very small *)
  | Tiny  (** whole problem smaller than the packing overhead *)

val class_name : shape_class -> string

val representatives : (shape_class * (int * int * int)) list
(** The canonical (m, n, k) each class is tuned on — what {!build} hands
    the autotuner. *)

val classify : m:int -> n:int -> shape_class
(** Shape class of a GEMM (or implicit-GEMM convolution) output. *)

val classify_gemm : m:int -> n:int -> k:int -> shape_class
(** Like {!classify} but with the contraction depth known: problems with
    [m·n·k ≤ 4096] are {!Tiny} and stay on the naive reference kernel,
    where blocking/packing overhead would dominate. *)

type table

val build : ?seed:int -> Profile.t -> table
(** Tune one kernel version per shape class for the device, each on a
    canonical representative of its class. *)

val single_version : ?seed:int -> Profile.t -> table
(** Baseline without multi-version codegen: one version tuned for the
    regular class only, selected for every shape. *)

val untuned : table
(** The generic default kernel for every class (no tuning at all). *)

val efficiency_for : Profile.t -> table -> m:int -> n:int -> k:int -> float
(** Efficiency of the version this table selects for the given problem. *)

val gemm_dims_of_op :
  Op.t -> in_dims:int list list -> out_dims:int list list ->
  (int * int * int) option
(** The implicit-GEMM extents (m, n, k) of a heavy operator execution;
    [None] for non-heavy operators. *)

val config_for : table -> shape_class -> Autotune.config
