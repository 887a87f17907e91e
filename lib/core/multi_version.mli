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

(** {1 The heavy-operator kernels}

    MatMul, Gemm, Conv and Conv1d have one destination-passing entry,
    {!heavy_into}, which op-by-op execution ([Kernels.run_into]) and a
    fused group's anchor ({!Fused_compile}) both call, so the kernel
    a problem runs does not depend on the path that reached it.  A
    problem runs the blocked kernel tuned for its shape class, except
    that a naive backend ([versions = None]) and a {!Tiny} problem take
    the naive reference loop. *)

val tiles : table -> shape_class -> Blocked.tiles
(** The blocked tile extents of the version [table] holds for a class. *)

val gemm_kernel : ?cls:shape_class -> par:Blocked.par -> table option -> Linalg.gemm_kernel
(** The inner GEMM of that rule; [cls] pins the class (compile-time
    resolution), otherwise the extents of each product classify it. *)

val conv_class :
  stride:int * int -> pad:int * int * int * int -> dilation:int * int -> int list ->
  int list -> shape_class
(** The class of a 2-d convolution's im2col GEMM over NCHW input dims
    against OIHW weight dims. *)

val heavy_result : Op.t -> Tensor.view list -> (int list * Tensor.dtype) option
(** The dims and float dtype of a heavy operator's result over the
    operands (the bias does not widen a convolution).
    [None] for any other operator, and for a Gemm whose [C] is wider than
    [A·B], which rounds [A·B] to its own kind first.  Raises
    [Invalid_argument] on shapes the kernels cannot take. *)

val heavy_into :
  ?cls:shape_class -> par:Blocked.par -> table option -> Op.t -> Tensor.view list ->
  c:Tensor.fbuf -> co:int -> unit
(** [heavy_into ~par versions op args ~c ~co] writes the result of the
    heavy operator [op] over [args] into [c] at element offset [co]
    (every element is overwritten).  [cls] pins the shape class;
    otherwise the concrete extents classify the problem.  A Conv1d runs
    as a Conv of unit height. *)
