(** Multi-version kernel selection (§4.4.2).

    Input tensors of unknown extent defeat per-shape kernel tuning: one
    version tuned for a representative shape performs poorly on skinny or
    fat problems.  RDP narrows the possible shapes enough that generating a
    handful of versions — the paper uses fat / regular / skinny matrices
    for GEMM and CONV — covers the space.  At run time the observed extents
    pick the version.

    A {!table} holds one tuned {!Autotune.config} per shape class for a
    simulated device; {!efficiency_for} evaluates the selected version on
    the actual problem, and degrades gracefully when versioning is
    disabled (the single generic version is used everywhere).  Only the
    simulators read a table: the host's kernels below have one tiling,
    and take from the shape class only whether packing pays. *)

type shape_class =
  | Fat  (** both output extents large *)
  | Regular
  | Skinny  (** one output extent very small *)
  | Tiny  (** whole problem smaller than the packing overhead *)

val class_name : shape_class -> string

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

(** {1 The heavy-operator kernels}

    MatMul, Gemm, Conv and Conv1d have one destination-passing entry,
    {!heavy_kernel}, which op-by-op execution ([Kernels.run_into]) and a
    fused group's anchor ({!Fused_compile}) both call.  Each problem is
    classified by its own extents when it runs — every GEMM product by
    {!classify_gemm}, a convolution by its im2col GEMM — and one rule
    turns the class into a kernel: the blocked kernels, except on a naive
    backend ([blocked = false]) and for a {!Tiny} problem, where packing
    would cost more than the whole product; both take the naive reference
    loop.  So the kernel a problem runs does not depend on the path that
    reached it. *)

val gemm_kernel : par:Blocked.par -> blocked:bool -> Linalg.gemm_kernel
(** The inner GEMM of that rule: the extents of each product classify
    it. *)

val heavy_kernel :
  ?int8:Quant.qtensor * (unit -> unit) -> par:Blocked.par -> blocked:bool -> Op.t ->
  Tensor.view list -> (int list * Tensor.dtype * (c:Tensor.fbuf -> co:int -> unit)) option
(** [heavy_kernel ~par ~blocked op args] — the dims and float dtype of a
    heavy operator's result over [args] (the bias does not widen a
    convolution), and its kernel, which writes every element of the
    result into [c] at element offset [co].  A Conv1d runs as a Conv of
    unit height; a transposed Gemm operand is copied into pooled scratch
    first.  [None] for any other operator, and for a Gemm whose [C] is
    wider than [A·B], which rounds [A·B] to its own kind first.  Raises
    [Invalid_argument] on shapes the kernels cannot take.

    [int8] is the node's compile-time int8 weight payload, with a hook
    run once per int8 execution.  Off a naive backend, the shapes the
    int8 kernels take — a 2-d MatMul activation and an NCHW Conv — run
    them instead (dynamic-range quantization: the activation is
    quantized per tensor at call time, read in place, and the result is
    float, in the same dims and dtype), Tiny problems included, since
    they have no naive loop.  Any other shape runs the float kernel. *)
