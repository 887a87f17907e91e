(** The operator kernels: one entry per operator, on concrete tensors.

    Every float operator with a destination kernel runs through
    {!run_into}; {!run} is the same kernels over a fresh buffer per
    output, so the executor, {!Reference} and guarded fallback compute
    each operator one way.  The heavy operators (MatMul, Gemm, Conv,
    Conv1d) dispatch through {!Multi_version.heavy_into}, the entry fused
    groups' anchors call too.  The remaining operators (integer
    semantics, data-dependent output shapes, the other reductions and
    shuffles) have boxed kernels with ONNX semantics, built on the
    {!Sod2_tensor} primitives.  Control-flow operators ([Switch],
    [Combine]) are {e not} handled here — the executor routes them. *)

val run :
  ?backend:Backend.t -> ?cls:Multi_version.shape_class -> Op.t -> Tensor.t list ->
  Tensor.t list
(** [run op inputs] executes the operator.  An operator {!run_into}
    covers runs there, over a fresh zeroed buffer per output: integer
    operands are cast to F32 first, float operands keep their precision.
    Integer Neg, Abs, Not and Identity, integer-by-integer Binary, and
    Transpose and Split of integer tensors keep integer values, and a
    Gemm whose [C] is wider than [A·B] adds [beta · C] to the [A·B] of its
    own kind; these and every other operator run boxed.

    Raises [Sod2_error.Error]: class [Arity_mismatch] on arity violations
    and on BatchNorm parameters that fit no channel layout, class
    [Unsupported] for the two operators that cannot be interpreted
    without sub-graph support ([If], [Loop]) and for control flow, which
    the executor routes.  Shapes a kernel cannot take raise as
    {!run_into} says.

    Without [backend] every operator runs the naive reference kernel
    (bit-exact, the fallback/golden path).  With one, the heavy operators
    take the blocked kernels of their shape class ([cls] pins it when the
    caller resolved it at compile time) and block programs split over the
    backend's pool. *)

val run_into :
  ?backend:Backend.t -> ?cls:Multi_version.shape_class -> Op.t ->
  Tensor.view list -> dest:(int -> Tensor.dtype -> int list -> Tensor.fbuf * int) ->
  int list list option
(** Destination-passing execution: evaluate [op] over view inputs and
    return each output's dims.  [None] means the operator has no
    destination kernel for these operands (or not this arity): [dest] was
    never called and nothing was written, and the caller runs {!run}
    instead.  Otherwise, for each output [i] in order, it computes the
    dims, calls [dest i dtype dims] exactly once for a buffer and an
    element offset to write that output to ([dtype] is the float kind the
    operands promote to; a convolution's bias does not widen it) and
    writes every element there.  [dest] owns the choice of where results
    go.  Shapes the kernel cannot take raise — [Invalid_argument], or
    [Sod2_error.Error] for conv groups that do not divide the channels
    (class [Shape_mismatch]) and for BatchNorm parameters and Split sizes
    that do not fit (class [Arity_mismatch]) — possibly after [dest] was
    called.

    Covered operators: Unary, Binary (broadcasting), Clip, BatchNorm,
    LayerNorm, Softmax, MatMul, Gemm, Conv, Conv1d, MaxPool, AveragePool,
    GlobalAveragePool, Transpose and Split.  Views write nothing (see
    {!view_dims}). *)

val view_dims : Op.t -> int list -> Tensor.t list -> int list
(** [view_dims op dims rest] — the output dims of a view operator
    (Reshape, Flatten, Squeeze, Unsqueeze) over a data input of [dims];
    [rest] holds its other operands (Reshape's target).  A view shares
    its input's storage, so these dims are all it computes. *)
