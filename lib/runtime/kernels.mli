(** The operator kernels: one entry per operator, on concrete tensors.

    Every float operator with a destination kernel runs through
    {!run_into}; {!run} is the same kernels over a fresh buffer per
    output, so the executor, {!Reference} and guarded fallback compute
    each operator one way.  The heavy operators (MatMul, Gemm, Conv,
    Conv1d) dispatch through {!Multi_version.heavy_kernel}, the entry fused
    groups' anchors call too.  The remaining operators (integer
    semantics, data-dependent output shapes, the other reductions and
    shuffles) have boxed kernels with ONNX semantics, built on the
    {!Sod2_tensor} primitives; they read their operands in place, and
    only the views (Reshape, Flatten, Squeeze, Unsqueeze) and integer
    Identity return storage an operand shares.  Control-flow operators
    ([Switch], [Combine]) are {e not} handled here — the executor routes
    them. *)

val run :
  ?backend:Backend.t -> Op.t -> Tensor.t list -> Tensor.t list
(** [run op inputs] executes the operator.  An operator {!run_into}
    covers runs there, over a fresh zeroed buffer per output: integer
    data operands are cast to F32 first, float operands keep their
    precision.  Integer Neg, Abs, Not and Identity, integer-by-integer
    Binary, and the shuffles and Casts of integer tensors keep integer
    values, and a Gemm whose [C] is wider than [A·B] adds [beta · C] to
    the [A·B] of its own kind; these and every other operator run boxed.

    Raises [Sod2_error.Error]: class [Arity_mismatch] on arity violations
    and on BatchNorm or GroupNorm parameters that fit no channel layout, class
    [Unsupported] for the two operators that cannot be interpreted
    without sub-graph support ([If], [Loop]) and for control flow, which
    the executor routes.  Shapes a kernel cannot take raise as
    {!run_into} says.

    Without [backend] every operator runs the naive reference kernel
    (bit-exact, the fallback/golden path).  With one, the heavy operators
    take the kernels of their problem's shape class and block programs
    split over the backend's pool. *)

val run_into :
  ?backend:Backend.t -> ?int8:Quant.qtensor -> ?ints:Tensor.t list -> Op.t ->
  Tensor.view list -> dest:(int -> Tensor.dtype -> int list -> Tensor.fbuf * int) ->
  int list list option
(** Destination-passing execution: evaluate [op] over view inputs and
    return each output's dims; [ints] are its integer parameters, boxed
    ({!split_operands}).  [None] means the operator has no
    destination kernel for these operands (or not this arity): [dest] was
    never called and nothing was written, and the caller runs {!run}
    instead.  Otherwise, for each output [i] in order, it computes the
    dims, calls [dest i dtype dims] exactly once for a buffer and an
    element offset to write that output to ([dtype] is the float kind the
    operands promote to, or a Cast's target; a convolution's bias does
    not widen it) and writes every element there.  [dest] owns the
    choice of where results go.  Shapes the kernel cannot take raise —
    [Invalid_argument], or [Sod2_error.Error] for conv groups that do not
    divide the channels, Concat operands that differ off the axis and
    Gather indices outside the axis (class [Shape_mismatch]) and for
    BatchNorm or GroupNorm parameters and Split sizes that do not fit
    (class [Arity_mismatch]) — possibly after [dest] was called.

    [int8] is the node's int8 weight payload ([Pipeline.int8_weight]): on
    a non-naive backend a MatMul or Conv whose operands the int8 kernels
    accept runs them (the int8 arm of {!Multi_version.heavy_kernel}),
    reading the activation and bias in place and counting one
    ["quant-kernel"]; any other shape, and every naive run, takes the
    float kernel.

    Covered operators: Unary, Binary (broadcasting), Clip, BatchNorm,
    LayerNorm, GroupNorm, InstanceNorm, Softmax, MatMul, Gemm, Conv,
    Conv1d, MaxPool, AveragePool, GlobalAveragePool, Transpose, Split,
    Concat, Slice, Gather, nearest Resize and Upsample, and a Cast to a
    float kind.  Views write nothing (see {!view_dims}). *)

val split_operands : Op.t -> 'a list -> 'a list * 'a list
(** [(data, ints)]: the operands {!run_into} reads as views, and the
    integer parameters (Slice bounds, Gather indices, Resize sizes). *)

val view_dims : Op.t -> int list -> Tensor.t list -> int list
(** [view_dims op dims rest] — the output dims of a view operator
    (Reshape, Flatten, Squeeze, Unsqueeze) over a data input of [dims];
    [rest] holds its other operands (Reshape's target).  A view shares
    its input's storage, so these dims are all it computes. *)
