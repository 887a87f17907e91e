(** Reference kernels: execute one operator node on concrete tensors.

    This is the interpreter {!Executor.run_real} uses; every operator
    of the IR has a kernel here with ONNX semantics, built on the
    {!Sod2_tensor} primitives.  Control-flow operators ([Switch],
    [Combine]) are {e not} handled here — the executor routes them. *)

val run :
  ?backend:Backend.t -> ?cls:Multi_version.shape_class -> Op.t -> Tensor.t list ->
  Tensor.t list
(** [run op inputs] executes the operator.  Raises [Sod2_error.Error]:
    class [Arity_mismatch] on arity violations, class [Unsupported] for the
    two operators that cannot be interpreted without sub-graph support
    ([If], [Loop]) and for control flow, which the executor routes.  The
    tensor primitives may still raise [Invalid_argument] on shape
    violations inside an operator.

    Without [backend] every operator runs the naive reference kernel
    (bit-exact, the fallback/golden path).  With one, the heavy operators
    (MatMul, Gemm, Conv, Conv1d) dispatch to the blocked/parallel
    variants; [cls] pins the GEMM shape class when the caller resolved it
    at compile time.  Elementwise maps are sequential here; the executor
    runs float ones through {!run_into}, whose block programs split over
    the backend's pool. *)

val run_into :
  ?backend:Backend.t -> ?cls:Multi_version.shape_class -> Op.t ->
  Tensor.view list -> dest:(int -> Tensor.dtype -> int list -> Tensor.fbuf * int) ->
  int list list option
(** Destination-passing execution: evaluate [op] over view inputs and
    return each output's dims.  It first checks that the operator has a
    destination kernel and that the operand shapes fit it; [None] means
    that check failed, [dest] was never called and nothing was written —
    the caller runs the boxed {!run} instead.  Otherwise, for each output
    [i] in order, it computes the dims, calls [dest i dtype dims] exactly
    once for a buffer and an element offset to write that output to
    ([dtype] is the float kind {!run} would store it in) and writes every
    element there.  [dest] owns the choice of where results go.

    Covered operators: Unary, Binary (broadcasting), Clip, BatchNorm,
    LayerNorm, Softmax, MatMul, Conv, Conv1d, MaxPool, AveragePool,
    GlobalAveragePool, Transpose and Split — the ops that dominate
    steady-state inference traffic.  Views write nothing (see
    {!view_dims}); everything else (other reductions and shuffles, Gemm's
    transpose scratch, I64 semantics) stays on the boxed path. *)

val view_dims : Op.t -> int list -> Tensor.t list -> int list
(** [view_dims op dims rest] — the output dims of a view operator
    (Reshape, Flatten, Squeeze, Unsqueeze) over a data input of [dims];
    [rest] holds its other operands (Reshape's target).  A view shares
    its input's storage, so these dims are all it computes. *)
