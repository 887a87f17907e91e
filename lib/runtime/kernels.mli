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
    (MatMul, Gemm, Conv, Conv1d) and large elementwise maps dispatch to
    the blocked/parallel variants; [cls] pins the GEMM shape class when
    the caller resolved it at compile time. *)

val run_into :
  ?backend:Backend.t -> ?cls:Multi_version.shape_class -> Op.t ->
  Tensor.view list -> c:Tensor.fbuf -> co:int -> cap:int -> int list option
(** Destination-passing execution for the arena runtime: evaluate [op]
    over view inputs, writing the single output into [c] at element offset
    [co], and return its dims — but only when the operator has a
    destination-passing kernel {e and} the result occupies exactly [cap]
    elements (the planned slot's capacity).  [None] means nothing was
    written and the caller must run the boxed {!run} path instead.

    Covered operators: Unary, Binary (broadcasting), Clip, BatchNorm,
    MatMul and Conv — the ops that dominate steady-state inference
    traffic.  Everything else (views, reductions, Gemm's transpose
    scratch, I64 semantics) stays on the boxed path by design. *)
