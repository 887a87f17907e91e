(** Reference topological interpreter.

    Executes a graph directly — no fusion, no execution plan, no arena:
    nodes run in insertion (topological) order, every tensor is boxed, and
    [<Switch, Combine>] routes the selected branch only.  This is the one
    fallback — {!Guarded_exec} re-runs a request here when a runtime guard
    fires, and {!Engine} when a breaker is open — and the oracle the
    fault-injection tests compare against: it depends on nothing the optimizer produced, so a corrupted
    plan cannot corrupt it. *)

(** {1 Scalar int8 reference}

    Direct zero-point-subtracting loop nests — written without {!Quant}
    or [Blocked], so the qcheck bit-exactness suites compare the packed
    kernels' accumulators against a genuinely separate derivation. *)

val gemm_i8_acc :
  za:int -> zb:int -> m:int -> n:int -> k:int -> Tensor.t -> Tensor.t ->
  int array
(** Row-major corrected accumulators of the quantized product of two
    {!Tensor.I8} tensors: [acc(i,j) = Σ_p (a(i,p)-za)·(b(p,j)-zb)]. *)

val conv2d_i8_acc :
  zx:int -> zw:int -> stride:int * int -> pad:int * int * int * int ->
  dilation:int * int -> groups:int -> Tensor.t -> Tensor.t ->
  int array * int list
(** Direct quantized NCHW/OIHW convolution accumulators plus the output
    dims [N;M;Oh;Ow]; out-of-image taps contribute zero (zero-point
    padding semantics). *)

val run :
  Graph.t -> inputs:(Graph.tensor_id * Tensor.t) list ->
  (Graph.tensor_id * Tensor.t) list
(** Interpret the graph on the given input tensors and return the graph
    output tensors.  Raises [Sod2_error.Error] (class [Invalid_graph],
    {!Validate.check_inputs}) when [inputs] leaves a graph input unbound,
    and (class [Plan_violation]) when a graph output was never produced —
    e.g. a malformed graph whose selected branch never reaches the
    output. *)
