(** Reduction and search kernels: axis reductions, argmax/argmin, softmax,
    normalizations, top-k, non-zero and cumulative sum.  Semantics follow
    the ONNX operator specifications. *)

type kind =
  | Sum
  | Mean
  | Max
  | Min
  | Prod
  | L2

val reduce : kind -> Tensor.t -> axes:int list -> keepdims:bool -> Tensor.t
(** Reduce the given axes; [axes = []] reduces all axes. *)

val argmax : Tensor.t -> axis:int -> keepdims:bool -> Tensor.t
(** Integer tensor of indices of the (first) maximum along [axis]. *)

val argmin : Tensor.t -> axis:int -> keepdims:bool -> Tensor.t

val softmax : Tensor.t -> axis:int -> Tensor.t
(** Numerically-stable softmax along [axis]. *)

val log_softmax : Tensor.t -> axis:int -> Tensor.t

val layer_norm : Tensor.t -> gamma:Tensor.t -> beta:Tensor.t -> eps:float -> Tensor.t
(** Normalization over the last axis of a tensor of rank ≥ 1, then
    [* gamma + beta] broadcast against it.  Raises [Invalid_argument] when
    a parameter would broadcast the input to a larger shape. *)

val group_norm : Tensor.t -> groups:int -> gamma:Tensor.t -> beta:Tensor.t ->
  eps:float -> Tensor.t

val top_k : Tensor.t -> k:int -> axis:int -> largest:bool -> Tensor.t * Tensor.t
(** [(values, indices)] of the [k] largest (or smallest) elements along
    [axis], sorted. *)

val nonzero : Tensor.t -> Tensor.t
(** ONNX [NonZero]: integer tensor of shape [rank × count] holding the
    multi-indices of non-zero elements in row-major order. *)

val cumsum : Tensor.t -> axis:int -> Tensor.t
