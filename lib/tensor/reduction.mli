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

val softmax_into : axis:int -> Tensor.view -> c:Tensor.fbuf -> co:int -> unit
(** [softmax_into ~axis x ~c ~co] writes the softmax of [x] along [axis]
    (negative counts from the end) into [c] at [co], bit for bit the chain
    max, [exp (x − max)] stored, sum stored, quotient stored — each
    intermediate rounded in the destination's kind.  [c] may be [x]'s own
    window.  Raises [Invalid_argument] on an axis out of range. *)

val log_softmax : Tensor.t -> axis:int -> Tensor.t

val layer_norm_into :
  eps:float -> Tensor.view -> gamma:Tensor.view -> beta:Tensor.view -> c:Tensor.fbuf ->
  co:int -> unit
(** Normalization over the last axis of the input view (rank ≥ 1), then
    [* gamma + beta] broadcast against it, into [c] at [co] in the dtype
    the three operands promote to; [c] may be the input's own window.
    Raises [Invalid_argument] unless both parameter shapes broadcast to
    exactly the input's. *)

val group_norm : Tensor.t -> groups:int -> gamma:Tensor.t -> beta:Tensor.t ->
  eps:float -> Tensor.t

val top_k : Tensor.t -> k:int -> axis:int -> largest:bool -> Tensor.t * Tensor.t
(** [(values, indices)] of the [k] largest (or smallest) elements along
    [axis], sorted. *)

val nonzero : Tensor.t -> Tensor.t
(** ONNX [NonZero]: integer tensor of shape [rank × count] holding the
    multi-indices of non-zero elements in row-major order. *)

val cumsum : Tensor.t -> axis:int -> Tensor.t
