(** Layout- and index-transforming kernels: transpose, slice, concat, split,
    gather, pad, tile, one-hot, range, where.  Semantics follow the
    ONNX operator specifications. *)

val transpose : Tensor.t -> int list -> Tensor.t
(** [transpose t perm] permutes axes; [perm] must be a permutation of
    [0 .. rank-1]. *)

val slice :
  Tensor.t -> starts:int list -> ends:int list -> axes:int list ->
  ?steps:int list -> unit -> Tensor.t
(** ONNX [Slice] with clamping of out-of-range bounds and negative
    indices. *)

val slice_window :
  int array -> starts:int list -> ends:int list -> axes:int list -> steps:int list ->
  int * int array * int array
(** Where {!slice} reads in a contiguous source of these dims: the first
    element's offset, the stride per result axis and the result dims.
    Raises [Invalid_argument] on a step of 0 or a read outside. *)

val concat : Tensor.t list -> axis:int -> Tensor.t
(** Raises [Sod2_error.Error] (class [Shape_mismatch]) when the operands
    differ off the axis. *)

val concat_dims : int list list -> axis:int -> int * int list
(** The normalized axis and result dims of {!concat} over operands of
    these dims, with its checks. *)

val split : Tensor.t -> axis:int -> sizes:int list -> Tensor.t list

val gather : Tensor.t -> indices:Tensor.t -> axis:int -> Tensor.t
(** ONNX [Gather]: output rank = rank(data) - 1 + rank(indices); negative
    indices count from the end of the gathered axis. *)

val pad : Tensor.t -> before:int list -> after:int list -> value:float -> Tensor.t

val tile : Tensor.t -> repeats:int list -> Tensor.t

val where : Tensor.t -> Tensor.t -> Tensor.t -> Tensor.t
(** [where cond a b]: elementwise select with broadcasting; [cond] is an
    integer mask. *)

val one_hot : Tensor.t -> depth:int -> Tensor.t
(** Indices → one-hot float tensor with a trailing [depth] axis. *)

val range : start:int -> limit:int -> delta:int -> Tensor.t
(** 1-d integer tensor [start, start+delta, …) strictly before [limit]. *)

val depth_to_space : Tensor.t -> block:int -> Tensor.t
(** ONNX [DepthToSpace] (DCR mode) on NCHW. *)

val space_to_depth : Tensor.t -> block:int -> Tensor.t
