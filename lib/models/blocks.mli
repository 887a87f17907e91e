(** Shared building blocks for the model zoo.

    A {!t} wraps a {!Graph.Builder} with a seeded weight generator and
    helpers for the composite layers the ten evaluation models share:
    convolution + batch-norm + activation, residual blocks, multi-head
    attention over a symbolic sequence length (driven by
    [Shape → Gather → Concat → Reshape] chains, exactly as ONNX exports of
    transformers look), feed-forward blocks, and gated
    [<Switch, Combine>] sections for the control-flow models. *)

type t

val create : seed:int -> t
val builder : t -> Graph.Builder.t
val finish : t -> outputs:Graph.tensor_id list -> Graph.t

(** {1 Inputs and parameters} *)

val input : t -> name:string -> Shape.t -> Graph.tensor_id
val weight : t -> int list -> Graph.tensor_id
(** Fresh random-normal constant (He-style 0.05 stddev). *)

val const_ints : t -> int list -> Graph.tensor_id
val scalar_i : t -> int -> Graph.tensor_id

val op1 : t -> Op.t -> Graph.tensor_id list -> Graph.tensor_id
(** Append an arbitrary single-output operator (escape hatch for layers the
    helpers below don't cover). *)

val transpose : t -> Graph.tensor_id -> int list -> Graph.tensor_id

(** {1 Primitive layers} *)

val conv2d :
  t -> ?stride:int -> ?pad:int -> ?groups:int -> ?bias:bool ->
  Graph.tensor_id -> cin:int -> cout:int -> k:int -> Graph.tensor_id

val conv1d :
  t -> ?stride:int -> ?pad:int -> ?groups:int ->
  Graph.tensor_id -> cin:int -> cout:int -> k:int -> Graph.tensor_id

val batch_norm : t -> Graph.tensor_id -> channels:int -> Graph.tensor_id
val group_norm : t -> Graph.tensor_id -> channels:int -> groups:int -> Graph.tensor_id
val layer_norm : t -> Graph.tensor_id -> dim:int -> Graph.tensor_id

val relu : t -> Graph.tensor_id -> Graph.tensor_id
val sigmoid : t -> Graph.tensor_id -> Graph.tensor_id
val silu : t -> Graph.tensor_id -> Graph.tensor_id
(** x · sigmoid x, built from [Sigmoid] and [Mul]. *)

val gelu : t -> Graph.tensor_id -> Graph.tensor_id
val add : t -> Graph.tensor_id -> Graph.tensor_id -> Graph.tensor_id
val mul : t -> Graph.tensor_id -> Graph.tensor_id -> Graph.tensor_id
val softmax : t -> ?axis:int -> Graph.tensor_id -> Graph.tensor_id

val max_pool : t -> ?stride:int -> ?pad:int -> k:int -> Graph.tensor_id -> Graph.tensor_id
val global_pool : t -> Graph.tensor_id -> Graph.tensor_id

val linear : t -> Graph.tensor_id -> cin:int -> cout:int -> Graph.tensor_id
(** MatMul with a [cin × cout] weight plus bias — applies to any
    [… × cin] tensor. *)

(** {1 Composite layers} *)

val conv_bn_act :
  t -> ?stride:int -> ?pad:int -> ?act:[ `Relu | `Silu | `None ] ->
  Graph.tensor_id -> cin:int -> cout:int -> k:int -> Graph.tensor_id

val residual_block :
  t -> ?stride:int -> Graph.tensor_id -> cin:int -> cout:int -> Graph.tensor_id
(** Two 3×3 conv-bn layers with identity (or 1×1-projected) shortcut. *)

(** {1 Symbolic shape plumbing} *)

val shape_dim : t -> Graph.tensor_id -> int -> Graph.tensor_id
(** [shape_dim t x i]: 1-element integer tensor holding dim [i] of [x] —
    a [Shape → Gather] chain the RDP analysis resolves symbolically. *)

val reshape_concat :
  t -> Graph.tensor_id -> pieces:Graph.tensor_id list -> Graph.tensor_id
(** Reshape [x] to the concatenation of 1-d integer pieces. *)

(** {1 Attention and transformer blocks} *)

val mha :
  t -> Graph.tensor_id -> hidden:int -> heads:int -> Graph.tensor_id
(** Multi-head self-attention over [1 × S × hidden] with symbolic S. *)

val ffn :
  t -> Graph.tensor_id -> hidden:int -> inner:int -> Graph.tensor_id

val transformer_block :
  t -> Graph.tensor_id -> hidden:int -> heads:int -> inner:int -> Graph.tensor_id
(** Pre-LN transformer layer: LN → MHA → add → LN → FFN → add. *)

(** {1 Control flow} *)

val gate_pred :
  t -> Graph.tensor_id -> channels:int -> branches:int -> Graph.tensor_id
(** Gating subnet: GlobalAveragePool → Flatten → linear → ArgMax, producing
    an integer predicate in [\[0, branches)] that depends on the input
    {e values}. *)

val gated :
  t -> pred:Graph.tensor_id -> Graph.tensor_id ->
  (t -> Graph.tensor_id -> Graph.tensor_id) -> Graph.tensor_id
(** [gated t ~pred x f]: a [<Switch, Combine>] pair routing [x] either
    through the identity skip (branch 0) or through [f] (branch 1). *)

val gated2 :
  t -> pred:Graph.tensor_id -> Graph.tensor_id ->
  (t -> Graph.tensor_id -> Graph.tensor_id) ->
  (t -> Graph.tensor_id -> Graph.tensor_id) -> Graph.tensor_id
(** Two real alternatives (branch 0 = first function). *)
