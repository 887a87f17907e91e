(** The computational-graph IR: a DAG of operator nodes connected by
    tensors, extended with the [<Switch, Combine>] control-flow pair
    (the paper's "extended computational graph" G).

    Graphs are built with the mutable {!Builder} and then frozen; node
    insertion order is a valid topological order by construction. *)

type tensor_id = int
type node_id = int

type tensor_kind =
  | Input of Shape.t  (** graph input with its (possibly symbolic) shape *)
  | Const of Tensor.t  (** weight or other compile-time constant *)
  | Activation  (** produced by a node at run time *)

type tensor_info = {
  tid : tensor_id;
  tname : string;
  kind : tensor_kind;
  producer : node_id option;  (** [None] for inputs and constants *)
}

type node = {
  nid : node_id;
  op : Op.t;
  inputs : tensor_id list;
  outputs : tensor_id list;
  nname : string;
}

type t

val arity_error : node -> string option
(** [arity_error nd] is [Some message] when the node's input count violates
    its operator's arity rule.  Shared by {!Builder.finish} and
    {!Validate.check}. *)

(** {1 Building} *)

module Builder : sig
  type graph := t
  type t

  val create : unit -> t

  val input : t -> name:string -> Shape.t -> tensor_id
  (** Declare a graph input.  Symbolic dims in the shape become the free
      shape variables of the model. *)

  val const : t -> name:string -> Tensor.t -> tensor_id

  val node : t -> ?name:string -> Op.t -> tensor_id list -> tensor_id list
  (** Append an operator node consuming the given tensors; returns its
      output tensor ids ({!Op.n_outputs} of them). *)

  val node1 : t -> ?name:string -> Op.t -> tensor_id list -> tensor_id
  (** Like {!node} for single-output operators. *)

  val set_outputs : t -> tensor_id list -> unit

  val finish : t -> graph
  (** Freeze and validate; raises [Sod2_error.Error] (classes
      [Invalid_graph] / [Arity_mismatch]) on malformed graphs — undefined
      tensors, arity violations, missing outputs. *)

  val finish_unchecked : t -> graph
  (** Freeze without validating.  Intended for validation pipelines that
      want to hand a possibly-malformed graph to {!Validate.check} and
      collect every defect at once instead of dying on the first. *)
end

(** {1 Accessors} *)

val nodes : t -> node array
(** Nodes in insertion (topological) order. *)

val node_count : t -> int
val tensor_count : t -> int
val tensor : t -> tensor_id -> tensor_info
val node : t -> node_id -> node
val inputs : t -> tensor_id list
val outputs : t -> tensor_id list

val const_value : t -> tensor_id -> Tensor.t option
(** The tensor's compile-time value when it is a constant. *)

val input_shape : t -> tensor_id -> Shape.t option
(** Declared shape when the tensor is a graph input. *)

val producer : t -> tensor_id -> node option
val consumers : t -> tensor_id -> node_id list

val predecessors : t -> node -> node list
(** Producing nodes of the node's inputs (deduplicated, in input order). *)

val free_syms : t -> string list
(** Shape variables appearing in the declared input shapes. *)

(** {1 Traversal} *)

val topo_order : t -> node list
(** Insertion order (a topological order). *)

val dfs_order : t -> node list
(** Depth-first order from the graph inputs, visiting children left to
    right — the node ordering Alg. 1 of the paper iterates over. *)

(** {1 Export} *)

val to_dot : t -> string
(** Graphviz rendering with operator names; control-flow edges dashed. *)

val op_histogram : t -> (string * int) list
(** Operator name → occurrence count, sorted descending. *)
