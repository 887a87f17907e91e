(** Symbolic tensor shapes: either nothing is known ([Undef]), the rank is
    known and each dimension is itself an RDP dimension, or the shape is
    provably not static ([Nac]).  This is the "S-map" entry of the paper's
    RDP analysis. *)

type t =
  | Undef  (** no shape information yet *)
  | Ranked of Dim.t array  (** rank known; dims individually tracked *)
  | Nac  (** shape is execution determined *)

val scalar : t
(** Rank-0 shape. *)

val of_ints : int list -> t
(** Fully-known constant shape. *)

val of_dims : Dim.t list -> t
val of_exprs : Expr.t list -> t

val rank : t -> int option

val dims : t -> Dim.t array option

val dim : t -> int -> Dim.t
(** [dim s i] is dimension [i] (supports negative indices counting from the
    end); [Dim.undef] when the rank is unknown, [Dim.nac] on [Nac]. *)

val numel : t -> Expr.t option
(** Symbolic element count — the product of all dims when every one is
    known. *)

val is_fully_known : t -> bool
(** All dimensions are known constant integers. *)

val is_symbolically_known : t -> bool
(** Rank known and every dimension is a known (possibly symbolic)
    expression. *)

val as_ints : t -> int list option
(** Concrete dims when fully known. *)

val eval : Env.t -> t -> int list option
(** Concrete dims under a symbol valuation. *)

val equal : t -> t -> bool
val meet : t -> t -> t

val broadcast : t -> t -> t * int
(** [broadcast a b] applies numpy broadcasting to two ranked shapes; the
    integer is the number of dimension pairs whose broadcast pattern could
    not be statically resolved (each doubles the code versions a
    shape-oblivious compiler would need). *)

val concat_dim : t -> t list -> axis:int -> t
(** [concat_dim first rest ~axis] is the shape of concatenating tensors of
    the given shapes along [axis]. *)

val free_syms : t -> string list

val pp : Format.formatter -> t -> unit
val to_string : t -> string
