(** Symbolic integer expressions over shape variables.

    Expressions are kept in a normal form: a sorted sum of monomials, each a
    non-zero integer coefficient times a sorted bag of atoms.  An atom is
    either a named symbol (a shape variable such as ["N"] or ["H"], always
    assumed to denote a strictly positive integer) or an opaque term — a
    floor-division, modulo, maximum or minimum of two normalized expressions
    that could not be simplified away.  The normal form makes structural
    equality decide semantic equality for the affine fragment, which is what
    rank-and-dimension propagation relies on when it must prove that two
    tensor dimensions are equal without knowing their runtime values. *)

type t

type atom =
  | Sym of string  (** a free shape variable, assumed > 0 *)
  | Opaque of opaque  (** an irreducible non-affine term *)

and opaque =
  | Odiv of t * t  (** floor division, divisor assumed > 0 *)
  | Omod of t * t  (** remainder, divisor assumed > 0 *)
  | Omax of t * t
  | Omin of t * t

(** {1 Constructors} *)

val const : int -> t
(** [const c] is the constant expression [c]. *)

val zero : t
val one : t

val sym : string -> t
(** [sym name] is the shape variable [name]. *)

val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val neg : t -> t

val div : t -> t -> t
(** [div a b] is the floor division [a / b].  Monomials of [a] exactly
    divisible by [b] are divided out (sound because divisors of shape
    formulas are positive); any residue stays as an opaque term. *)

val modulo : t -> t -> t
(** [modulo a b] is [a mod b] with [b > 0]. *)

val max_ : t -> t -> t
val min_ : t -> t -> t


val product : t list -> t
(** [product es] multiplies all expressions of [es]; [product [] = one]. *)

(** {1 Inspection} *)

val compare : t -> t -> int
(** Total structural order on normal forms. *)

val equal : t -> t -> bool
(** [equal a b] holds iff [a] and [b] have the same normal form; for affine
    expressions this decides semantic equality. *)

val is_const : t -> bool

val as_const : t -> int option
(** [as_const e] is [Some c] when [e] is the constant [c]. *)

val free_syms : t -> string list
(** Sorted, deduplicated names of the shape variables occurring in [e]. *)

val is_one : t -> bool
val is_zero : t -> bool

(** {1 Evaluation and substitution} *)

val eval : (string -> int option) -> t -> int option
(** [eval lookup e] evaluates [e] with [lookup] giving symbol values; [None]
    if any needed symbol is unbound or a divisor evaluates to [<= 0]. *)

val subst : (string -> t option) -> t -> t
(** [subst lookup e] replaces each symbol for which [lookup] returns an
    expression, renormalizing the result. *)

(** {1 Printing} *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
