(** Dynamism classification of operators (§3 of the paper).

    Every operator belongs to one of four categories ordered by increasing
    dynamism.  The category decides which RDP transfer functions apply and
    how aggressively the optimizer may treat the operator.  Classification
    is {e context dependent}: an {e Input Shape & Value Determined Output
    Shape} operator whose shape-determining operand values are known
    (constants, or inferred by RDP) degrades to {e Input Shape Determined
    Output Shape} — the paper's §3 "Discussion" transformation. *)

type category =
  | Isdo  (** Input Shape Determined Output — e.g. [Shape], [EyeLike] *)
  | Isdos  (** Input Shape Determined Output Shape — e.g. [Conv], [MatMul] *)
  | Isvdos
      (** Input Shape & Value Determined Output Shape — e.g. [Reshape],
          [Range] *)
  | Edo  (** Execution Determined Output — e.g. [NonZero], [<Switch, Combine>] *)

val base_category : Op.t -> category
(** Static category of the operator, ignoring context (Table 2). *)

val value_inputs : Op.t -> int list
(** Indices of the operator's inputs whose {e values} (not just shapes)
    determine the output shape — empty except for [Isvdos] operators. *)

val classify : Op.t -> value_known:(int -> bool) -> category
(** [classify op ~value_known] is the context-sensitive category:
    [value_known i] must say whether the value of input [i] is statically
    known.  An [Isvdos] operator with all its {!value_inputs} known becomes
    [Isdos]. *)

val category_name : category -> string
