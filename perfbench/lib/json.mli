(** The small JSON subset the benchmark writes (result lines, trace files)
    and reads back (result lines and [BENCHMARK.json] in [compare] mode). *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val to_string : t -> string
(** One line.  Integral numbers print without a fraction, others with ten
    significant digits; a non-finite number prints as [null]. *)

exception Parse_error of string

val parse : string -> t
(** Raises {!Parse_error} naming the byte offset of the first defect. *)

val member : string -> t -> t option
(** Field of an object; [None] for a missing field or a non-object. *)
