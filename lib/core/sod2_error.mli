(** Structured errors for the whole SoD² stack.

    Every layer — symbolic evaluation, graph construction, serialization,
    kernels, the planners and both executors — reports failures through the
    single {!t} type: an error class, the op/tensor/step context in which
    the failure was detected, and a human-readable message.  The class
    drives programmatic handling (the guarded executor demotes on
    [Shape_mismatch]/[Plan_violation] but re-raises [Unsupported]); the
    context turns a bare "dimension mismatch" into an actionable report.

    This module sits below every other library in the repo, so it carries
    no dependencies: context fields are plain strings and integers rather
    than IR types. *)

type error_class =
  | Invalid_graph  (** structural IR problems: dangling ids, cycles, missing outputs *)
  | Arity_mismatch  (** node input count disagrees with the operator *)
  | Dtype_mismatch  (** tensor element type disagrees with the operator *)
  | Shape_mismatch  (** runtime dims disagree with the RDP prediction *)
  | Plan_violation  (** memory/execution plan inconsistent with the arena or lifetimes *)
  | Unbound_symbol  (** a shape variable had no binding in the {!Env} *)
  | Unsupported  (** the operation needs support this build does not have *)
  | Io_error  (** serialization / parse failures *)
  | Overload  (** serving-layer admission control rejected or shed the request *)
  | Deadline_expired  (** the request's deadline passed before it could execute *)
  | Engine_error
      (** serving-engine failure: worker crash, submit after shutdown,
          double ticket redemption, degraded-mode refusal *)

type context = {
  op : string option;  (** operator name, e.g. ["Conv"] *)
  node : string option;  (** node name, e.g. ["stage2.conv_17"] *)
  tensor : int option;  (** tensor id *)
  step : int option;  (** execution-plan step or group id *)
  worker : int option;  (** engine worker slot, for serving-layer errors *)
  key : string option;  (** plan key ({!Pipeline.plan_key}) of the request *)
}

type t = {
  cls : error_class;
  ctx : context;
  msg : string;
}

exception Error of t

val make :
  ?op:string -> ?node:string -> ?tensor:int -> ?step:int -> ?worker:int ->
  ?key:string -> error_class -> string -> t

val fail :
  ?op:string -> ?node:string -> ?tensor:int -> ?step:int -> ?worker:int ->
  ?key:string -> error_class -> string -> 'a
(** Raise {!Error} with the given class and context. *)

val failf :
  ?op:string ->
  ?node:string ->
  ?tensor:int ->
  ?step:int ->
  ?worker:int ->
  ?key:string ->
  error_class ->
  ('a, unit, string, 'b) format4 ->
  'a
(** [Printf]-style {!fail}. *)

val class_name : error_class -> string

val to_string : t -> string
(** One-line rendering: [class [op=… node=… t… step…]: message]. *)

val pp : Format.formatter -> t -> unit

val guard : (unit -> 'a) -> ('a, t) result
(** Run a thunk, catching {!Error} plus the legacy [Invalid_argument] /
    [Failure] exceptions still raised by a few leaf utilities, and return
    the outcome as a [result].  Legacy exceptions map to {!Invalid_graph}
    with no context. *)
