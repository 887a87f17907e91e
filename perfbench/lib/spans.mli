(** In-memory spans recorded by the benchmark around its calls into each
    layer of the program.  Recording is off until {!start}; spans are kept
    in memory and exported once, when the run ends. *)

type span = {
  id : int;
  parent : int;  (** id of the enclosing span, [-1] for none *)
  layer : string;  (** the program module the call went into *)
  name : string;
  rid : int;  (** request or pool-item id shared by one request's spans; [-1] for none *)
  t0 : float;  (** wall-clock seconds *)
  t1 : float;
}

val set_enabled : bool -> unit
(** Recording starts off; spans recorded while on are kept for the run. *)

val record : ?parent:int -> ?rid:int -> layer:string -> name:string -> float -> float -> unit
(** Record a finished span that started at the first time and ended at
    the second.  Safe to call from several threads; a no-op while off. *)

val with_span : ?parent:int -> ?rid:int -> layer:string -> string -> (int -> 'a) -> 'a
(** [with_span ~layer name f] times [f id], where [id] is the span's own
    id (to pass as [~parent] to the spans recorded inside), or [-1] while
    recording is off. *)

val all : unit -> span list
(** Recorded spans in id order (spans enclosing others come first). *)

val self_by_layer : span list -> (string * float) list
(** Total self time per layer, in seconds, sorted by layer name: each span's
    duration minus the part of its interval its child spans cover. *)

val durations : span list -> layer:string -> name:string -> float list

val to_chrome : span list -> Json.t
(** Chrome trace-event JSON (complete ["X"] events, microseconds). *)
