(** The one wall clock: every duration and deadline in the runtime, the
    tuner and the bench harness is read from here. *)

val now_us : unit -> float
(** [Unix.gettimeofday] in µs, clamped non-decreasing, so a backwards
    clock step can neither make a duration negative nor move a deadline
    earlier. *)

val time_us : rounds:int -> (unit -> unit) -> float
(** [time_us ~rounds f] — µs per invocation of [f], min-of-[rounds] with
    warmup and calibrated inner repeats. *)
