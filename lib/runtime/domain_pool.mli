(** Persistent worker pool over OCaml 5 domains.

    Spawning a domain costs far more than one kernel invocation, so the
    pool keeps [n - 1] worker domains parked on a condition variable and
    hands them one data-parallel job at a time; the calling domain is the
    n-th participant, and [n] never exceeds the host's cores.  Tasks are
    distributed by an atomic work-stealing cursor, so uneven tile costs
    balance automatically.  Completion is awaited by blocking, never
    spinning — on a single-core host the pool degrades to sequential
    execution instead of starving itself.

    One job runs at a time; [run] must only be called from the domain that
    owns the pool (the runtime's orchestration thread), never from inside
    a running job. *)

type t

val create : int -> t
(** [create n] — a pool of [n] participants, clamped to
    [Domain.recommended_domain_count ()] and at least 1 ([n - 1] domains
    are actually spawned). *)

val size : t -> int
(** Participants, including the calling domain. *)

val run : t -> int -> (int -> unit) -> unit
(** [run t count body] evaluates [body 0 .. body (count - 1)], distributed
    over the participants; returns when all are done.  The first exception
    raised by any task is re-raised in the caller (remaining tasks still
    run).  Runs inline when the pool has a single participant. *)

val par : t -> Blocked.par
(** The pool as a {!Blocked.par} runner for the blocked kernels. *)

val shutdown : t -> unit
(** Joins the worker domains.  Idempotent.  The pool must be idle. *)
