(** Resident concurrent inference engine, hardened for overload and
    partial failure.

    Everything before this module is one-shot: each {!Executor.run_real}
    call re-threads its options and single-tenant arena.  The engine is
    the serving-side counterpart of SoD²'s compile-once/run-many split
    (§4.4.1): it owns one {!Pipeline.compiled} artifact plus [N] worker
    slots — each with its own grow-only {!Arena.t}, its own
    {!Backend.t} (per-worker fused-kernel cache, so cache lookups are
    lock-free), and a scratch environment — fed from a mutex/condition
    request queue.

    The instantiated-plan cache is the one piece of shared mutable state
    between workers; it lives on the compiled artifact and is
    lock-protected ({!Pipeline.compiled.plan_lock}), so steady-state
    concurrent traffic over already-seen shape bindings performs {e zero}
    replanning.  Requests that carry the same symbol binding (equal
    {!Pipeline.plan_key}) may be {e micro-batched}: a worker that
    dequeues a request also claims up to [max_batch - 1] queued
    same-binding requests and runs them back-to-back.

    {2 Overload and failure semantics (DESIGN.md §13)}

    - {b Admission control}: the queue is bounded by [queue_cap]; a full
      queue triggers the {!overload_policy} — reject the new request
      ({!Sod2_error.Overload} raised at {!submit}), shed the oldest
      queued request (its ticket settles failed with an [Overload]
      error), or block the submitter until there is room (optionally
      bounded by a timeout).
    - {b Deadlines}: [submit ?deadline_us] attaches a relative deadline;
      it is checked when the request is dequeued and again before each
      micro-batch follower runs, so expired requests are shed
      ({!Sod2_error.Deadline_expired}) before burning a worker.
    - {b Worker supervision}: a worker domain that dies on an escaped
      exception fails its in-flight requests with context (worker id,
      plan key, uptime) and is replaced by a fresh domain — fresh arena,
      fresh backend — under [restart_budget].  When the budget is spent
      and the last worker is gone the engine enters {e degraded mode}:
      queued and subsequent requests run synchronously in the calling
      domain on the reference fallback ({!Reference.run}, always float)
      instead of deadlocking.
    - {b Circuit breaker}: [breaker_threshold] consecutive failures on
      one plan key trip a per-key breaker; while open, same-key requests
      route through the same reference fallback (results carry
      [degraded = true]).  After [breaker_cooldown_us] one probe request
      re-tests the normal path — success closes the breaker, failure
      re-opens it.

    {2 Multi-version plan serving (DESIGN.md §17)}

    When the artifact carries control flow and a variant budget
    ({!Compile_opts.t}[.variant_budget]), the engine predicts each
    request's predicate-outcome vector from the last completed run on the
    same plan key ([trace.gate_outcomes] / [report.gate_outcomes]) and
    serves it through the matching precompiled plan variant
    ({!Pipeline.variant}): pruned straight-line order, live-tensor-only
    memory plan, no per-node branch resolution.  A mispredicted gate is
    detected once at its Switch and transparently re-runs on the any-path
    base plan inside {!Executor.run_real}.  A guarded config runs every
    request through {!Guarded_exec.run} with the same prediction; plans
    are vetted once per binding ({!Pipeline.vetted_plan}), and guarded
    requests that ran the predicted variant without falling back count
    ["engine-variant-direct"].  Breakers
    and the drift detector key on the variant-qualified plan key
    (["<binding>|v=<outcome>"]), so a misbehaving specialized plan is
    isolated from its siblings; {!stats} aggregates cache cardinality
    back to base keys ([plan_keys] vs [plan_variants]).

    Per-request latency lands in a fixed-bucket log histogram (8 buckets
    per octave, no per-request retention) surfaced as p50/p95/p99 in
    {!stats}; the process-global {!Profile.Counters} additionally
    records ["engine-request"], ["engine-batched"], ["engine-failed"],
    ["engine-rejected"], ["engine-shed"], ["engine-expired"],
    ["engine-worker-restart"], ["engine-breaker-open"],
    ["engine-degraded-run"] and ["engine-degraded"]. *)

type t

type result = {
  outputs : (Graph.tensor_id * Tensor.t) list;
  latency_us : float;  (** submit-to-completion, queue wait included *)
  worker : int;  (** worker slot that executed the request; [-1] = inline degraded *)
  batched : bool;  (** ran as a follower inside a micro-batch *)
  degraded : bool;  (** ran on the reference fallback (breaker open or
                        degraded mode) rather than the configured backend *)
}

type ticket
(** Handle for an in-flight request.  Redeem with {!await} — {e once}:
    the first successful [await] returns the result and reclaims it
    (single-redeem), so a long-lived engine does not retain every output
    tensor ever produced.  A second [await] raises
    {!Sod2_error.Engine_error}.  Failed tickets stay re-raisable. *)

type overload_policy =
  | Reject
      (** raise {!Sod2_error.Overload} from {!submit} when the queue is
          full (the default) *)
  | Shed_oldest
      (** evict the oldest queued request — its ticket settles failed
          with an [Overload] error — and admit the new one *)
  | Block of float option
      (** block the submitter until the queue has room; [Some timeout_us]
          bounds the wait, after which {!Sod2_error.Overload} is raised *)

type stats = {
  workers : int;  (** configured worker slots *)
  live_workers : int;  (** slots currently backed by a live domain *)
  degraded : bool;  (** restart budget spent and no workers left *)
  submitted : int;  (** every submit attempt, including rejected ones *)
  completed : int;
  failed : int;  (** execution raised or the worker crashed mid-request *)
  rejected : int;  (** refused at submit by admission control *)
  shed : int;  (** evicted from a full queue under {!Shed_oldest} *)
  expired : int;  (** deadline passed before execution *)
  batched : int;  (** requests that rode along in a micro-batch *)
  degraded_runs : int;  (** requests served via the reference fallback *)
  worker_restarts : int;  (** crashed worker domains replaced so far *)
  breaker_open : int;  (** circuit-breaker trip events (incl. re-opens) *)
  queue_depth : int;  (** requests currently waiting, at snapshot time *)
  queue_peak : int;  (** high-water mark of the queue *)
  worker_runs : int array;  (** requests executed, per worker slot *)
  busy_us : float array;  (** cumulative execution time, per worker slot *)
  total_latency_us : float;  (** sum over completed requests *)
  max_latency_us : float;
  p50_latency_us : float;  (** percentiles over completed requests, from a
                               fixed-bucket log histogram (≤ 4.4 % relative
                               error, clamped to [max_latency_us]) *)
  p95_latency_us : float;
  p99_latency_us : float;
  warm_classes : int;  (** shape classes warm-started from [?tune_cache] *)
  drift_trips : int;  (** drift-detector trips (re-tunes scheduled) *)
  retunes : int;  (** background re-tunes completed and swapped in *)
  plan_keys : int;
      (** distinct {e base} (shape-binding) keys in the instantiated-plan
          cache — variant-qualified entries are folded into their base
          key, so this is the per-model binding cardinality regardless of
          how many outcome variants each binding fanned out into *)
  plan_variants : int;  (** variant-qualified (["|v="]) cache entries *)
}
(** Invariant once every ticket has settled:
    [completed + failed + shed + rejected + expired = submitted], and
    [p50 <= p95 <= p99 <= max]. *)

val create :
  ?workers:int ->
  ?max_batch:int ->
  ?config:Executor.config ->
  ?queue_cap:int ->
  ?overload:overload_policy ->
  ?restart_budget:int ->
  ?breaker_threshold:int ->
  ?breaker_cooldown_us:float ->
  ?tune_cache:Tune_cache.t ->
  ?drift_threshold:float ->
  ?drift_window:int ->
  ?retune:(unit -> Multi_version.table) ->
  Pipeline.compiled ->
  t
(** [create c] starts the worker domains (default [workers = 1], clamped
    to at least 1).  [max_batch] (default 4) bounds micro-batches; [1]
    disables batching.  [config] (default {!Executor.default_config})
    fixes the execution policy for every request.

    Robustness knobs: [queue_cap] (default unbounded) bounds the request
    queue and arms [overload] (default {!Reject}); [restart_budget]
    (default 3) is the total number of crashed-worker respawns before
    the engine degrades; [breaker_threshold] (default 5) consecutive
    same-plan-key failures trip that key's circuit breaker ([<= 0]
    disables it) and [breaker_cooldown_us] (default 50 000) is the
    open-state cooldown before a probe.

    Tuning knobs (DESIGN.md §16): [tune_cache] warm-starts the kernel
    version table from persisted measured-tuning winners — resolved
    against [config]'s backend kind and the artifact's float dtype via
    {!Tune_cache.table_for} before any worker spawns, so a warm-started
    engine performs {e zero} tuning measurements at serving time
    ([stats.warm_classes] reports the coverage).  [drift_threshold]
    (default 0 = off) arms the online drift detector: per plan key, the
    mean observed service time over [drift_window] (default 32) completed
    normal-path requests is compared to the cost model's prediction; the
    first full window calibrates the key's baseline observed/predicted
    ratio, and a later window exceeding [baseline × drift_threshold]
    schedules one background re-tune — [retune] if given (injection point
    for tests and custom tuners), else a quick measured Hybrid pass over
    the class representatives ({!Tune_measure.tune_table}).  The new
    table is swapped into live workers atomically
    ({!Backend.set_versions}) without pausing them; {!Profile.Counters}
    records ["engine-drift"] at trip and ["engine-retune"] at swap. *)

val submit :
  ?deadline_us:float ->
  t ->
  env:Env.t ->
  inputs:(Graph.tensor_id * Tensor.t) list ->
  ticket
(** Enqueue one inference.  [env] must bind the model's shape variables
    consistently with [inputs] — it keys the plan cache, the
    micro-batcher and the circuit breaker.  [deadline_us] is relative to
    now; once it passes the request is shed without executing
    ({!await} raises {!Sod2_error.Deadline_expired}).

    Raises {!Sod2_error.Overload} when admission control refuses the
    request (counted in [stats.rejected]) and {!Sod2_error.Engine_error}
    after {!shutdown}.  In degraded mode the request executes
    synchronously on the calling domain and the returned ticket is
    already settled. *)

val await : t -> ticket -> result
(** Block until the ticket's request settles.  The first successful
    [await] returns the result and reclaims it; later calls raise
    {!Sod2_error.Engine_error} (single-redeem).  Failed requests raise
    their structured {!Sod2_error.Error} — shed requests as [Overload],
    expired ones as [Deadline_expired], worker crashes as [Engine_error]
    with worker/key context; a raw worker exception is wrapped in
    [Engine_error] rather than re-raised bare. *)

val infer :
  ?deadline_us:float ->
  t ->
  env:Env.t ->
  inputs:(Graph.tensor_id * Tensor.t) list ->
  result
(** [infer t ~env ~inputs] = [await t (submit t ~env ~inputs)]. *)

val stats : t -> stats
(** Consistent snapshot (taken under the engine lock). *)

val config : t -> Executor.config

val shutdown : t -> unit
(** Graceful drain: workers finish every queued request, then exit and
    release their backends.  Blocks until all worker domains have joined.
    Idempotent; {!await} on already-completed tickets keeps working
    (subject to single-redeem).  Subsequent {!submit} raises
    {!Sod2_error.Engine_error}. *)

(** {1 Fault injection}

    Test-only hook, consulted on the worker before each normal-path
    execution (never on the fallback path).  Raising
    {!For_testing.Crash_worker} from it escapes the per-request handler
    and kills the worker domain (exercising supervision); raising any
    other exception fails just that request (exercising the breaker);
    sleeping stalls the worker (exercising deadlines and backpressure). *)
module For_testing : sig
  exception Crash_worker

  val inject : (worker:int -> plan_key:string -> unit) option ref
  (** Global; reset to [None] after use. *)
end
