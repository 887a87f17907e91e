type result = {
  outputs : (Graph.tensor_id * Tensor.t) list;
  latency_us : float;
  worker : int;
  degraded : bool;
}

type state =
  | Pending
  | Done of result
  | Failed of exn
  | Redeemed

type request = {
  r_env : Env.t;
  r_key : string;  (** {!Pipeline.plan_key} of [r_env] — circuit-breaker key *)
  r_inputs : (Graph.tensor_id * Tensor.t) list;
  r_submitted : float;  (** [Clock.now_us] at submit *)
  r_deadline : float option;  (** absolute [Clock.now_us] expiry, from [?deadline_us] *)
  mutable r_worker : int;  (** worker slot that last touched it; -1 = none *)
  mutable r_state : state;
}

type ticket = request

type overload_policy =
  | Reject
  | Shed_oldest
  | Block of float option

module For_testing = struct
  exception Crash_worker

  let inject : (worker:int -> plan_key:string -> unit) option ref = ref None
end

(* Per-plan-key circuit breaker.  [opened_at = 0.0] means closed;
   [probing] marks a cooldown probe in flight on the normal path. *)
type breaker = {
  mutable consecutive : int;
  mutable opened_at : float;
  mutable probing : bool;
}

(* ------------------------------------------------------------------ *)
(* Fixed-bucket log latency histogram: 8 buckets per octave from 1 µs,
   so 256 buckets span ~2^32 µs (≈ 71 min) at ≤ 4.4 % relative error.
   No per-request retention — percentiles come from the bucket counts. *)

let hist_buckets = 256
let hist_per_octave = 8.0

let bucket_of_latency us =
  if us <= 1.0 then 0
  else min (hist_buckets - 1) (int_of_float (hist_per_octave *. (log us /. log 2.0)))

let latency_of_bucket i = Float.pow 2.0 ((float_of_int i +. 0.5) /. hist_per_octave)

type stats = {
  workers : int;
  live_workers : int;
  degraded : bool;
  submitted : int;
  completed : int;
  failed : int;
  rejected : int;
  shed : int;
  expired : int;
  batched : int;
  degraded_runs : int;
  worker_restarts : int;
  breaker_open : int;
  queue_depth : int;
  queue_peak : int;
  worker_runs : int array;
  busy_us : float array;
  total_latency_us : float;
  max_latency_us : float;
  p50_latency_us : float;
  p95_latency_us : float;
  p99_latency_us : float;
  arena_grows : int array;
  plan_variants : int;
}

type t = {
  compiled : Pipeline.compiled;
  cfg : Executor.config;
  nworkers : int;
  queue_cap : int;
  overload : overload_policy;
  restart_budget : int;
  breaker_threshold : int;  (** <= 0 disables the breaker *)
  breaker_cooldown_us : float;
  lock : Mutex.t;
  work : Condition.t;  (** signaled on submit and on shutdown *)
  finished : Condition.t;  (** broadcast whenever any request settles *)
  room : Condition.t;  (** broadcast whenever the queue shrinks *)
  queue : request Queue.t;
  breakers : (string, breaker) Hashtbl.t;
  inflight : request option array;  (** per worker slot: the claimed request *)
  mutable stopping : bool;
  mutable joined : bool;
  mutable domains : unit Domain.t list;
  mutable live_workers : int;
  mutable degraded_mode : bool;
  mutable restarts_used : int;
  (* Stats below are guarded by [lock]. *)
  mutable submitted : int;
  mutable completed : int;
  mutable failed : int;
  mutable rejected : int;
  mutable shed : int;
  mutable expired : int;
  mutable degraded_runs : int;
  mutable worker_restarts : int;
  mutable breaker_trips : int;
  mutable queue_peak : int;
  worker_runs : int array;
  busy_us : float array;
  arena_grows : int array;  (** per worker slot, summed across restarts *)
  hist : int array;
  mutable hist_total : int;
  mutable total_latency_us : float;
  mutable max_latency_us : float;
}

let counter t kind =
  Profile.Counters.record ~profile:t.compiled.Pipeline.profile.Profile.name ~kind

(* ------------------------------------------------------------------ *)
(* Lock-held helpers                                                   *)

type verdict =
  | V_completed
  | V_failed
  | V_shed
  | V_expired

(* Settle a request exactly once; the disjoint verdict keeps
   completed + failed + shed + rejected + expired = submitted. *)
let settle_locked t req st verdict =
  match req.r_state with
  | Pending ->
    req.r_state <- st;
    (match verdict with
    | V_completed -> t.completed <- t.completed + 1
    | V_failed -> t.failed <- t.failed + 1
    | V_shed -> t.shed <- t.shed + 1
    | V_expired -> t.expired <- t.expired + 1);
    Condition.broadcast t.finished;
    true
  | Done _ | Failed _ | Redeemed -> false

let record_latency_locked t us =
  t.hist.(bucket_of_latency us) <- t.hist.(bucket_of_latency us) + 1;
  t.hist_total <- t.hist_total + 1;
  t.total_latency_us <- t.total_latency_us +. us;
  if us > t.max_latency_us then t.max_latency_us <- us

let percentile_locked t p =
  if t.hist_total = 0 then 0.0
  else begin
    let rank = max 1 (int_of_float (Float.ceil (p *. float_of_int t.hist_total))) in
    let acc = ref 0 and v = ref t.max_latency_us in
    (try
       for i = 0 to hist_buckets - 1 do
         acc := !acc + t.hist.(i);
         if !acc >= rank then begin
           v := latency_of_bucket i;
           raise Exit
         end
       done
     with Exit -> ());
    (* Bucket representatives can overshoot the true tail. *)
    Float.min !v t.max_latency_us
  end

let breaker_for_locked t key =
  match Hashtbl.find_opt t.breakers key with
  | Some b -> b
  | None ->
    let b = { consecutive = 0; opened_at = 0.0; probing = false } in
    Hashtbl.add t.breakers key b;
    b

(* Routing decision for one request: [`Normal] (breaker closed), [`Probe]
   (open, cooldown elapsed — this request re-tests the normal path) or
   [`Fallback] (open — run the reference path). *)
let route_locked t key now =
  if t.breaker_threshold <= 0 then `Normal
  else
    match Hashtbl.find_opt t.breakers key with
    | None -> `Normal
    | Some b ->
      if b.opened_at = 0.0 then `Normal
      else if now -. b.opened_at >= t.breaker_cooldown_us && not b.probing
      then begin
        b.probing <- true;
        `Probe
      end
      else `Fallback

let breaker_success_locked t key ~probe =
  match Hashtbl.find_opt t.breakers key with
  | None -> ()
  | Some b ->
    b.consecutive <- 0;
    if probe then b.probing <- false;
    b.opened_at <- 0.0

let breaker_failure_locked t key ~probe now =
  if t.breaker_threshold > 0 then begin
    let b = breaker_for_locked t key in
    let trip () =
      b.opened_at <- now;
      t.breaker_trips <- t.breaker_trips + 1;
      counter t "engine-breaker-open"
    in
    if probe then begin
      b.probing <- false;
      trip () (* failed probe re-opens and restarts the cooldown *)
    end
    else begin
      b.consecutive <- b.consecutive + 1;
      if b.opened_at = 0.0 && b.consecutive >= t.breaker_threshold then trip ()
    end
  end

let breaker_probing_locked t key =
  match Hashtbl.find_opt t.breakers key with Some b -> b.probing | None -> false

(* ------------------------------------------------------------------ *)
(* Worker side                                                         *)

(* The one fallback: the reference interpreter, which depends on nothing
   the optimizer produced and always answers in float. *)
let run_fallback t req = Reference.run t.compiled.Pipeline.graph ~inputs:req.r_inputs

(* Execute one request on worker [w]'s private resources.  The engine
   lock is NOT held here — only the settle step takes it.
   {!For_testing.Crash_worker} escapes on purpose: it simulates an
   exception that takes the whole worker domain down. *)
let execute t ~w ~arena ~backend req =
  let started = Clock.now_us () in
  let grows = Arena.grows arena in
  Mutex.lock t.lock;
  let route = route_locked t req.r_key started in
  Mutex.unlock t.lock;
  let via_fallback = route = `Fallback in
  let outcome =
    try
      (match !For_testing.inject with
      | Some f when not via_fallback -> f ~worker:w ~plan_key:req.r_key
      | _ -> ());
      (* Both planned paths go through the config entry points; this
         worker's arena and backend replace the ones the config would
         build per run. *)
      let outputs =
        if via_fallback then run_fallback t req
        else if t.cfg.Executor.guarded then
          (Guarded_exec.run ~config:t.cfg ~arena ?backend t.compiled ~env:req.r_env ~inputs:req.r_inputs)
            .Guarded_exec.outputs
        else begin
          let memory =
            match t.cfg.Executor.memory with
            | Executor.Mem_malloc -> Executor.Malloc
            | Executor.Mem_arena -> Executor.Arena { arena; env = req.r_env }
          in
          snd
            (Executor.run_real ~config:t.cfg ?backend ~memory t.compiled
               ~inputs:req.r_inputs)
        end
      in
      let now = Clock.now_us () in
      Ok
        ( {
            outputs;
            latency_us = now -. req.r_submitted;
            worker = w;
            degraded = via_fallback;
          },
          now -. started )
    with
    | For_testing.Crash_worker as e -> raise e
    | e -> Error (e, Clock.now_us () -. started)
  in
  Mutex.lock t.lock;
  t.worker_runs.(w) <- t.worker_runs.(w) + 1;
  t.arena_grows.(w) <- t.arena_grows.(w) + Arena.grows arena - grows;
  req.r_worker <- w;
  (match outcome with
  | Ok (r, busy) ->
    ignore (settle_locked t req (Done r) V_completed);
    t.busy_us.(w) <- t.busy_us.(w) +. busy;
    record_latency_locked t r.latency_us;
    if r.degraded then t.degraded_runs <- t.degraded_runs + 1
    else breaker_success_locked t req.r_key ~probe:(route = `Probe)
  | Error (e, busy) ->
    ignore (settle_locked t req (Failed e) V_failed);
    t.busy_us.(w) <- t.busy_us.(w) +. busy;
    if not via_fallback then
      breaker_failure_locked t req.r_key ~probe:(route = `Probe) (Clock.now_us ()));
  Mutex.unlock t.lock;
  counter t "engine-request";
  if via_fallback then counter t "engine-degraded-run";
  match outcome with Error _ -> counter t "engine-failed" | Ok _ -> ()

let expired_error req now =
  Sod2_error.Error
    (Sod2_error.make ~key:req.r_key Sod2_error.Deadline_expired
       (Printf.sprintf "deadline exceeded %.0f us before execution"
          (now -. Option.get req.r_deadline)))

(* One claimed request: shed it if its deadline passed while it queued,
   else execute it. *)
let process t ~w ~arena ~backend req =
  let now = Clock.now_us () in
  match req.r_deadline with
  | Some d when now > d ->
    Mutex.lock t.lock;
    ignore (settle_locked t req (Failed (expired_error req now)) V_expired);
    Mutex.unlock t.lock;
    counter t "engine-expired"
  | _ -> execute t ~w ~arena ~backend req

let worker_body t w =
  (* Per-worker resources are created {e inside} the worker domain so
     that a blocked backend's domain pool is owned by the domain
     that calls into it ({!Domain_pool.run}'s ownership rule).  Pool
     width is divided across workers so K workers never oversubscribe
     the host. *)
  let arena = Arena.create () in
  let backend =
    match t.cfg.Executor.backend with
    | Backend.Naive -> None
    | k ->
      Some
        (Backend.create ~threads:(max 1 (Domain.recommended_domain_count () / t.nworkers))
           ~profile:t.compiled.Pipeline.profile.Profile.name k)
  in
  let release () = Option.iter Backend.shutdown backend in
  let rec loop () =
    Mutex.lock t.lock;
    while Queue.is_empty t.queue && not t.stopping do
      Condition.wait t.work t.lock
    done;
    if Queue.is_empty t.queue then
      (* stopping && drained: graceful exit *)
      Mutex.unlock t.lock
    else begin
      let req = Queue.pop t.queue in
      t.inflight.(w) <- Some req;
      Condition.broadcast t.room;
      Mutex.unlock t.lock;
      process t ~w ~arena ~backend req;
      Mutex.lock t.lock;
      t.inflight.(w) <- None;
      Mutex.unlock t.lock;
      loop ()
    end
  in
  (try loop () with e -> release (); raise e);
  release ()

(* Degraded-mode inline execution: no worker domains are left, so the
   calling domain runs the request synchronously through the reference
   fallback and settles the ticket before returning. *)
let run_degraded_inline t req =
  let now = Clock.now_us () in
  match req.r_deadline with
  | Some d when now > d ->
    Mutex.lock t.lock;
    ignore (settle_locked t req (Failed (expired_error req now)) V_expired);
    Mutex.unlock t.lock;
    counter t "engine-expired"
  | _ ->
    let outcome = try Ok (run_fallback t req) with e -> Error e in
    let settled = Clock.now_us () in
    Mutex.lock t.lock;
    (match outcome with
    | Ok outputs ->
      let r =
        {
          outputs;
          latency_us = settled -. req.r_submitted;
          worker = -1;
          degraded = true;
        }
      in
      ignore (settle_locked t req (Done r) V_completed);
      record_latency_locked t r.latency_us;
      t.degraded_runs <- t.degraded_runs + 1
    | Error e -> ignore (settle_locked t req (Failed e) V_failed));
    Mutex.unlock t.lock;
    counter t "engine-request";
    counter t "engine-degraded-run";
    match outcome with Error _ -> counter t "engine-failed" | Ok _ -> ()

(* ------------------------------------------------------------------ *)
(* Worker supervision                                                  *)

let rec spawn_worker t w =
  Domain.spawn (fun () ->
      let born = Clock.now_us () in
      try worker_body t w with e -> on_worker_crash t w ~born e)

(* Runs inside the dying worker domain.  Fails the crashed worker's
   in-flight request with full context, then either respawns a fresh
   domain (fresh arena/backend) under the restart budget, or — when the
   budget is spent and this was the last live worker — flips the engine
   into degraded mode and drains the queue inline so nothing deadlocks. *)
and on_worker_crash t w ~born e =
  let now = Clock.now_us () in
  let uptime_ms = (now -. born) /. 1e3 in
  Mutex.lock t.lock;
  let victims =
    match t.inflight.(w) with
    | Some ({ r_state = Pending; _ } as r) -> [ r ]
    | _ -> []
  in
  t.inflight.(w) <- None;
  List.iter
    (fun req ->
      req.r_worker <- w;
      let err =
        Sod2_error.make ~worker:w ~key:req.r_key Sod2_error.Engine_error
          (Printf.sprintf "worker %d crashed after %.1f ms uptime: %s" w uptime_ms
             (Printexc.to_string e))
      in
      ignore (settle_locked t req (Failed (Sod2_error.Error err)) V_failed);
      breaker_failure_locked t req.r_key ~probe:(breaker_probing_locked t req.r_key) now)
    victims;
  Profile.Counters.add ~profile:t.compiled.Pipeline.profile.Profile.name
    ~kind:"engine-failed" (List.length victims);
  if (not t.stopping) && t.restarts_used < t.restart_budget then begin
    t.restarts_used <- t.restarts_used + 1;
    t.worker_restarts <- t.worker_restarts + 1;
    t.domains <- spawn_worker t w :: t.domains;
    Mutex.unlock t.lock;
    counter t "engine-worker-restart"
  end
  else begin
    t.live_workers <- t.live_workers - 1;
    let entering = t.live_workers <= 0 && not t.degraded_mode in
    let orphans =
      if entering then begin
        t.degraded_mode <- true;
        let q = List.of_seq (Queue.to_seq t.queue) in
        Queue.clear t.queue;
        Condition.broadcast t.room;
        q
      end
      else []
    in
    Mutex.unlock t.lock;
    if entering then counter t "engine-degraded";
    List.iter (run_degraded_inline t) orphans
  end

(* ------------------------------------------------------------------ *)
(* Client side                                                         *)

let create ?(workers = 1) ?(config = Executor.default_config)
    ?(queue_cap = max_int) ?(overload = Reject) ?(restart_budget = 3)
    ?(breaker_threshold = 5) ?(breaker_cooldown_us = 50_000.0) compiled =
  let nworkers = max 1 workers in
  let t =
    {
      compiled;
      cfg = config;
      nworkers;
      queue_cap = max 1 queue_cap;
      overload;
      restart_budget = max 0 restart_budget;
      breaker_threshold;
      breaker_cooldown_us;
      lock = Mutex.create ();
      work = Condition.create ();
      finished = Condition.create ();
      room = Condition.create ();
      queue = Queue.create ();
      breakers = Hashtbl.create 8;
      inflight = Array.make nworkers None;
      stopping = false;
      joined = false;
      domains = [];
      live_workers = nworkers;
      degraded_mode = false;
      restarts_used = 0;
      submitted = 0;
      completed = 0;
      failed = 0;
      rejected = 0;
      shed = 0;
      expired = 0;
      degraded_runs = 0;
      worker_restarts = 0;
      breaker_trips = 0;
      queue_peak = 0;
      worker_runs = Array.make nworkers 0;
      busy_us = Array.make nworkers 0.0;
      arena_grows = Array.make nworkers 0;
      hist = Array.make hist_buckets 0;
      hist_total = 0;
      total_latency_us = 0.0;
      max_latency_us = 0.0;
    }
  in
  t.domains <- List.init nworkers (fun w -> spawn_worker t w);
  t

let submit ?deadline_us t ~env ~inputs =
  let now = Clock.now_us () in
  let req =
    {
      r_env = env;
      r_key = Pipeline.plan_key t.compiled env;
      r_inputs = inputs;
      r_submitted = now;
      r_deadline = Option.map (fun us -> now +. us) deadline_us;
      r_worker = -1;
      r_state = Pending;
    }
  in
  Mutex.lock t.lock;
  if t.stopping then begin
    Mutex.unlock t.lock;
    Sod2_error.fail ~key:req.r_key Sod2_error.Engine_error
      "submit after shutdown: the engine is drained and its workers have exited"
  end;
  t.submitted <- t.submitted + 1;
  (* [reject] must be called with the lock held; it raises. *)
  let reject cls msg =
    t.rejected <- t.rejected + 1;
    Mutex.unlock t.lock;
    counter t "engine-rejected";
    Sod2_error.fail ~key:req.r_key cls msg
  in
  if t.degraded_mode then begin
    Mutex.unlock t.lock;
    run_degraded_inline t req;
    req
  end
  else begin
    (match t.overload with
    | _ when Queue.length t.queue < t.queue_cap -> ()
    | Reject ->
      reject Sod2_error.Overload
        (Printf.sprintf "queue full (cap %d); request rejected" t.queue_cap)
    | Shed_oldest ->
      let victim = Queue.pop t.queue in
      let err =
        Sod2_error.make ~key:victim.r_key Sod2_error.Overload
          (Printf.sprintf "shed from a full queue (cap %d) to admit a newer request"
             t.queue_cap)
      in
      ignore (settle_locked t victim (Failed (Sod2_error.Error err)) V_shed);
      counter t "engine-shed"
    | Block timeout_us ->
      let give_up = Option.map (fun us -> now +. us) timeout_us in
      let rec wait () =
        if Queue.length t.queue < t.queue_cap || t.stopping || t.degraded_mode then ()
        else
          match give_up with
          | None ->
            Condition.wait t.room t.lock;
            wait ()
          | Some g ->
            if Clock.now_us () >= g then
              reject Sod2_error.Overload
                (Printf.sprintf "queue full (cap %d); blocked past the %.0f us timeout"
                   t.queue_cap
                   (Option.value ~default:0.0 timeout_us))
            else begin
              (* Stdlib [Condition] has no timed wait; poll at 200 µs. *)
              Mutex.unlock t.lock;
              Unix.sleepf 2e-4;
              Mutex.lock t.lock;
              wait ()
            end
      in
      wait ();
      if t.stopping then
        reject Sod2_error.Engine_error "engine shut down while blocked on a full queue");
    if t.degraded_mode then begin
      (* The last worker died while this submit was blocked. *)
      Mutex.unlock t.lock;
      run_degraded_inline t req;
      req
    end
    else begin
      Queue.push req t.queue;
      let depth = Queue.length t.queue in
      if depth > t.queue_peak then t.queue_peak <- depth;
      Condition.signal t.work;
      Mutex.unlock t.lock;
      req
    end
  end

let await t (req : ticket) =
  Mutex.lock t.lock;
  while (match req.r_state with Pending -> true | _ -> false) do
    Condition.wait t.finished t.lock
  done;
  let st = req.r_state in
  (* Single-redeem: drop the result (and its output tensors) so a
     long-lived engine does not retain every response ever served. *)
  (match st with Done _ -> req.r_state <- Redeemed | _ -> ());
  Mutex.unlock t.lock;
  match st with
  | Done r -> r
  | Failed (Sod2_error.Error _ as e) -> raise e
  | Failed e ->
    Sod2_error.fail
      ?worker:(if req.r_worker >= 0 then Some req.r_worker else None)
      ~key:req.r_key Sod2_error.Engine_error
      ("request failed: " ^ Printexc.to_string e)
  | Redeemed ->
    Sod2_error.fail ~key:req.r_key Sod2_error.Engine_error
      "ticket already redeemed: results are reclaimed after the first await"
  | Pending -> assert false

let infer ?deadline_us t ~env ~inputs = await t (submit ?deadline_us t ~env ~inputs)

let stats t =
  Mutex.protect t.lock (fun () ->
      {
        workers = t.nworkers;
        live_workers = max 0 t.live_workers;
        degraded = t.degraded_mode;
        submitted = t.submitted;
        completed = t.completed;
        failed = t.failed;
        rejected = t.rejected;
        shed = t.shed;
        expired = t.expired;
        batched = 0;
        degraded_runs = t.degraded_runs;
        worker_restarts = t.worker_restarts;
        breaker_open = t.breaker_trips;
        queue_depth = Queue.length t.queue;
        queue_peak = t.queue_peak;
        worker_runs = Array.copy t.worker_runs;
        busy_us = Array.copy t.busy_us;
        total_latency_us = t.total_latency_us;
        max_latency_us = t.max_latency_us;
        p50_latency_us = percentile_locked t 0.50;
        p95_latency_us = percentile_locked t 0.95;
        p99_latency_us = percentile_locked t 0.99;
        arena_grows = Array.copy t.arena_grows;
        plan_variants = 0;
      })

let shutdown t =
  Mutex.lock t.lock;
  t.stopping <- true;
  Condition.broadcast t.work;
  Condition.broadcast t.room;
  let join_here = not t.joined in
  t.joined <- true;
  let domains = t.domains in
  Mutex.unlock t.lock;
  if join_here then List.iter Domain.join domains
