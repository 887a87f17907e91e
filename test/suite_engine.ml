(* Tests for the resident concurrent inference engine and the
   consolidated Executor.config record: concurrent mixed-binding traffic
   must be bit-identical to the reference interpreter, a worker's arena
   must stop growing once it has served the largest binding, and the
   historical optional-arg entry points must keep their behavior. *)

module RT = Sod2_runtime

let cpu = Profile.sd888_cpu

(* Sub-recurrence stream over a symbolic batch dimension: every tensor has
   two consumers, so fusion stays out of the way and each step is one
   arena-planned kernel.  Small extents keep the suite fast. *)
let stream_graph ~steps ~cols () =
  let b = Graph.Builder.create () in
  let x =
    Graph.Builder.input b ~name:"x" (Shape.of_dims [ Dim.of_sym "B"; Dim.of_int cols ])
  in
  let c =
    Graph.Builder.const b ~name:"c"
      (Tensor.map_f (fun v -> 0.5 *. v) (Tensor.rand_uniform (Rng.create 17) [ cols ]))
  in
  let prev = ref x and cur = ref (Graph.Builder.node1 b (Op.Binary Op.Sub) [ x; c ]) in
  for _ = 2 to steps do
    let nxt = Graph.Builder.node1 b (Op.Binary Op.Sub) [ !cur; !prev ] in
    prev := !cur;
    cur := nxt
  done;
  Graph.Builder.set_outputs b [ !cur ];
  Graph.Builder.finish b

let graph = stream_graph ~steps:8 ~cols:16 ()

let input_for bsz seed = [ 0, Tensor.rand_uniform (Rng.create seed) [ bsz; 16 ] ]

let bit_identical outs ref_outs =
  List.length outs = List.length ref_outs
  && List.for_all2
       (fun (ta, va) (tb, vb) ->
         ta = tb && Tensor.dims va = Tensor.dims vb
         && Tensor.data_f va = Tensor.data_f vb)
       outs ref_outs

let arena_config =
  { RT.Executor.default_config with RT.Executor.memory = RT.Executor.Mem_arena }

(* qcheck: K concurrent inferences with mixed shape bindings through the
   engine are bit-identical to Reference.run. *)
let prop_concurrent_matches_reference =
  QCheck2.Test.make ~name:"engine: concurrent mixed bindings = reference"
    ~count:15
    QCheck2.Gen.(tup3 (int_range 1 4) (int_range 2 14) (int_range 0 1000))
    (fun (workers, nreq, seed) ->
      let c = Sod2.Pipeline.compile cpu graph in
      let rng = Rng.create (3000 + seed) in
      let bindings = [ 3; 5; 8 ] in
      let reqs =
        List.init nreq (fun i ->
            let bsz = List.nth bindings (Rng.int rng (List.length bindings)) in
            let env = Env.of_list [ "B", bsz ] in
            let inputs = input_for bsz (seed + i) in
            env, inputs, RT.Reference.run graph ~inputs)
      in
      let eng = RT.Engine.create ~workers ~config:arena_config c in
      let tickets = List.map (fun (env, inputs, _) -> RT.Engine.submit eng ~env ~inputs) reqs in
      let results = List.map (RT.Engine.await eng) tickets in
      RT.Engine.shutdown eng;
      List.iter2
        (fun (_, _, reference) (r : RT.Engine.result) ->
          if not (bit_identical r.RT.Engine.outputs reference) then
            QCheck2.Test.fail_report "engine outputs differ from Reference.run")
        reqs results;
      true)

let test_stats_and_occupancy () =
  let c = Sod2.Pipeline.compile cpu graph in
  let eng = RT.Engine.create ~workers:2 ~config:arena_config c in
  let n = 9 in
  let tickets =
    List.init n (fun i ->
        let bsz = if i mod 2 = 0 then 3 else 5 in
        RT.Engine.submit eng ~env:(Env.of_list [ "B", bsz ]) ~inputs:(input_for bsz i))
  in
  let results = List.map (RT.Engine.await eng) tickets in
  RT.Engine.shutdown eng;
  let st = RT.Engine.stats eng in
  Alcotest.(check int) "submitted" n st.RT.Engine.submitted;
  Alcotest.(check int) "completed" n st.RT.Engine.completed;
  Alcotest.(check int) "failed" 0 st.RT.Engine.failed;
  Alcotest.(check int) "stats.batched is always 0" 0 st.RT.Engine.batched;
  Alcotest.(check int) "queue drained" 0 st.RT.Engine.queue_depth;
  Alcotest.(check int) "worker_runs sums to completed" n
    (Array.fold_left ( + ) 0 st.RT.Engine.worker_runs);
  List.iter
    (fun (r : RT.Engine.result) ->
      if r.RT.Engine.latency_us < 0.0 then Alcotest.fail "negative latency";
      if r.RT.Engine.worker < 0 || r.RT.Engine.worker >= 2 then
        Alcotest.fail "worker index out of range")
    results;
  if st.RT.Engine.total_latency_us <= 0.0 then Alcotest.fail "no latency accounted";
  if st.RT.Engine.max_latency_us > st.RT.Engine.total_latency_us +. 1e-9 then
    Alcotest.fail "max latency exceeds total"

let test_failed_request_isolated () =
  let c = Sod2.Pipeline.compile cpu graph in
  let eng = RT.Engine.create ~workers:1 ~config:arena_config c in
  (* A broadcast-incompatible input ([3; 17] against the [16]-wide const
     row) makes the first kernel raise; the engine must record the
     failure, re-raise it from await, and keep serving. *)
  let bad =
    RT.Engine.submit eng ~env:(Env.of_list [ "B", 3 ])
      ~inputs:[ 0, Tensor.rand_uniform (Rng.create 1) [ 3; 17 ] ]
  in
  let raised = try ignore (RT.Engine.await eng bad); false with _ -> true in
  Alcotest.(check bool) "await re-raises the worker's exception" true raised;
  let good =
    RT.Engine.infer eng ~env:(Env.of_list [ "B", 3 ]) ~inputs:(input_for 3 42)
  in
  Alcotest.(check bool) "engine keeps serving after a failure" true
    (bit_identical good.RT.Engine.outputs (RT.Reference.run graph ~inputs:(input_for 3 42)));
  RT.Engine.shutdown eng;
  let st = RT.Engine.stats eng in
  Alcotest.(check int) "failure counted" 1 st.RT.Engine.failed;
  Alcotest.(check int) "success counted" 1 st.RT.Engine.completed

let test_shutdown_semantics () =
  let c = Sod2.Pipeline.compile cpu graph in
  let eng = RT.Engine.create ~workers:2 ~config:arena_config c in
  let t = RT.Engine.submit eng ~env:(Env.of_list [ "B", 5 ]) ~inputs:(input_for 5 7) in
  (* Graceful drain: shutdown joins the workers only after the queue is
     empty, so the in-flight ticket must still complete. *)
  RT.Engine.shutdown eng;
  let r = RT.Engine.await eng t in
  Alcotest.(check bool) "queued request completed across shutdown" true
    (bit_identical r.RT.Engine.outputs (RT.Reference.run graph ~inputs:(input_for 5 7)));
  RT.Engine.shutdown eng (* idempotent *);
  let rejected =
    try
      ignore (RT.Engine.submit eng ~env:(Env.of_list [ "B", 5 ]) ~inputs:(input_for 5 8));
      false
    with Sod2_error.Error e -> e.Sod2_error.cls = Sod2_error.Engine_error
  in
  Alcotest.(check bool) "submit after shutdown raises structured Engine_error" true
    rejected

let contains s sub =
  let n = String.length sub in
  let rec at i = i + n <= String.length s && (String.sub s i n = sub || at (i + 1)) in
  at 0

let test_config_parsing () =
  let roundtrip s =
    match RT.Executor.config_of_string s with
    | Error e -> Alcotest.failf "%s failed to parse: %s" s e
    | Ok cfg -> RT.Executor.config_to_string cfg
  in
  Alcotest.(check string) "default" "naive" (roundtrip "naive");
  Alcotest.(check string) "arena" "blocked,arena" (roundtrip "blocked,arena");
  Alcotest.(check string) "modifier order canonicalized" "blocked,arena,guarded"
    (roundtrip "blocked,guarded,arena");
  Alcotest.(check string) "all modifiers" "blocked,arena,guarded,all-paths"
    (roundtrip "blocked,arena,guarded,all-paths");
  Alcotest.(check string) "malloc is the default spelling" "naive" (roundtrip "naive,malloc");
  (* the specs the serving benchmark runs *)
  Alcotest.(check bool) "fused reads as blocked" true
    (RT.Executor.config_of_string "fused,arena" = RT.Executor.config_of_string "blocked,arena");
  Alcotest.(check string) "variants=N still parses" "blocked,arena"
    (roundtrip "blocked,arena,variants=8");
  (match RT.Executor.config_of_string "parallel" with
  | Ok _ -> Alcotest.fail "parallel accepted"
  | Error e ->
    Alcotest.(check bool) "the error names naive|blocked" true
      (contains e "naive|blocked"));
  (match RT.Executor.config_of_string "turbo" with
  | Ok _ -> Alcotest.fail "unknown backend accepted"
  | Error _ -> ());
  (match RT.Executor.config_of_string "naive,warp" with
  | Ok _ -> Alcotest.fail "unknown modifier accepted"
  | Error _ -> ());
  Alcotest.(check bool) "default_config is the neutral element" true
    (RT.Executor.default_config = { RT.Executor.backend = RT.Backend.Naive;
                                    memory = RT.Executor.Mem_malloc; guarded = false;
                                    control = RT.Executor.Selected_only;
                                    compile = Sod2.Compile_opts.default })

(* qcheck: every config — {naive, blocked} × memory × guarded × control
   × compile options — survives rendering and re-parsing. *)
let prop_config_roundtrip =
  QCheck2.Test.make ~name:"exec spec round-trip over every config" ~count:200
    QCheck2.Gen.(tup4 (int_range 0 15) bool (int_range 0 7) (int_range 1 128))
    (fun (exec, f64, flags, sym) ->
      let bit i n = n land (1 lsl i) <> 0 in
      let cfg =
        {
          RT.Executor.backend = (if bit 0 exec then RT.Backend.Blocked else RT.Backend.Naive);
          memory = (if bit 1 exec then RT.Executor.Mem_arena else RT.Executor.Mem_malloc);
          guarded = bit 2 exec;
          control = (if bit 3 exec then RT.Executor.All_paths else RT.Executor.Selected_only);
          compile =
            {
              Sod2.Compile_opts.float_dtype = (if f64 then Tensor.F64 else Tensor.F32);
              quant = bit 0 flags;
              fusion = not (bit 1 flags);
              plan_sym_value = (if bit 2 flags then sym else 64);
            };
        }
      in
      let s = RT.Executor.config_to_string cfg in
      match RT.Executor.config_of_string s with
      | Ok cfg' when cfg' = cfg -> true
      | Ok _ -> QCheck2.Test.fail_reportf "%S re-parsed to a different config" s
      | Error e -> QCheck2.Test.fail_reportf "%S does not parse: %s" s e)

(* Every config-driven entry point must agree with the reference. *)
let test_config_entry_points () =
  let c = Sod2.Pipeline.compile cpu graph in
  let env = Env.of_list [ "B", 5 ] in
  let inputs = input_for 5 11 in
  let reference = RT.Reference.run graph ~inputs in
  let _, plain = RT.Executor.run_real c ~inputs in
  Alcotest.(check bool) "plain run_real = reference" true (bit_identical plain reference);
  let _, cfg_arena =
    RT.Executor.run_real ~config:arena_config ~env c ~inputs
  in
  Alcotest.(check bool) "config arena run_real = reference" true
    (bit_identical cfg_arena reference);
  let _, cfg_guarded =
    RT.Executor.run_real
      ~config:{ arena_config with RT.Executor.guarded = true }
      ~env c ~inputs
  in
  Alcotest.(check bool) "config guarded run_real = reference" true
    (bit_identical cfg_guarded reference);
  let report =
    RT.Guarded_exec.run ~config:arena_config c ~env ~inputs
  in
  Alcotest.(check bool) "config Guarded_exec.run = reference" true
    (bit_identical report.RT.Guarded_exec.outputs reference);
  Alcotest.(check int) "guarded run is incident-free" 0
    (List.length report.RT.Guarded_exec.incidents);
  (* One-shot arena execution over a caller-owned arena, read from the
     trace. *)
  let tr, outs =
    RT.Executor.run_real
      ~config:{ RT.Executor.default_config with RT.Executor.guarded = true }
      ~env ~memory:(RT.Executor.Arena { arena = RT.Arena.create (); env }) c ~inputs
  in
  Alcotest.(check bool) "explicit-arena run_real = reference" true
    (bit_identical outs reference);
  Alcotest.(check bool) "the trace reports arena residency" true
    (tr.RT.Executor.arena_bytes > 0 && tr.RT.Executor.arena_resident > 0)

(* A guarded run always executes on an arena; under [malloc] the engine
   must still hand it the worker's own, and serving must stay exact and
   incident-free across bindings. *)
let test_guarded_malloc_engine () =
  let cfg =
    match RT.Executor.config_of_string "blocked,malloc,guarded" with
    | Ok cfg -> cfg
    | Error e -> Alcotest.fail e
  in
  let c = Sod2.Pipeline.compile cpu graph in
  let incidents () =
    List.fold_left
      (fun acc kind ->
        acc
        + Profile.Counters.count ~profile:cpu.Profile.name
            ~kind:(RT.Guarded_exec.fault_name kind))
      0
      RT.Guarded_exec.
        [ Arena_bounds; Plan_overlap; Size_mismatch; Dim_mismatch; Truncated_plan; Kernel_fault ]
  in
  let i0 = incidents () in
  let eng = RT.Engine.create ~workers:1 ~config:cfg c in
  List.iteri
    (fun i bsz ->
      let inputs = input_for bsz (500 + i) in
      let r = RT.Engine.infer eng ~env:(Env.of_list [ "B", bsz ]) ~inputs in
      Alcotest.(check bool)
        (Printf.sprintf "B=%d bit-identical to reference" bsz)
        true
        (bit_identical r.RT.Engine.outputs (RT.Reference.run graph ~inputs));
      Alcotest.(check bool) "served on the planned path" false r.RT.Engine.degraded)
    [ 3; 5; 3; 5 ];
  RT.Engine.shutdown eng;
  Alcotest.(check int) "zero guard incidents" 0 (incidents () - i0);
  Alcotest.(check int) "all served" 4 (RT.Engine.stats eng).RT.Engine.completed

(* A worker's arena grows only for a binding larger than any it has
   served: a grid served in ascending size grows it at most once per
   binding, and serving the grid again grows it no further. *)
let test_arena_grows_once_per_size () =
  let cfg =
    match RT.Executor.config_of_string "blocked,arena" with
    | Ok cfg -> cfg
    | Error e -> Alcotest.fail e
  in
  let c = Sod2.Pipeline.compile cpu graph in
  let eng = RT.Engine.create ~workers:1 ~config:cfg c in
  Fun.protect ~finally:(fun () -> RT.Engine.shutdown eng) @@ fun () ->
  let pass seed =
    List.iter
      (fun bsz ->
        let inputs = input_for bsz (seed + bsz) in
        let r = RT.Engine.infer eng ~env:(Env.of_list [ "B", bsz ]) ~inputs in
        if not (bit_identical r.RT.Engine.outputs (RT.Reference.run graph ~inputs)) then
          Alcotest.failf "B=%d differs from the reference" bsz)
      [ 3; 5; 8 ];
    (RT.Engine.stats eng).RT.Engine.arena_grows.(0)
  in
  let first = pass 700 in
  Alcotest.(check bool) "the first pass grows the arena, at most once per binding" true
    (first >= 1 && first <= 3);
  Alcotest.(check int) "the second pass grows it no further" first (pass 800)

(* A guarded engine runs over its worker's arena in every memory mode: one
   allocation serves every request on a binding, not one per request. *)
let test_guarded_malloc_arena_reused () =
  let cfg =
    match RT.Executor.config_of_string "blocked,malloc,guarded" with
    | Ok cfg -> cfg
    | Error e -> Alcotest.fail e
  in
  let c = Sod2.Pipeline.compile cpu graph in
  let eng = RT.Engine.create ~workers:1 ~config:cfg c in
  Fun.protect ~finally:(fun () -> RT.Engine.shutdown eng) @@ fun () ->
  for i = 1 to 5 do
    ignore (RT.Engine.infer eng ~env:(Env.of_list [ "B", 5 ]) ~inputs:(input_for 5 (900 + i)))
  done;
  Alcotest.(check (array int)) "one arena allocation for five requests" [| 1 |]
    (RT.Engine.stats eng).RT.Engine.arena_grows

(* An arena config with no binding to instantiate its plan under is a
   caller error, not a silent malloc run. *)
let test_arena_config_needs_env () =
  let c = Sod2.Pipeline.compile cpu graph in
  let inputs = input_for 5 11 in
  match RT.Executor.run_real ~config:arena_config c ~inputs with
  | _ -> Alcotest.fail "Mem_arena without ~env ran"
  | exception Invalid_argument msg ->
    let n = String.length msg in
    let rec names_env i = i + 4 <= n && (String.sub msg i 4 = "~env" || names_env (i + 1)) in
    Alcotest.(check bool) "the error names the missing env" true (names_env 0)

(* ------------------------------------------------------------------ *)
(* Overload, deadlines, supervision, breaker (ISSUE 6)                 *)

let with_inject f body =
  RT.Engine.For_testing.inject := Some f;
  Fun.protect ~finally:(fun () -> RT.Engine.For_testing.inject := None) body

let error_class = function
  | Sod2_error.Error e -> Some e.Sod2_error.cls
  | _ -> None

let await_outcome eng t =
  match RT.Engine.await eng t with
  | r -> Ok r
  | exception e -> Error e

(* Wait (bounded) until the single worker has claimed everything queued,
   so subsequent submits deterministically see the queue state. *)
let spin_until_claimed eng =
  let deadline = Unix.gettimeofday () +. 5.0 in
  let rec go () =
    if (RT.Engine.stats eng).RT.Engine.queue_depth > 0 then
      if Unix.gettimeofday () > deadline then Alcotest.fail "worker never claimed the queue"
      else begin
        Unix.sleepf 0.001;
        go ()
      end
  in
  go ()

(* Deadlined requests behind a stalled worker expire at dequeue instead of
   burning the worker, and await raises the structured Deadline_expired. *)
let test_deadline_expiry () =
  let c = Sod2.Pipeline.compile cpu graph in
  let eng = RT.Engine.create ~workers:1 ~config:arena_config c in
  with_inject (fun ~worker:_ ~plan_key:_ -> Unix.sleepf 0.02) @@ fun () ->
  let slow = RT.Engine.submit eng ~env:(Env.of_list [ "B", 3 ]) ~inputs:(input_for 3 1) in
  let doomed =
    List.init 2 (fun i ->
        RT.Engine.submit eng ~deadline_us:5000.0 ~env:(Env.of_list [ "B", 3 ])
          ~inputs:(input_for 3 (2 + i)))
  in
  (match await_outcome eng slow with
  | Ok r ->
    Alcotest.(check bool) "undeadlined request completes" true
      (bit_identical r.RT.Engine.outputs (RT.Reference.run graph ~inputs:(input_for 3 1)))
  | Error e -> Alcotest.failf "undeadlined request failed: %s" (Printexc.to_string e));
  List.iter
    (fun t ->
      match await_outcome eng t with
      | Ok _ -> Alcotest.fail "expired request completed"
      | Error e ->
        Alcotest.(check bool) "await raises Deadline_expired" true
          (error_class e = Some Sod2_error.Deadline_expired))
    doomed;
  RT.Engine.shutdown eng;
  let st = RT.Engine.stats eng in
  Alcotest.(check int) "expired counted" 2 st.RT.Engine.expired;
  Alcotest.(check int) "completed counted" 1 st.RT.Engine.completed;
  Alcotest.(check int) "conservation" st.RT.Engine.submitted
    (st.RT.Engine.completed + st.RT.Engine.failed + st.RT.Engine.shed
    + st.RT.Engine.rejected + st.RT.Engine.expired)

(* Reject policy: a full queue refuses the new request at submit with a
   structured Overload error; everything admitted still completes. *)
let test_queue_cap_reject () =
  let c = Sod2.Pipeline.compile cpu graph in
  let eng =
    RT.Engine.create ~workers:1 ~queue_cap:2 ~overload:RT.Engine.Reject
      ~config:arena_config c
  in
  with_inject (fun ~worker:_ ~plan_key:_ -> Unix.sleepf 0.02) @@ fun () ->
  let r1 = RT.Engine.submit eng ~env:(Env.of_list [ "B", 3 ]) ~inputs:(input_for 3 1) in
  spin_until_claimed eng;
  let r2 = RT.Engine.submit eng ~env:(Env.of_list [ "B", 3 ]) ~inputs:(input_for 3 2) in
  let r3 = RT.Engine.submit eng ~env:(Env.of_list [ "B", 3 ]) ~inputs:(input_for 3 3) in
  let rejected =
    try
      ignore (RT.Engine.submit eng ~env:(Env.of_list [ "B", 3 ]) ~inputs:(input_for 3 4));
      false
    with Sod2_error.Error e -> e.Sod2_error.cls = Sod2_error.Overload
  in
  Alcotest.(check bool) "4th submit rejected with Overload" true rejected;
  List.iter
    (fun t ->
      match await_outcome eng t with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "admitted request failed: %s" (Printexc.to_string e))
    [ r1; r2; r3 ];
  RT.Engine.shutdown eng;
  let st = RT.Engine.stats eng in
  Alcotest.(check int) "rejected counted" 1 st.RT.Engine.rejected;
  Alcotest.(check int) "submitted includes the rejected one" 4 st.RT.Engine.submitted;
  Alcotest.(check int) "completed" 3 st.RT.Engine.completed

(* Shed_oldest policy: a full queue evicts its oldest entry, whose ticket
   settles failed with Overload; the newcomer is admitted and completes. *)
let test_queue_cap_shed () =
  let c = Sod2.Pipeline.compile cpu graph in
  let eng =
    RT.Engine.create ~workers:1 ~queue_cap:2 ~overload:RT.Engine.Shed_oldest
      ~config:arena_config c
  in
  with_inject (fun ~worker:_ ~plan_key:_ -> Unix.sleepf 0.02) @@ fun () ->
  let r1 = RT.Engine.submit eng ~env:(Env.of_list [ "B", 3 ]) ~inputs:(input_for 3 1) in
  spin_until_claimed eng;
  let r2 = RT.Engine.submit eng ~env:(Env.of_list [ "B", 3 ]) ~inputs:(input_for 3 2) in
  let r3 = RT.Engine.submit eng ~env:(Env.of_list [ "B", 3 ]) ~inputs:(input_for 3 3) in
  let r4 = RT.Engine.submit eng ~env:(Env.of_list [ "B", 3 ]) ~inputs:(input_for 3 4) in
  (match await_outcome eng r2 with
  | Ok _ -> Alcotest.fail "shed victim completed"
  | Error e ->
    Alcotest.(check bool) "victim's await raises Overload" true
      (error_class e = Some Sod2_error.Overload));
  List.iter
    (fun t ->
      match await_outcome eng t with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "surviving request failed: %s" (Printexc.to_string e))
    [ r1; r3; r4 ];
  RT.Engine.shutdown eng;
  let st = RT.Engine.stats eng in
  Alcotest.(check int) "shed counted" 1 st.RT.Engine.shed;
  Alcotest.(check int) "completed" 3 st.RT.Engine.completed;
  Alcotest.(check int) "nothing rejected" 0 st.RT.Engine.rejected

(* A worker that dies on an escaped exception fails its in-flight request
   with worker/key context, is respawned with a fresh arena/backend, and
   the replacement serves bit-identical results. *)
let test_crash_restart () =
  let c = Sod2.Pipeline.compile cpu graph in
  let eng = RT.Engine.create ~workers:1 ~restart_budget:3 ~config:arena_config c in
  let crashed = Atomic.make false in
  with_inject (fun ~worker:_ ~plan_key:_ ->
      if not (Atomic.exchange crashed true) then raise RT.Engine.For_testing.Crash_worker)
  @@ fun () ->
  let doomed = RT.Engine.submit eng ~env:(Env.of_list [ "B", 3 ]) ~inputs:(input_for 3 1) in
  (match await_outcome eng doomed with
  | Ok _ -> Alcotest.fail "request on crashed worker completed"
  | Error (Sod2_error.Error e) ->
    Alcotest.(check bool) "crash failure is Engine_error" true
      (e.Sod2_error.cls = Sod2_error.Engine_error);
    Alcotest.(check bool) "carries worker context" true (e.Sod2_error.ctx.Sod2_error.worker = Some 0);
    Alcotest.(check bool) "carries plan-key context" true
      (e.Sod2_error.ctx.Sod2_error.key <> None)
  | Error e -> Alcotest.failf "unstructured crash error: %s" (Printexc.to_string e));
  let r = RT.Engine.infer eng ~env:(Env.of_list [ "B", 5 ]) ~inputs:(input_for 5 9) in
  Alcotest.(check bool) "replacement worker serves bit-identical results" true
    (bit_identical r.RT.Engine.outputs (RT.Reference.run graph ~inputs:(input_for 5 9)));
  Alcotest.(check bool) "replacement run is not degraded" false r.RT.Engine.degraded;
  RT.Engine.shutdown eng;
  let st = RT.Engine.stats eng in
  Alcotest.(check int) "one restart" 1 st.RT.Engine.worker_restarts;
  Alcotest.(check int) "one failure" 1 st.RT.Engine.failed;
  Alcotest.(check int) "live worker survives" 1 st.RT.Engine.live_workers

(* Restart budget exhausted: the engine flips to degraded mode and keeps
   serving inline through the guarded fallback instead of deadlocking. *)
let test_degraded_mode () =
  let c = Sod2.Pipeline.compile cpu graph in
  let eng = RT.Engine.create ~workers:1 ~restart_budget:0 ~config:arena_config c in
  with_inject (fun ~worker:_ ~plan_key:_ -> raise RT.Engine.For_testing.Crash_worker)
  @@ fun () ->
  let doomed = RT.Engine.submit eng ~env:(Env.of_list [ "B", 3 ]) ~inputs:(input_for 3 1) in
  (match await_outcome eng doomed with
  | Ok _ -> Alcotest.fail "request on crashed worker completed"
  | Error e ->
    Alcotest.(check bool) "crash failure is Engine_error" true
      (error_class e = Some Sod2_error.Engine_error));
  let r = RT.Engine.infer eng ~env:(Env.of_list [ "B", 5 ]) ~inputs:(input_for 5 4) in
  Alcotest.(check bool) "degraded-mode inference is bit-identical" true
    (bit_identical r.RT.Engine.outputs (RT.Reference.run graph ~inputs:(input_for 5 4)));
  Alcotest.(check bool) "result marked degraded" true r.RT.Engine.degraded;
  Alcotest.(check int) "inline runs carry no worker id" (-1) r.RT.Engine.worker;
  let st = RT.Engine.stats eng in
  Alcotest.(check bool) "engine reports degraded" true st.RT.Engine.degraded;
  Alcotest.(check int) "no live workers" 0 st.RT.Engine.live_workers;
  Alcotest.(check bool) "degraded runs counted" true (st.RT.Engine.degraded_runs >= 1);
  RT.Engine.shutdown eng

(* Breaker lifecycle: K consecutive same-key failures trip it; while open,
   same-key requests run the guarded fallback (degraded = true); after the
   cooldown a probe on the normal path closes it again. *)
let test_breaker_cycle () =
  let c = Sod2.Pipeline.compile cpu graph in
  let eng =
    RT.Engine.create ~workers:1 ~breaker_threshold:2 ~breaker_cooldown_us:200_000.0
      ~config:arena_config c
  in
  let failing = Atomic.make true in
  with_inject (fun ~worker:_ ~plan_key:_ ->
      if Atomic.get failing then failwith "injected kernel fault")
  @@ fun () ->
  let env = Env.of_list [ "B", 3 ] in
  for i = 1 to 2 do
    match RT.Engine.infer eng ~env ~inputs:(input_for 3 i) with
    | _ -> Alcotest.fail "injected fault did not fail the request"
    | exception Sod2_error.Error _ -> ()
  done;
  let st = RT.Engine.stats eng in
  Alcotest.(check int) "breaker tripped after threshold" 1 st.RT.Engine.breaker_open;
  (* Open + inside cooldown: the fault is still armed, but the fallback
     path never consults it — the request completes, marked degraded. *)
  let r = RT.Engine.infer eng ~env ~inputs:(input_for 3 7) in
  Alcotest.(check bool) "open breaker routes through fallback" true r.RT.Engine.degraded;
  Alcotest.(check bool) "fallback output is bit-identical" true
    (bit_identical r.RT.Engine.outputs (RT.Reference.run graph ~inputs:(input_for 3 7)));
  (* Clear the fault, wait out the cooldown: the next request is the probe
     and closes the breaker; the one after runs the normal path. *)
  Atomic.set failing false;
  Unix.sleepf 0.25;
  let probe = RT.Engine.infer eng ~env ~inputs:(input_for 3 8) in
  Alcotest.(check bool) "successful probe runs the normal path" false
    probe.RT.Engine.degraded;
  let after = RT.Engine.infer eng ~env ~inputs:(input_for 3 9) in
  Alcotest.(check bool) "breaker closed after probe" false after.RT.Engine.degraded;
  RT.Engine.shutdown eng;
  let st = RT.Engine.stats eng in
  Alcotest.(check int) "no re-trip" 1 st.RT.Engine.breaker_open;
  Alcotest.(check int) "fallback run counted" 1 st.RT.Engine.degraded_runs

(* Single-redeem: the first await returns the result, the second raises a
   structured Engine_error instead of retaining outputs forever. *)
let test_single_redeem () =
  let c = Sod2.Pipeline.compile cpu graph in
  let eng = RT.Engine.create ~workers:1 ~config:arena_config c in
  let t = RT.Engine.submit eng ~env:(Env.of_list [ "B", 3 ]) ~inputs:(input_for 3 1) in
  ignore (RT.Engine.await eng t);
  let redeemed_twice =
    try
      ignore (RT.Engine.await eng t);
      false
    with Sod2_error.Error e -> e.Sod2_error.cls = Sod2_error.Engine_error
  in
  Alcotest.(check bool) "second await raises Engine_error" true redeemed_twice;
  (* Failed tickets stay re-raisable: both awaits must raise. *)
  let bad =
    RT.Engine.submit eng ~env:(Env.of_list [ "B", 3 ])
      ~inputs:[ 0, Tensor.rand_uniform (Rng.create 1) [ 3; 17 ] ]
  in
  let raises () = match await_outcome eng bad with Ok _ -> false | Error _ -> true in
  Alcotest.(check bool) "failed ticket raises" true (raises ());
  Alcotest.(check bool) "failed ticket raises again" true (raises ());
  RT.Engine.shutdown eng

(* The acceptance-criteria storm: crash the worker on its first execution,
   flood the queue to 2x queue_cap with 10 ms deadlines.  The engine must
   not deadlock, must shed/expire the overflow with structured errors,
   must restart the worker, and every accepted request it completed must
   be bit-identical to Reference — with consistent stats.  The first
   execution holds its crash until every request is submitted: the worker
   then holds at most one batch (4), so at least 16 - 4 - 8 requests meet
   a full queue and are shed, however the host schedules the threads.
   (Holding a later execution instead would let two full batches drain 8
   of the 16, leaving exactly the cap queued and nothing to shed.) *)
let test_overload_crash_storm () =
  let c = Sod2.Pipeline.compile cpu graph in
  let queue_cap = 8 in
  let eng =
    RT.Engine.create ~workers:1 ~queue_cap ~overload:RT.Engine.Shed_oldest
      ~restart_budget:2 ~breaker_threshold:1000 ~config:arena_config c
  in
  let calls = Atomic.make 0 and submitted = Atomic.make false in
  with_inject (fun ~worker:_ ~plan_key:_ ->
      if Atomic.fetch_and_add calls 1 = 0 then begin
        while not (Atomic.get submitted) do
          Unix.sleepf 1e-4
        done;
        raise RT.Engine.For_testing.Crash_worker
      end
      else Unix.sleepf 0.001)
  @@ fun () ->
  let n = 2 * queue_cap in
  let reqs =
    List.init n (fun i ->
        let bsz = if i mod 2 = 0 then 3 else 5 in
        let inputs = input_for bsz (100 + i) in
        inputs, RT.Reference.run graph ~inputs, Env.of_list [ "B", bsz ])
  in
  let tickets =
    List.map
      (fun (inputs, reference, env) ->
        RT.Engine.submit eng ~deadline_us:10_000.0 ~env ~inputs, reference)
      reqs
  in
  Atomic.set submitted true;
  let completed = ref 0 in
  List.iter
    (fun (t, reference) ->
      match await_outcome eng t with
      | Ok r ->
        incr completed;
        if not (bit_identical r.RT.Engine.outputs reference) then
          Alcotest.fail "completed storm request differs from Reference"
      | Error (Sod2_error.Error e) ->
        if
          not
            (List.mem e.Sod2_error.cls
               [ Sod2_error.Overload; Sod2_error.Deadline_expired; Sod2_error.Engine_error ])
        then Alcotest.failf "unexpected error class %s" (Sod2_error.class_name e.Sod2_error.cls)
      | Error e -> Alcotest.failf "unstructured storm error: %s" (Printexc.to_string e))
    tickets;
  RT.Engine.shutdown eng;
  let st = RT.Engine.stats eng in
  Alcotest.(check int) "all submissions accounted" n st.RT.Engine.submitted;
  Alcotest.(check int) "conservation" st.RT.Engine.submitted
    (st.RT.Engine.completed + st.RT.Engine.failed + st.RT.Engine.shed
    + st.RT.Engine.rejected + st.RT.Engine.expired);
  Alcotest.(check int) "await-side view agrees" st.RT.Engine.completed !completed;
  Alcotest.(check bool) "overflow was shed" true (st.RT.Engine.shed > 0);
  Alcotest.(check bool) "crash failed its victim" true (st.RT.Engine.failed >= 1);
  Alcotest.(check int) "worker restarted once" 1 st.RT.Engine.worker_restarts;
  Alcotest.(check bool) "percentiles are monotone" true
    (st.RT.Engine.p50_latency_us <= st.RT.Engine.p95_latency_us
    && st.RT.Engine.p95_latency_us <= st.RT.Engine.p99_latency_us
    && st.RT.Engine.p99_latency_us <= st.RT.Engine.max_latency_us +. 1e-9)

(* qcheck: under a random fault schedule (request failures, worker
   crashes, stalls, deadlines, random cap/policy) every submission settles
   into exactly one of completed/failed/shed/rejected/expired and the
   latency percentiles stay ordered.  Awaiting every ticket doubles as the
   no-deadlock check. *)
let prop_conservation_under_faults =
  QCheck2.Test.make ~name:"engine: outcome conservation under random fault schedules"
    ~count:10
    QCheck2.Gen.(tup4 (int_range 1 2) (int_range 5 20) (int_range 2 5) (int_range 0 1000))
    (fun (workers, nreq, queue_cap, seed) ->
      let c = Sod2.Pipeline.compile cpu graph in
      let overload =
        match seed mod 3 with
        | 0 -> RT.Engine.Reject
        | 1 -> RT.Engine.Shed_oldest
        | _ -> RT.Engine.Block (Some 2_000.0)
      in
      let eng =
        RT.Engine.create ~workers ~queue_cap ~overload ~restart_budget:16
          ~breaker_threshold:3 ~breaker_cooldown_us:1_000.0 ~config:arena_config c
      in
      let calls = Atomic.make 0 in
      RT.Engine.For_testing.inject :=
        Some
          (fun ~worker:_ ~plan_key:_ ->
            let n = Atomic.fetch_and_add calls 1 in
            if (n + seed) mod 11 = 0 then raise RT.Engine.For_testing.Crash_worker
            else if (n + seed) mod 5 = 0 then failwith "injected fault"
            else if (n + seed) mod 4 = 0 then Unix.sleepf 0.002);
      Fun.protect ~finally:(fun () -> RT.Engine.For_testing.inject := None) @@ fun () ->
      let tickets =
        List.filter_map
          (fun i ->
            let bsz = if i mod 2 = 0 then 3 else 5 in
            let deadline_us = if i mod 3 = 0 then Some 3_000.0 else None in
            match
              RT.Engine.submit eng ?deadline_us ~env:(Env.of_list [ "B", bsz ])
                ~inputs:(input_for bsz (seed + i))
            with
            | t -> Some t
            | exception Sod2_error.Error _ -> None)
          (List.init nreq Fun.id)
      in
      List.iter (fun t -> ignore (await_outcome eng t)) tickets;
      RT.Engine.shutdown eng;
      let st = RT.Engine.stats eng in
      if st.RT.Engine.submitted <> nreq then
        QCheck2.Test.fail_reportf "submitted %d, expected %d" st.RT.Engine.submitted nreq;
      let settled =
        st.RT.Engine.completed + st.RT.Engine.failed + st.RT.Engine.shed
        + st.RT.Engine.rejected + st.RT.Engine.expired
      in
      if settled <> st.RT.Engine.submitted then
        QCheck2.Test.fail_reportf
          "conservation violated: %d completed + %d failed + %d shed + %d rejected + %d \
           expired <> %d submitted"
          st.RT.Engine.completed st.RT.Engine.failed st.RT.Engine.shed
          st.RT.Engine.rejected st.RT.Engine.expired st.RT.Engine.submitted;
      if
        not
          (st.RT.Engine.p50_latency_us <= st.RT.Engine.p95_latency_us
          && st.RT.Engine.p95_latency_us <= st.RT.Engine.p99_latency_us
          && st.RT.Engine.p99_latency_us <= st.RT.Engine.max_latency_us +. 1e-9)
      then QCheck2.Test.fail_report "latency percentiles not monotone";
      true)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_concurrent_matches_reference;
    Alcotest.test_case "stats and occupancy" `Quick test_stats_and_occupancy;
    Alcotest.test_case "failed request is isolated" `Quick test_failed_request_isolated;
    Alcotest.test_case "graceful shutdown" `Quick test_shutdown_semantics;
    Alcotest.test_case "config parsing" `Quick test_config_parsing;
    QCheck_alcotest.to_alcotest prop_config_roundtrip;
    Alcotest.test_case "config entry points" `Quick test_config_entry_points;
    Alcotest.test_case "arena config without env raises" `Quick test_arena_config_needs_env;
    Alcotest.test_case "guarded malloc engine = reference" `Quick test_guarded_malloc_engine;
    Alcotest.test_case "arena grows once per larger binding, then never" `Quick
      test_arena_grows_once_per_size;
    Alcotest.test_case "guarded malloc engine reuses its arena" `Quick
      test_guarded_malloc_arena_reused;
    Alcotest.test_case "deadline expiry under a stalled worker" `Quick test_deadline_expiry;
    Alcotest.test_case "queue cap: reject policy" `Quick test_queue_cap_reject;
    Alcotest.test_case "queue cap: shed-oldest policy" `Quick test_queue_cap_shed;
    Alcotest.test_case "worker crash, restart, bit-identical" `Quick test_crash_restart;
    Alcotest.test_case "restart budget exhausted: degraded mode" `Quick test_degraded_mode;
    Alcotest.test_case "circuit breaker trip and cooldown" `Quick test_breaker_cycle;
    Alcotest.test_case "single-redeem tickets" `Quick test_single_redeem;
    Alcotest.test_case "overload + crash storm (acceptance)" `Quick test_overload_crash_storm;
    QCheck_alcotest.to_alcotest prop_conservation_under_faults;
  ]
