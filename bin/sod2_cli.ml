(* Command-line interface to the SoD2 reproduction: inspect the model zoo,
   run the RDP analysis, compile, execute, compare against the baseline
   framework simulators, and export graphs to Graphviz. *)

open Cmdliner

let spec_of_name name =
  match Zoo.by_name name with
  | Some sp -> sp
  | None ->
    Printf.eprintf "unknown model %s; try `sod2 list`\n" name;
    exit 2

let profile_of_name name =
  match Profile.by_name name with
  | Some p -> p
  | None ->
    Printf.eprintf "unknown device %s; known: %s\n" name
      (String.concat ", " (List.map (fun p -> p.Profile.name) Profile.all));
    exit 2

let model_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"MODEL" ~doc:"Zoo model name.")

let device_arg =
  Arg.(value & opt string "sd888-cpu" & info [ "device"; "d" ] ~docv:"DEVICE"
         ~doc:"Device profile (sd888-cpu, sd888-gpu, sd835-cpu, sd835-gpu).")

let dims_arg =
  Arg.(value & opt (some string) None
       & info [ "dims" ] ~docv:"DIMS" ~doc:"Shape variables, e.g. H=320,W=320 or S=128.")

let env_of_dims spec dims =
  match dims with
  | None -> Zoo.percentile_env spec 0.5
  | Some s ->
    List.fold_left
      (fun env binding ->
        match String.split_on_char '=' binding with
        | [ k; v ] -> Env.bind k (int_of_string v) env
        | _ ->
          Printf.eprintf "bad --dims entry %S\n" binding;
          exit 2)
      Env.empty (String.split_on_char ',' s)

(* Resolve the consolidated --exec and --compile specs into one
   [Executor.config].  The two flags are the whole configuration surface:
   --exec carries the execution policy (and may carry compile tokens for
   one-flag convenience), --compile overrides the compile half wholesale.
   The historical --backend / --memory / --arena aliases are gone; the
   parser's error messages name the canonical spellings. *)
let exec_config ?(default = Sod2_runtime.Executor.default_config) ~exec ~compile () =
  let cfg =
    match exec with
    | None -> default
    | Some s -> (
      match Sod2_runtime.Executor.config_of_string s with
      | Ok cfg -> cfg
      | Error e ->
        Printf.eprintf "bad --exec spec: %s\n" e;
        exit 2)
  in
  match compile with
  | None -> cfg
  | Some s -> (
    match Sod2.Compile_opts.of_string s with
    | Ok opts -> { cfg with Sod2_runtime.Executor.compile = opts }
    | Error e ->
      Printf.eprintf "bad --compile spec: %s\n" e;
      exit 2)

let exec_arg =
  Arg.(value & opt (some string) None
       & info [ "exec" ] ~docv:"SPEC"
           ~doc:"Execution config: naive|blocked|parallel|fused, optionally \
                 followed by comma-separated modifiers arena (planned arena \
                 memory), malloc, guarded (graceful degradation under runtime \
                 guards) and all-paths (execute every control-flow branch).  \
                 Unrecognized modifiers are parsed as --compile tokens \
                 (int8 among them: a quantized artifact runs the int8 \
                 kernels on every non-naive backend), so one spec can carry \
                 both halves.  Example: --exec fused,arena,int8.")

let compile_arg =
  Arg.(value & opt (some string) None
       & info [ "compile" ] ~docv:"SPEC"
           ~doc:"Compile options: comma-separated f32|f64 (float precision), \
                 int8 (quantize eligible weights), nofuse (static-only \
                 fusion) and sym=N (representative planning value for shape \
                 variables).  variants=N is accepted and ignored: gated \
                 models run one plan, and each computed predicate picks \
                 the groups that run.  Example: --compile f64,sym=32.")

(* --- list ---------------------------------------------------------- *)

let list_cmd =
  let run () =
    Printf.printf "%-26s %-10s %-14s %6s %6s %8s\n" "model" "dynamism" "input" "nodes"
      "gates" "shape-vars";
    List.iter
      (fun (sp : Zoo.spec) ->
        let g = sp.build () in
        Printf.printf "%-26s %-10s %-14s %6d %6d %8s\n" sp.name
          (match sp.dynamism with
          | Zoo.Shape_dyn -> "shape"
          | Zoo.Control_dyn -> "control"
          | Zoo.Both_dyn -> "both")
          sp.input_desc (Graph.node_count g) (Zoo.gate_count g)
          (String.concat "," (List.map fst sp.dim_choices)))
      Zoo.all
  in
  Cmd.v (Cmd.info "list" ~doc:"List the model zoo.") Term.(const run $ const ())

(* --- analyze ------------------------------------------------------- *)

let analyze_cmd =
  let run model verbose =
    let sp = spec_of_name model in
    let g = sp.build () in
    let r = Sod2.Rdp.analyze g in
    let stats = Sod2.Rdp.stats g r in
    Printf.printf "model: %s (%d nodes, %d tensors)\n" sp.name (Graph.node_count g)
      (Graph.tensor_count g);
    Printf.printf "RDP converged in %d sweeps\n" r.Sod2.Rdp.iterations;
    Printf.printf "activation tensors: %d\n" stats.Sod2.Rdp.n_tensors;
    Printf.printf "  known constant shapes:    %d\n" stats.Sod2.Rdp.known_const;
    Printf.printf "  symbolic/op-inferred:     %d\n" stats.Sod2.Rdp.symbolic;
    Printf.printf "  rank only:                %d\n" stats.Sod2.Rdp.rank_only;
    Printf.printf "  unknown (undef/nac):      %d\n" stats.Sod2.Rdp.unknown;
    Printf.printf "  resolution rate:          %.1f%%\n"
      (100.0 *. Sod2.Rdp.resolution_rate g r);
    let counts = Hashtbl.create 4 in
    Array.iter
      (fun c ->
        let k = Op_class.category_name c in
        Hashtbl.replace counts k (1 + Option.value ~default:0 (Hashtbl.find_opt counts k)))
      r.Sod2.Rdp.categories;
    Printf.printf "node dynamism (after constant propagation):\n";
    Hashtbl.iter (fun k v -> Printf.printf "  %-48s %d\n" k v) counts;
    if verbose then
      Array.iter
        (fun (nd : Graph.node) ->
          List.iter
            (fun tid -> Format.printf "  %a@." (Sod2.Rdp.pp_tensor g r) tid)
            nd.outputs)
        (Graph.nodes g)
  in
  let verbose =
    Arg.(value & flag & info [ "verbose"; "v" ] ~doc:"Print every tensor's S/V maps.")
  in
  Cmd.v
    (Cmd.info "analyze" ~doc:"Run the RDP analysis and print its precision.")
    Term.(const run $ model_arg $ verbose)

(* --- compile ------------------------------------------------------- *)

let compile_cmd =
  let run model device compile =
    let sp = spec_of_name model in
    let profile = profile_of_name device in
    let g = sp.build () in
    let opts =
      match compile with
      | None -> Sod2.Compile_opts.default
      | Some s -> (
        match Sod2.Compile_opts.of_string s with
        | Ok o -> o
        | Error e ->
          Printf.eprintf "bad --compile spec: %s\n" e;
          exit 2)
    in
    let c = Sod2.Pipeline.compile ~opts profile g in
    Format.printf "%a@." (fun ppf () -> Sod2.Fusion.pp g ppf c.Sod2.Pipeline.fusion_plan) ();
    Format.printf "%a@." Sod2.Exec_plan.pp c.Sod2.Pipeline.exec;
    let env = Zoo.percentile_env sp 0.5 in
    let mp = Sod2.Pipeline.mem_plan_for c env in
    Format.printf "%a@." Sod2.Mem_plan.pp mp;
    (match Sod2.Mem_plan.validate mp with
    | Ok () -> print_endline "memory plan: valid (no overlap)"
    | Error e -> Printf.printf "memory plan INVALID: %s\n" e)
  in
  Cmd.v
    (Cmd.info "compile" ~doc:"Compile a model and print the fusion/execution/memory plans.")
    Term.(const run $ model_arg $ device_arg $ compile_arg)

(* --- tuning-cache plumbing ----------------------------------------- *)

let tune_cache_arg =
  Arg.(value & opt (some string) None
       & info [ "tune-cache" ] ~docv:"FILE"
           ~doc:"Warm-start the kernel version table from a tuning cache \
                 written by `sod2 tune` (missing or corrupt files degrade to \
                 the analytical table).")

(* Resolve an artifact's version table against a tuning cache file, for
   the one-shot entry points (`run`); the engine does the same resolution
   itself through [Engine.create ?tune_cache]. *)
let warm_started_compiled ?tune_cache ~backend_kind c =
  match tune_cache with
  | None -> c
  | Some path ->
    let cache, skipped = Sod2.Tune_cache.load_verbose path in
    if skipped > 0 then
      Printf.eprintf "note: %s: skipped %d corrupt tune-cache line%s\n" path skipped
        (if skipped = 1 then "" else "s");
    let table, warm =
      Sod2.Tune_cache.table_for cache
        ~backend:(Sod2_runtime.Backend.kind_name backend_kind)
        ~dtype:(Tensor.dtype_name c.Sod2.Pipeline.fdtype)
        ~fallback:c.Sod2.Pipeline.versions
    in
    if warm > 0 then begin
      Printf.printf "tune cache: warm-started %d/4 shape classes from %s\n" warm path;
      Sod2.Pipeline.with_versions c table
    end
    else begin
      Printf.printf "tune cache: no entries for this backend/dtype in %s\n" path;
      c
    end

(* --- run ----------------------------------------------------------- *)

let run_cmd =
  let run model device dims real exec compile tune_cache =
    let sp = spec_of_name model in
    let profile = profile_of_name device in
    let g = sp.build () in
    let env = env_of_dims sp dims in
    let cfg = exec_config ~exec ~compile () in
    let opts = cfg.Sod2_runtime.Executor.compile in
    let backend_kind = cfg.Sod2_runtime.Executor.backend in
    let arena_mode = cfg.Sod2_runtime.Executor.memory = Sod2_runtime.Executor.Mem_arena in
    if real || arena_mode || cfg.Sod2_runtime.Executor.guarded then begin
      let c = Sod2.Pipeline.compile ~opts profile g in
      let c = warm_started_compiled ?tune_cache ~backend_kind c in
      let inputs = Zoo.make_inputs sp g env (Rng.create 42) in
      let be = Sod2_runtime.Backend.for_compiled backend_kind c in
      Fun.protect
        ~finally:(fun () -> Sod2_runtime.Backend.shutdown be)
        (fun () ->
          let outs =
            if cfg.Sod2_runtime.Executor.guarded then begin
              let r = Sod2_runtime.Guarded_exec.run ~config:cfg ~backend:be c ~env ~inputs in
              Printf.printf
                "guarded: %d planned groups, %d demoted nodes, %d incidents (%s backend%s)\n"
                r.Sod2_runtime.Guarded_exec.planned_groups
                r.Sod2_runtime.Guarded_exec.demoted_nodes
                (List.length r.Sod2_runtime.Guarded_exec.incidents)
                (Sod2_runtime.Backend.kind_name backend_kind)
                (if arena_mode then ", arena" else "");
              r.Sod2_runtime.Guarded_exec.outputs
            end
            else if arena_mode then begin
              let trace, outs =
                Sod2_runtime.Executor.run_real ~config:cfg ~env ~backend:be c ~inputs
              in
              Printf.printf "arena: %d bytes, %d resident tensors (%s backend)\n"
                trace.Sod2_runtime.Executor.arena_bytes
                trace.Sod2_runtime.Executor.arena_resident
                (Sod2_runtime.Backend.kind_name backend_kind);
              outs
            end
            else begin
              let trace, outs =
                Sod2_runtime.Executor.run_real ~config:cfg ~backend:be c ~inputs
              in
              Printf.printf "executed %d nodes (%d fused groups, %s backend, %d domains)\n"
                trace.Sod2_runtime.Executor.nodes_executed
                (List.length trace.Sod2_runtime.Executor.steps)
                (Sod2_runtime.Backend.kind_name backend_kind)
                (Sod2_runtime.Backend.pool_size be);
              outs
            end
          in
          if backend_kind = Sod2_runtime.Backend.Fused then begin
            let fs = Sod2_runtime.Backend.fused_stats be in
            Printf.printf
              "fused kernels: %d hits, %d misses, %d rejects, %d live variants\n"
              fs.Sod2_runtime.Backend.hits fs.Sod2_runtime.Backend.misses
              fs.Sod2_runtime.Backend.rejects fs.Sod2_runtime.Backend.variants
          end;
          List.iter
            (fun (tid, t) -> Format.printf "output t%d = %a@." tid Tensor.pp t)
            outs)
    end
    else begin
      let max_dims = Zoo.input_dims sp g (Zoo.max_env sp) in
      let session = Framework.create Framework.Sod2_fw profile g ~max_dims in
      let sm = Workload.sample_at sp ~percentile:0.5 ~idx:0 in
      let input_dims =
        List.map (fun (tid, _) -> tid, Option.get (Shape.eval env (Option.get (Graph.input_shape g tid))))
          (List.map (fun tid -> tid, ()) (Graph.inputs g))
      in
      let st = Framework.run session ~input_dims ~gate:sm.Workload.gate in
      Printf.printf "simulated latency: %.2f ms\n" (st.Framework.latency_us /. 1000.0);
      Printf.printf "peak intermediate memory: %.2f MB\n"
        (float_of_int st.Framework.peak_bytes /. 1048576.0)
    end
  in
  let real =
    Arg.(value & flag & info [ "real" ] ~doc:"Interpret tensors for real instead of simulating.")
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:"Run one inference (simulated by default; --real interprets, --exec \
             KIND,arena additionally executes the memory plan in place).")
    Term.(const run $ model_arg $ device_arg $ dims_arg $ real $ exec_arg
          $ compile_arg $ tune_cache_arg)

(* --- tune ----------------------------------------------------------- *)

let tune_cmd =
  let run model device exec objective out rounds generations population seed =
    let sp = spec_of_name model in
    let profile = profile_of_name device in
    let g = sp.build () in
    let objective =
      match Sod2.Autotune.objective_of_string objective with
      | Some o -> o
      | None ->
        Printf.eprintf "unknown --objective %S (expected analytical|measured|hybrid)\n"
          objective;
        exit 2
    in
    let cfg = exec_config ~exec ~compile:None () in
    (* The naive backend has no tunable kernel; tune what the blocked
       kernels will run as. *)
    let backend_kind =
      match cfg.Sod2_runtime.Executor.backend with
      | Sod2_runtime.Backend.Naive -> Sod2_runtime.Backend.Blocked
      | k -> k
    in
    let c = Sod2.Pipeline.compile profile g in
    let dt = c.Sod2.Pipeline.fdtype in
    let be =
      Sod2_runtime.Backend.create ~versions:c.Sod2.Pipeline.versions
        ~profile:profile.Profile.name backend_kind
    in
    Fun.protect
      ~finally:(fun () -> Sod2_runtime.Backend.shutdown be)
      (fun () ->
        let par = Sod2_runtime.Backend.par_of be in
        (* Merge into an existing cache so tuning one backend/dtype does
           not clobber another's entries. *)
        let cache = Sod2.Tune_cache.load out in
        Printf.printf
          "tuning %s for %s (%s backend, %s, objective %s; %d measurement rounds)\n"
          sp.Zoo.name profile.Profile.name
          (Sod2_runtime.Backend.kind_name backend_kind)
          (Tensor.dtype_name dt)
          (Sod2.Autotune.objective_name objective)
          rounds;
        Printf.printf "%-8s %-14s %12s %12s %12s  %s\n" "class" "rep (m,n,k)"
          "default ms" "analytic ms" "tuned ms" "winner";
        List.iteri
          (fun idx (cls, (m, n, k)) ->
            let measure =
              Sod2.Tune_measure.gemm_measurer ~dt ~par ~rounds
                ~profile:profile.Profile.name ~m ~n ~k ()
            in
            let default_us = measure Sod2.Autotune.default_config in
            let analytic_us =
              measure (Sod2.Multi_version.config_for c.Sod2.Pipeline.versions cls)
            in
            let winner, tuned_us =
              Sod2.Tune_measure.tune_class ~objective ~seed:(seed + idx) ~rounds
                ~generations ~population ~par profile ~dt cls
            in
            Printf.printf "%-8s %-14s %12.3f %12.3f %12.3f  %s\n"
              (Sod2.Multi_version.class_name cls)
              (Printf.sprintf "%d,%d,%d" m n k)
              (default_us /. 1000.0) (analytic_us /. 1000.0) (tuned_us /. 1000.0)
              (Sod2.Autotune.config_to_string winner);
            Sod2.Tune_cache.set cache ~op:"gemm" ~cls
              ~backend:(Sod2_runtime.Backend.kind_name backend_kind)
              ~dtype:(Tensor.dtype_name dt) ~config:winner ~score_us:tuned_us
              ~objective:(Sod2.Autotune.objective_name objective))
          Sod2.Multi_version.representatives;
        Sod2.Tune_cache.save cache out;
        Printf.printf "wrote %s (%d entries, %d kernel measurements)\n" out
          (Sod2.Tune_cache.size cache)
          (Sod2.Tune_measure.measurement_count ()))
  in
  let objective =
    Arg.(value & opt string "hybrid"
         & info [ "objective" ] ~docv:"OBJ"
             ~doc:"Candidate scoring: analytical (cost model only), measured \
                   (every GA candidate timed) or hybrid (analytical pruning, \
                   measured finals — the default).")
  in
  let out =
    Arg.(value & opt string "sod2.tune"
         & info [ "o"; "out" ] ~docv:"FILE" ~doc:"Tuning cache file to write (merged).")
  in
  let rounds =
    Arg.(value & opt int 3
         & info [ "rounds" ] ~docv:"N" ~doc:"Timing rounds per candidate (min is taken).")
  in
  let generations =
    Arg.(value & opt int 12 & info [ "generations" ] ~docv:"N" ~doc:"GA generations.")
  in
  let population =
    Arg.(value & opt int 16 & info [ "population" ] ~docv:"N" ~doc:"GA population.")
  in
  let seed = Arg.(value & opt int 7 & info [ "seed" ] ~docv:"S" ~doc:"Search RNG seed.") in
  Cmd.v
    (Cmd.info "tune"
       ~doc:"Tune the heavy-kernel configurations against measured timings \
             and persist the winners to a tuning cache file, per shape class \
             — `sod2 run/serve --tune-cache FILE` then warm-starts from it \
             with zero serving-time measurements.")
    Term.(const run $ model_arg $ device_arg $ exec_arg $ objective $ out $ rounds
          $ generations $ population $ seed)

(* --- serve ---------------------------------------------------------- *)

let serve_cmd =
  let run model device requests workers max_batch exec compile arrival_rate seed
      queue_cap deadline_ms overload tune_cache =
    let open Sod2_runtime in
    let sp = spec_of_name model in
    let profile = profile_of_name device in
    let g = sp.build () in
    (* Serving exists to exercise the planned arena path; malloc is still
       reachable with an explicit --exec KIND,malloc. *)
    let default = { Executor.default_config with Executor.memory = Executor.Mem_arena } in
    let cfg = exec_config ~default ~exec ~compile () in
    let overload_policy =
      match overload with
      | "reject" -> Engine.Reject
      | "shed" -> Engine.Shed_oldest
      | "block" -> Engine.Block None
      | s ->
        Printf.eprintf "unknown --overload policy %S (expected reject, shed or block)\n" s;
        exit 2
    in
    let c = Sod2.Pipeline.compile ~opts:cfg.Executor.compile profile g in
    (* Mixed shape bindings: the workload percentiles, deduplicated by plan
       key, so the request stream genuinely alternates bindings. *)
    let envs =
      List.fold_left
        (fun acc p ->
          let env = Zoo.percentile_env sp p in
          let key = Sod2.Pipeline.plan_key c env in
          if List.mem_assoc key acc then acc else (key, env) :: acc)
        []
        [ 0.0; 0.25; 0.5; 0.75; 1.0 ]
      |> List.rev_map snd
    in
    let nenvs = List.length envs in
    let rng = Rng.create seed in
    let samples =
      List.init requests (fun i ->
          let env = List.nth envs (i mod nenvs) in
          env, Zoo.make_inputs sp g env rng)
    in
    let engine =
      Engine.create ~workers ~max_batch ~config:cfg
        ?queue_cap:(Option.map (fun n -> max 1 n) queue_cap)
        ~overload:overload_policy
        ?tune_cache:(Option.map Sod2.Tune_cache.load tune_cache) c
    in
    let deadline_us = Option.map (fun ms -> ms *. 1000.0) deadline_ms in
    (* Open loop: requests arrive as a Poisson process at --arrival-rate
       req/s (0 = back-to-back), independent of completion — the stream
       does not slow down when the engine backs up, which is what makes
       overload reachable in the first place. *)
    let arrival_rng = Rng.create (seed + 1) in
    let next_arrival_gap () =
      if arrival_rate <= 0.0 then 0.0
      else -.log (max 1e-12 (Rng.uniform arrival_rng)) /. arrival_rate
    in
    let t0 = Sod2.Clock.now_us () in
    let tickets =
      List.map
        (fun (env, inputs) ->
          let gap = next_arrival_gap () in
          if gap > 0.0 then Unix.sleepf gap;
          match Engine.submit engine ?deadline_us ~env ~inputs with
          | t -> Some t
          | exception Sod2_error.Error e when e.Sod2_error.cls = Sod2_error.Overload -> None)
        samples
    in
    let completed = ref 0 in
    List.iter
      (function
        | None -> ()
        | Some t -> (
          match Engine.await engine t with
          | _ -> incr completed
          | exception Sod2_error.Error _ -> ()))
      tickets;
    let elapsed = (Sod2.Clock.now_us () -. t0) /. 1e6 in
    Engine.shutdown engine;
    let st = Engine.stats engine in
    Printf.printf "served %d/%d requests over %d distinct bindings on %d workers (--exec %s)\n"
      !completed requests nenvs st.Engine.workers (Executor.config_to_string cfg);
    Printf.printf "  wall time:     %8.1f ms  (%.1f req/s offered%s)\n" (elapsed *. 1000.0)
      (float_of_int requests /. elapsed)
      (if arrival_rate > 0.0 then Printf.sprintf ", Poisson target %.1f req/s" arrival_rate
       else ", back-to-back");
    Printf.printf "  latency:       mean %.2f ms, p50 %.2f, p95 %.2f, p99 %.2f, max %.2f ms\n"
      (st.Engine.total_latency_us /. float_of_int (max 1 st.Engine.completed) /. 1000.0)
      (st.Engine.p50_latency_us /. 1000.0) (st.Engine.p95_latency_us /. 1000.0)
      (st.Engine.p99_latency_us /. 1000.0) (st.Engine.max_latency_us /. 1000.0);
    Printf.printf "  overload:      %d rejected, %d shed, %d expired (policy %s%s%s)\n"
      st.Engine.rejected st.Engine.shed st.Engine.expired overload
      (match queue_cap with Some n -> Printf.sprintf ", queue cap %d" n | None -> "")
      (match deadline_ms with
       | Some ms -> Printf.sprintf ", deadline %.1f ms" ms
       | None -> "");
    Printf.printf "  resilience:    %d worker restarts, %d breaker trips, degraded=%b\n"
      st.Engine.worker_restarts st.Engine.breaker_open st.Engine.degraded;
    if tune_cache <> None || st.Engine.warm_classes > 0 then
      Printf.printf
        "  tuning:        %d classes warm-started, %d serving-time measurements\n"
        st.Engine.warm_classes
        (Sod2.Tune_measure.measurement_count ());
    Printf.printf "  micro-batched: %d requests (max batch %d), queue peak %d\n"
      st.Engine.batched max_batch st.Engine.queue_peak;
    Array.iteri
      (fun w n ->
        Printf.printf "  worker %d:      %d runs, %.1f ms busy\n" w n
          (st.Engine.busy_us.(w) /. 1000.0))
      st.Engine.worker_runs;
    let count kind = Profile.Counters.count ~profile:profile.Profile.name ~kind in
    Printf.printf "  plan cache:    %d bindings, %d hits, %d misses\n"
      st.Engine.plan_keys (count "plan-cache-hit") (count "plan-cache-miss");
    (* An int8 artifact on a non-naive backend must have run int8 kernels. *)
    if c.Sod2.Pipeline.quant then begin
      Printf.printf "  int8:          %d quantized weights, %d int8 kernel calls\n"
        (Hashtbl.length c.Sod2.Pipeline.quant_weights) (count "quant-kernel");
      if cfg.Executor.backend <> Backend.Naive && count "quant-kernel" = 0 then begin
        Printf.printf "  FAILED:        quantized artifact ran no int8 kernel\n";
        exit 1
      end
    end;
    if st.Engine.failed > 0 then begin
      Printf.printf "  FAILED:        %d requests\n" st.Engine.failed;
      exit 1
    end
  in
  let requests =
    Arg.(value & opt int 32
         & info [ "requests"; "n" ] ~docv:"N" ~doc:"Inference requests to submit.")
  in
  let workers =
    Arg.(value & opt int 4
         & info [ "workers"; "k" ] ~docv:"K"
             ~doc:"Worker slots (each owns a private arena and backend).")
  in
  let max_batch =
    Arg.(value & opt int 4
         & info [ "max-batch" ] ~docv:"B"
             ~doc:"Micro-batch bound: a worker claims up to B queued requests \
                   sharing one shape binding; 1 disables batching.")
  in
  let arrival_rate =
    Arg.(value & opt float 0.0
         & info [ "arrival-rate" ] ~docv:"R"
             ~doc:"Open-loop Poisson arrival rate in requests/second; 0 (the \
                   default) submits back-to-back.  Arrivals do not wait for \
                   completions, so a rate above the service capacity drives \
                   the engine into its overload policy.")
  in
  let seed =
    Arg.(value & opt int 42
         & info [ "seed" ] ~docv:"S"
             ~doc:"RNG seed for inputs and Poisson inter-arrival gaps.")
  in
  let queue_cap =
    Arg.(value & opt (some int) None
         & info [ "queue-cap" ] ~docv:"N"
             ~doc:"Bound the request queue at N and arm the --overload policy \
                   (default: unbounded).")
  in
  let deadline_ms =
    Arg.(value & opt (some float) None
         & info [ "deadline-ms" ] ~docv:"MS"
             ~doc:"Per-request deadline in milliseconds, relative to submit; \
                   requests still queued when it passes are expired without \
                   executing.")
  in
  let overload =
    Arg.(value & opt string "reject"
         & info [ "overload" ] ~docv:"POLICY"
             ~doc:"Full-queue policy: reject (refuse the new request), shed \
                   (evict the oldest queued request) or block (stall the \
                   submitter until there is room).")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Drive a resident concurrent engine: submit N requests with mixed \
             shape bindings over K workers — optionally as an open-loop \
             Poisson stream against a bounded queue with deadlines — and \
             report throughput, latency percentiles, shed/reject/expiry \
             counts, micro-batching and plan-cache behavior.")
    Term.(const run $ model_arg $ device_arg $ requests $ workers $ max_batch $ exec_arg
          $ compile_arg $ arrival_rate $ seed $ queue_cap $ deadline_ms $ overload
          $ tune_cache_arg)

(* --- compare ------------------------------------------------------- *)

let compare_cmd =
  let run model device n =
    let sp = spec_of_name model in
    let profile = profile_of_name device in
    let g = sp.build () in
    let max_dims = Zoo.input_dims sp g (Zoo.max_env sp) in
    let samples = Workload.samples ~n sp in
    Printf.printf "%-10s %12s %12s %12s\n" "framework" "lat min(ms)" "lat max(ms)" "mem max(MB)";
    List.iter
      (fun fw ->
        if Framework.supports fw ~model:sp.name profile.Profile.target then begin
          let session = Framework.create fw profile g ~max_dims in
          let stats =
            List.map
              (fun (sm : Workload.sample) ->
                Framework.run session ~input_dims:(Zoo.input_dims sp g sm.env)
                  ~gate:sm.gate)
              samples
          in
          let lats = List.map (fun (s : Framework.stats) -> s.latency_us /. 1000.0) stats in
          let mems =
            List.map (fun (s : Framework.stats) -> float_of_int s.peak_bytes /. 1048576.0) stats
          in
          let mn l = List.fold_left Float.min (List.hd l) l in
          let mx l = List.fold_left Float.max (List.hd l) l in
          Printf.printf "%-10s %12.1f %12.1f %12.1f\n" (Framework.kind_name fw) (mn lats)
            (mx lats) (mx mems)
        end)
      [ Framework.Ort; Framework.Mnn; Framework.Tvm_nimble; Framework.Tflite;
        Framework.Dnnfusion; Framework.Sod2_fw ]
  in
  let n = Arg.(value & opt int 20 & info [ "samples"; "n" ] ~doc:"Input samples.") in
  Cmd.v
    (Cmd.info "compare" ~doc:"Compare frameworks on one model.")
    Term.(const run $ model_arg $ device_arg $ n)

(* --- dot ----------------------------------------------------------- *)

let dot_cmd =
  let run model out =
    let sp = spec_of_name model in
    let g = sp.build () in
    let dot = Graph.to_dot g in
    match out with
    | None -> print_string dot
    | Some path ->
      let oc = open_out path in
      output_string oc dot;
      close_out oc;
      Printf.printf "wrote %s\n" path
  in
  let out =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE"
           ~doc:"Output file (stdout if omitted).")
  in
  Cmd.v (Cmd.info "dot" ~doc:"Export a model's graph to Graphviz.")
    Term.(const run $ model_arg $ out)

(* --- save / load ---------------------------------------------------- *)

let save_cmd =
  let run model out =
    let sp = spec_of_name model in
    let g = sp.build () in
    Graph_io.save g out;
    Printf.printf "wrote %s (%d nodes, %d tensors)\n" out (Graph.node_count g)
      (Graph.tensor_count g)
  in
  let out =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"FILE" ~doc:"Output path.")
  in
  Cmd.v
    (Cmd.info "save" ~doc:"Serialize a zoo model to the sod2-graph text format.")
    Term.(const run $ model_arg $ out)

let load_cmd =
  let run path =
    match Graph_io.load path with
    | Ok g ->
      let r = Sod2.Rdp.analyze g in
      Printf.printf "%s: %d nodes, %d tensors, RDP resolution %.1f%%\n" path
        (Graph.node_count g) (Graph.tensor_count g)
        (100.0 *. Sod2.Rdp.resolution_rate g r)
    | Error e ->
      Printf.eprintf "failed to load %s: %s\n" path e;
      exit 1
  in
  let path =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE" ~doc:"Graph file.")
  in
  Cmd.v
    (Cmd.info "load" ~doc:"Load a sod2-graph file and run the RDP analysis on it.")
    Term.(const run $ path)

(* --- validate ------------------------------------------------------- *)

let validate_cmd =
  let run target =
    let validate_graph label g =
      match Validate.check g with
      | Ok () ->
        Printf.printf "%s: OK (%d nodes, %d tensors)\n" label (Graph.node_count g)
          (Graph.tensor_count g);
        0
      | Error defects ->
        Printf.eprintf "%s: %d defect%s\n%s\n" label (List.length defects)
          (if List.length defects = 1 then "" else "s")
          (Validate.report defects);
        1
    in
    let status =
      if Sys.file_exists target then
        (* Graph_io.load already validates; re-validate explicitly so a
           future relaxed loader still gets the full report here. *)
        match Graph_io.load target with
        | Ok g -> validate_graph target g
        | Error e ->
          Printf.eprintf "%s: malformed graph file\n  %s\n" target e;
          1
      else
        match Zoo.by_name target with
        | Some sp -> validate_graph sp.Zoo.name (sp.Zoo.build ())
        | None ->
          Printf.eprintf
            "%s: no such file, and no such zoo model; try `sod2 list`\n" target;
          2
    in
    exit status
  in
  let target =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"GRAPH" ~doc:"A sod2-graph file, or a zoo model name.")
  in
  Cmd.v
    (Cmd.info "validate"
       ~doc:"Validate a graph: dangling tensors, arity, dtypes, cycles, \
             Switch/Combine pairing.  Exits non-zero on any defect.")
    Term.(const run $ target)

(* --- decode (LLM extension) ----------------------------------------- *)

let decode_cmd =
  let run device tokens =
    let profile = profile_of_name device in
    let g = Gpt_decoder.build () in
    let max_dims = Gpt_decoder.input_dims g ~past:1024 ~seq:16 in
    let sod2 = Framework.create Framework.Sod2_fw profile g ~max_dims in
    let mnn = Framework.create Framework.Mnn profile g ~max_dims in
    let gate = Workload.fixed_gates 0 in
    Printf.printf "autoregressive decode, %d tokens after a 16-token prefill (%s):\n"
      tokens profile.Profile.name;
    let totals = ref (0.0, 0.0) in
    for step = 0 to tokens do
      let past, seq = if step = 0 then 16, 16 else 16 + step, 1 in
      let input_dims = Gpt_decoder.input_dims g ~past ~seq in
      let m = Framework.run mnn ~input_dims ~gate in
      let d = Framework.run sod2 ~input_dims ~gate in
      let tm, td = !totals in
      totals :=
        ( tm +. ((m.Framework.reinit_us +. m.Framework.latency_us) /. 1000.0),
          td +. (d.Framework.latency_us /. 1000.0) )
    done;
    let tm, td = !totals in
    Printf.printf "  re-initializing engine: %8.0f ms (recompiles every step)\n" tm;
    Printf.printf "  SoD2:                   %8.1f ms (one symbolic compilation)\n" td;
    Printf.printf "  -> %.0fx\n" (tm /. td)
  in
  let tokens =
    Arg.(value & opt int 32 & info [ "tokens"; "t" ] ~doc:"Tokens to decode.")
  in
  Cmd.v
    (Cmd.info "decode"
       ~doc:"Run the \xC2\xA77 LLM-decoding extension: per-token cost with a growing KV cache.")
    Term.(const run $ device_arg $ tokens)

(* --- experiments --------------------------------------------------- *)

let experiments_cmd =
  let run n =
    List.iter Sod2_experiments.Table.print (Sod2_experiments.Experiments.all ~n ())
  in
  let n = Arg.(value & opt int 50 & info [ "samples"; "n" ] ~doc:"Input samples per model.") in
  Cmd.v
    (Cmd.info "experiments" ~doc:"Reproduce every table and figure of the paper.")
    Term.(const run $ n)

let () =
  let doc = "SoD2: statically optimizing dynamic DNN execution (OCaml reproduction)" in
  let info = Cmd.info "sod2" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [ list_cmd; analyze_cmd; compile_cmd; run_cmd; tune_cmd; serve_cmd; compare_cmd;
            dot_cmd; save_cmd; load_cmd; validate_cmd; decode_cmd; experiments_cmd ]))
