(* Tests for ahead-of-time multi-version plans and the Compile_opts
   surface.

   Correctness: for randomized gated graphs and randomized outcome
   vectors, a run through the specialized plan variant must be
   bit-identical to the any-path base plan and to the reference
   topological interpreter — routing specialization must never change a
   number.  Budget overflow and gate misprediction both fall back to the
   base plan transparently.

   Performance contract (counter-based, not timed): a variant run
   performs zero per-group readiness scans ("exec-ready-scan" stays
   flat), and steady-state variant serving re-instantiates no plans
   ("plan-cache-miss" stays flat once a (binding × outcome) pair has been
   seen). *)

module RT = Sod2_runtime

let cpu = Profile.sd888_cpu

let count kind = Profile.Counters.count ~profile:cpu.Profile.name ~kind

(* A chain of [gates] independently-gated blocks over an [8]-vector.
   Branch [j] of every gate applies a distinct nonlinearity, so a wrong
   routing decision changes the output bits.  Predicates are I64 graph
   inputs: statically unresolvable, i.e. genuinely data-dependent
   control regions. *)
let branch_ops = [| Op.Relu; Op.Sigmoid; Op.Tanh |]

let gated_chain ~branches =
  let b = Graph.Builder.create () in
  let x = Graph.Builder.input b ~name:"x" (Shape.of_ints [ 8 ]) in
  let preds =
    Array.mapi
      (fun i _ -> Graph.Builder.input b ~name:(Printf.sprintf "p%d" i) (Shape.of_ints [ 1 ]))
      branches
  in
  let y = ref x in
  Array.iteri
    (fun i nb ->
      let outs = Graph.Builder.node b (Op.Switch { branches = nb }) [ !y; preds.(i) ] in
      let results =
        List.mapi
          (fun j o ->
            Graph.Builder.node1 b (Op.Unary branch_ops.((i + j) mod Array.length branch_ops)) [ o ])
          outs
      in
      y := Graph.Builder.node1 b (Op.Combine { branches = nb }) (results @ [ preds.(i) ]))
    branches;
  (* A tail op after the last Combine so variants also prune/keep plain
     nodes downstream of control flow. *)
  y := Graph.Builder.node1 b (Op.Unary Op.Gelu) [ !y ];
  Graph.Builder.set_outputs b [ !y ];
  Graph.Builder.finish b, x, preds

let inputs_for g x preds outcome =
  ignore g;
  (x, Tensor.create_f [ 8 ] (Array.init 8 (fun i -> float_of_int (i - 3) *. 0.7)))
  :: Array.to_list (Array.map2 (fun p o -> p, Tensor.create_i [ 1 ] [| o |]) preds outcome)

let opts_of spec =
  match Sod2.Compile_opts.of_string spec with
  | Ok o -> o
  | Error e -> Alcotest.failf "bad compile spec %S: %s" spec e

let check_bits name want got =
  List.iter2
    (fun (t1, v1) (t2, v2) ->
      Alcotest.(check int) (name ^ ": output id") t1 t2;
      if not (Tensor.equal v1 v2) then
        Alcotest.failf "%s: outputs are not bit-identical" name)
    want got

(* --- randomized correctness --------------------------------------- *)

let prop_variant_bit_identical =
  QCheck2.Test.make ~name:"variant = any-path = reference (random gated graphs)"
    ~count:60
    QCheck2.Gen.(tup2 (int_range 1 3) (int_range 0 100000))
    (fun (gates, seed) ->
      let branches = Array.init gates (fun i -> 2 + ((seed / (i + 1)) mod 2)) in
      let outcome = Array.mapi (fun i nb -> (seed / (3 * (i + 1))) mod nb) branches in
      let g, x, preds = gated_chain ~branches in
      let c = Sod2.Pipeline.compile ~opts:(opts_of "variants=16") cpu g in
      let inputs = inputs_for g x preds outcome in
      let reference = RT.Reference.run g ~inputs in
      let _, base = RT.Executor.run_real c ~inputs in
      let runs_before = count "variant-run" in
      let _, specialized = RT.Executor.run_real ~outcomes:outcome c ~inputs in
      check_bits "base" reference base;
      check_bits "variant" reference specialized;
      Alcotest.(check int) "run went through the variant" (runs_before + 1)
        (count "variant-run");
      true)

(* --- budget overflow ----------------------------------------------- *)

let test_budget_overflow_falls_back () =
  let branches = [| 2; 2; 2 |] in
  let g, x, preds = gated_chain ~branches in
  let c = Sod2.Pipeline.compile ~opts:(opts_of "variants=2") cpu g in
  let all_outcomes =
    [ [| 0; 0; 0 |]; [| 1; 0; 0 |]; [| 0; 1; 0 |]; [| 1; 1; 1 |] ]
  in
  let overflow_before = count "variant-overflow" in
  List.iter
    (fun outcome ->
      let inputs = inputs_for g x preds outcome in
      let reference = RT.Reference.run g ~inputs in
      let _, outs = RT.Executor.run_real ~outcomes:outcome c ~inputs in
      check_bits "overflow fallback" reference outs)
    all_outcomes;
  Alcotest.(check int) "budget kept exactly 2 variants" 2
    (Hashtbl.length c.Sod2.Pipeline.variants);
  Alcotest.(check bool) "overflow was counted" true
    (count "variant-overflow" > overflow_before)

(* --- misprediction -------------------------------------------------- *)

let test_mispredict_falls_back () =
  let branches = [| 2; 2 |] in
  let g, x, preds = gated_chain ~branches in
  let c = Sod2.Pipeline.compile ~opts:(opts_of "variants=8") cpu g in
  (* The inputs route 1,1 but we predict 0,0: the gate-0 verification must
     detect the lie and rerun on the any-path plan with fresh state. *)
  let inputs = inputs_for g x preds [| 1; 1 |] in
  let reference = RT.Reference.run g ~inputs in
  let mispred_before = count "variant-mispredict" in
  let runs_before = count "variant-run" in
  let _, outs = RT.Executor.run_real ~outcomes:[| 0; 0 |] c ~inputs in
  check_bits "mispredict fallback" reference outs;
  Alcotest.(check int) "mispredict counted" (mispred_before + 1)
    (count "variant-mispredict");
  Alcotest.(check int) "no variant-run credit for the lie" runs_before
    (count "variant-run")

(* --- zero per-node branch resolution, zero-miss steady state -------- *)

let test_variant_steady_state_counters () =
  let branches = [| 2; 2 |] in
  let g, x, preds = gated_chain ~branches in
  let c = Sod2.Pipeline.compile ~opts:(opts_of "variants=8") cpu g in
  let outcome = [| 1; 0 |] in
  let inputs = inputs_for g x preds outcome in
  let env = Env.empty in
  let arena = RT.Arena.create () in
  let memory = RT.Executor.Arena { arena; env } in
  let run ?outcomes () = snd (RT.Executor.run_real ~memory ?outcomes c ~inputs) in
  let reference = RT.Reference.run g ~inputs in
  (* Base run: readiness scans happen.  Variant run: none. *)
  let scans0 = count "exec-ready-scan" in
  check_bits "arena base" reference (run ());
  let scans_base = count "exec-ready-scan" - scans0 in
  Alcotest.(check bool) "base plan scans readiness" true (scans_base > 0);
  let scans1 = count "exec-ready-scan" in
  check_bits "arena variant" reference (run ~outcomes:outcome ());
  Alcotest.(check int) "variant run performs zero readiness scans" 0
    (count "exec-ready-scan" - scans1);
  (* Steady state: the (binding × outcome) plan is cached — no further
     instantiation, one hit per run. *)
  let misses = count "plan-cache-miss" in
  let hits = count "plan-cache-hit" in
  for _ = 1 to 4 do
    check_bits "steady variant" reference (run ~outcomes:outcome ())
  done;
  Alcotest.(check int) "zero plan-cache misses in steady state" misses
    (count "plan-cache-miss");
  Alcotest.(check int) "every steady run hit the variant plan" (hits + 4)
    (count "plan-cache-hit")

(* --- AOT enumeration ------------------------------------------------ *)

let test_aot_enumeration () =
  let branches = [| 2; 2 |] in
  let g, _, _ = gated_chain ~branches in
  (* Budget covers the full outcome space: all four variants precompiled. *)
  let c = Sod2.Pipeline.compile ~opts:(opts_of "variants=4") cpu g in
  Alcotest.(check int) "full space enumerated at compile" 4
    (Hashtbl.length c.Sod2.Pipeline.variants);
  (* Budget below the space: nothing enumerated wholesale, explicit AOT
     vectors still compiled. *)
  let c2 = Sod2.Pipeline.compile ~opts:(opts_of "variants=2,aot=10") cpu g in
  Alcotest.(check int) "only the requested vector" 1
    (Hashtbl.length c2.Sod2.Pipeline.variants);
  Alcotest.(check bool) "keyed by its outcome key" true
    (Hashtbl.mem c2.Sod2.Pipeline.variants "10");
  (* variants=0 disables the machinery entirely. *)
  let c3 = Sod2.Pipeline.compile cpu g in
  Alcotest.(check (option unit)) "no budget, no variant"
    None
    (Option.map ignore (Sod2.Pipeline.variant c3 ~outcome:[| 0; 0 |]))

(* --- outcome-key round-trip ----------------------------------------- *)

let prop_outcome_key_roundtrip =
  QCheck2.Test.make ~name:"outcome_key/outcome_of_key round-trip" ~count:200
    QCheck2.Gen.(list_size (int_range 1 6) (int_range (-1) 12))
    (fun digits ->
      let v = Array.of_list digits in
      match Sod2.Multi_version.outcome_of_key (Sod2.Multi_version.outcome_key v) with
      | Some w -> w = v
      | None -> false)

(* --- Compile_opts round-trip ---------------------------------------- *)

let prop_compile_opts_roundtrip =
  QCheck2.Test.make ~name:"Compile_opts.of_string/to_string round-trip" ~count:200
    QCheck2.Gen.(
      tup4 (int_range 0 2) (int_range 0 3) (int_range 0 128) (int_range 0 16))
    (fun (dt, flags, sym, variants) ->
      let tokens =
        List.concat
          [
            (match dt with 1 -> [ "f32" ] | 2 -> [ "f64" ] | _ -> []);
            (if flags land 1 <> 0 then [ "int8" ] else []);
            (if flags land 2 <> 0 then [ "nofuse" ] else []);
            (if sym > 0 then [ Printf.sprintf "sym=%d" sym ] else []);
            (if variants > 0 then [ Printf.sprintf "variants=%d" variants ] else []);
            (if variants > 2 then [ "aot=010"; "aot=10" ] else []);
          ]
      in
      let s = String.concat "," tokens in
      match Sod2.Compile_opts.of_string s with
      | Error e -> QCheck2.Test.fail_reportf "of_string %S: %s" s e
      | Ok t -> Sod2.Compile_opts.of_string (Sod2.Compile_opts.to_string t) = Ok t)

let test_exec_config_roundtrip () =
  List.iter
    (fun spec ->
      match RT.Executor.config_of_string spec with
      | Error e -> Alcotest.failf "config_of_string %S: %s" spec e
      | Ok cfg ->
        let s = RT.Executor.config_to_string cfg in
        (match RT.Executor.config_of_string s with
        | Ok cfg' when cfg' = cfg -> ()
        | Ok _ -> Alcotest.failf "%S round-tripped to a different config (%S)" spec s
        | Error e -> Alcotest.failf "re-parse of %S failed: %s" s e))
    [
      "naive"; "fused,arena"; "fused,arena,guarded,variants=8";
      "parallel,malloc,all-paths,f64,sym=32"; "blocked,int8,variants=3,aot=01";
    ]

(* --- engine: predicted variants, vet-once, aggregated stats --------- *)

let test_engine_variant_serving () =
  let branches = [| 2; 2 |] in
  let g, x, preds = gated_chain ~branches in
  let opts = opts_of "variants=8" in
  let c = Sod2.Pipeline.compile ~opts cpu g in
  let cfg =
    {
      RT.Executor.default_config with
      RT.Executor.memory = RT.Executor.Mem_arena;
      guarded = true;
      compile = opts;
    }
  in
  let outcome = [| 1; 0 |] in
  let inputs = inputs_for g x preds outcome in
  let reference = RT.Reference.run g ~inputs in
  let engine = RT.Engine.create ~workers:1 ~max_batch:1 ~config:cfg c in
  Fun.protect
    ~finally:(fun () -> RT.Engine.shutdown engine)
    (fun () ->
      let direct0 = count "engine-variant-direct" in
      (* Request 1 runs the guarded sweep and learns the outcome vector;
         every later same-key request takes the vet-once direct path. *)
      for i = 1 to 6 do
        let r = RT.Engine.infer engine ~env:Env.empty ~inputs in
        check_bits (Printf.sprintf "engine request %d" i) reference
          r.RT.Engine.outputs
      done;
      let misses = count "plan-cache-miss" in
      for i = 7 to 9 do
        let r = RT.Engine.infer engine ~env:Env.empty ~inputs in
        check_bits (Printf.sprintf "engine request %d" i) reference
          r.RT.Engine.outputs
      done;
      Alcotest.(check int) "steady-state serving: zero plan-cache misses"
        misses (count "plan-cache-miss");
      Alcotest.(check bool) "vet-once direct path served the repeats" true
        (count "engine-variant-direct" - direct0 >= 5);
      let st = RT.Engine.stats engine in
      Alcotest.(check int) "one base plan key" 1 st.RT.Engine.plan_keys;
      Alcotest.(check bool) "variant plans reported separately" true
        (st.RT.Engine.plan_variants >= 1);
      Alcotest.(check int) "nothing failed" 0 st.RT.Engine.failed)

(* --- every plan is vetted once per binding ---------------------------- *)

let test_variant_vetted () =
  let branches = [| 2 |] in
  let g, x, preds = gated_chain ~branches in
  let c = Sod2.Pipeline.compile ~opts:(opts_of "variants=4") cpu g in
  match Sod2.Pipeline.variant c ~outcome:[| 1 |] with
  | None -> Alcotest.fail "expected a variant within budget"
  | Some v ->
    List.iter
      (fun (what, variant) ->
        let vets = count "plan-vet" in
        let clean () = snd (Sod2.Pipeline.vetted_plan c ?variant Env.empty) = [] in
        Alcotest.(check bool) (what ^ " plan vets clean") true (clean ());
        Alcotest.(check int) (what ^ ": vetting ran once") (vets + 1) (count "plan-vet");
        Alcotest.(check bool) (what ^ ": second query is cached") true (clean ());
        Alcotest.(check int) (what ^ ": no re-vet") (vets + 1) (count "plan-vet"))
      [ "variant", Some v; "base", None ];
    (* Runs read the cached verdicts: arena executions of both plans
       vet nothing new. *)
    let vets = count "plan-vet" in
    let inputs = inputs_for g x preds [| 1 |] in
    let memory = RT.Executor.Arena { arena = RT.Arena.create (); env = Env.empty } in
    ignore (RT.Executor.run_real ~memory c ~inputs);
    ignore (RT.Executor.run_real ~memory ~outcomes:[| 1 |] c ~inputs);
    Alcotest.(check int) "runs reuse the cached verdicts" vets (count "plan-vet")

(* A variant run reads no readiness, so a predicate nobody supplied
   reaches its Switch without a value: that is a malformed execution and
   raises, rather than routing to branch 0. *)
let test_missing_predicate_raises () =
  let g, x, _ = gated_chain ~branches:[| 2 |] in
  let c = Sod2.Pipeline.compile ~opts:(opts_of "variants=8") cpu g in
  let inputs = [ List.hd (inputs_for g x [||] [||]) ] in
  match RT.Executor.run_real ~outcomes:[| 0 |] c ~inputs with
  | _ -> Alcotest.fail "a Switch with no predicate value ran"
  | exception Sod2_error.Error { cls = Sod2_error.Shape_mismatch; _ } -> ()

let suite =
  [
    Alcotest.test_case "budget overflow falls back to any-path" `Quick
      test_budget_overflow_falls_back;
    Alcotest.test_case "mispredicted gate falls back bit-exactly" `Quick
      test_mispredict_falls_back;
    Alcotest.test_case "variant runs: no readiness scans, zero-miss steady state"
      `Quick test_variant_steady_state_counters;
    Alcotest.test_case "AOT enumeration honors budget and aot= vectors" `Quick
      test_aot_enumeration;
    Alcotest.test_case "exec config round-trips with compile tokens" `Quick
      test_exec_config_roundtrip;
    Alcotest.test_case "engine predicts, vets once and aggregates stats" `Quick
      test_engine_variant_serving;
    Alcotest.test_case "variant plans are vetted once" `Quick test_variant_vetted;
    Alcotest.test_case "missing predicate raises" `Quick test_missing_predicate_raises;
    QCheck_alcotest.to_alcotest prop_variant_bit_identical;
    QCheck_alcotest.to_alcotest prop_outcome_key_roundtrip;
    QCheck_alcotest.to_alcotest prop_compile_opts_roundtrip;
  ]
