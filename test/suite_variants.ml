(* Tests for gated execution and the Compile_opts surface.

   Correctness: for randomized gated graphs and for the gated zoo models
   over random inputs, selected-only execution (each computed predicate
   picks the groups that run) must be bit-identical to all-paths
   execution of the same plan, and both must agree with the reference
   interpreter — routing must never change a number.

   Steady state (not timed): repeated arena runs of a gated model stay
   bit-identical and grow the arena no further once a binding has been
   seen. *)

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
  (* A tail op after the last Combine, so runs also keep a plain node
     downstream of control flow. *)
  y := Graph.Builder.node1 b (Op.Unary Op.Gelu) [ !y ];
  Graph.Builder.set_outputs b [ !y ];
  Graph.Builder.finish b, x, preds

let inputs_for g x preds outcome =
  ignore g;
  (x, Tensor.create_f [ 8 ] (Array.init 8 (fun i -> float_of_int (i - 3) *. 0.7)))
  :: Array.to_list (Array.map2 (fun p o -> p, Tensor.create_i [ 1 ] [| o |]) preds outcome)

let check_bits name want got =
  List.iter2
    (fun (t1, v1) (t2, v2) ->
      Alcotest.(check int) (name ^ ": output id") t1 t2;
      if not (Tensor.equal v1 v2) then
        Alcotest.failf "%s: outputs are not bit-identical" name)
    want got

(* --- randomized correctness --------------------------------------- *)

let run_with control c ~inputs =
  snd (RT.Executor.run_real ~config:{ RT.Executor.default_config with control } c ~inputs)

let prop_selected_bit_identical =
  QCheck2.Test.make
    ~name:"selected-only = all-paths = Reference, bit for bit (random gated chains)"
    ~count:60
    QCheck2.Gen.(tup2 (int_range 1 3) (int_range 0 100000))
    (fun (gates, seed) ->
      let branches = Array.init gates (fun i -> 2 + ((seed / (i + 1)) mod 2)) in
      let outcome = Array.mapi (fun i nb -> (seed / (3 * (i + 1))) mod nb) branches in
      let g, x, preds = gated_chain ~branches in
      let c = Sod2.Pipeline.compile cpu g in
      let inputs = inputs_for g x preds outcome in
      let reference = RT.Reference.run g ~inputs in
      check_bits "selected-only" reference (run_with RT.Executor.Selected_only c ~inputs);
      check_bits "all-paths" reference (run_with RT.Executor.All_paths c ~inputs);
      true)

(* The same property on the gated zoo models, over random inputs (and so
   random gate outcomes) on the blocked backend with a persistent arena:
   per-dtype bit-identity with the reference holds across backends
   (DESIGN.md §14). *)
let gated_models = [| "skipnet"; "blockdrop"; "dgnet"; "ranet" |]

let prop_zoo_selected_bit_identical =
  QCheck2.Test.make
    ~name:"gated zoo models (blocked,arena): selected-only = all-paths = Reference"
    ~count:8
    QCheck2.Gen.(tup2 (int_range 0 (Array.length gated_models - 1)) (int_range 0 100000))
    (fun (mi, seed) ->
      let sp = Option.get (Zoo.by_name gated_models.(mi)) in
      let g = Sod2_experiments.Harness.graph_of sp in
      let env = Zoo.min_env sp in
      let inputs = Zoo.make_inputs sp g env (Rng.create seed) in
      let c = Sod2.Pipeline.compile cpu g in
      let be = RT.Backend.for_compiled RT.Backend.Blocked c in
      Fun.protect
        ~finally:(fun () -> RT.Backend.shutdown be)
        (fun () ->
          let memory = RT.Executor.Arena { arena = RT.Arena.create (); env } in
          let run control =
            snd
              (RT.Executor.run_real
                 ~config:{ RT.Executor.default_config with control }
                 ~backend:be ~memory c ~inputs)
          in
          let reference = RT.Reference.run g ~inputs in
          check_bits (sp.Zoo.name ^ ": selected-only") reference (run RT.Executor.Selected_only);
          check_bits (sp.Zoo.name ^ ": all-paths") reference (run RT.Executor.All_paths);
          true))

(* --- only live groups run, zero-miss steady state ------------------ *)

let test_gated_steady_state () =
  let branches = [| 2; 2 |] in
  let g, x, preds = gated_chain ~branches in
  let c = Sod2.Pipeline.compile cpu g in
  let inputs = inputs_for g x preds [| 1; 0 |] in
  let arena = RT.Arena.create () in
  let memory = RT.Executor.Arena { arena; env = Env.empty } in
  let run () = RT.Executor.run_real ~memory c ~inputs in
  let reference = RT.Reference.run g ~inputs in
  let tr, outs = run () in
  check_bits "arena run" reference outs;
  (* Each gate's untaken branch is one dead group: two fewer steps than
     all-paths execution of the same plan. *)
  let all_paths, _ =
    RT.Executor.run_real
      ~config:{ RT.Executor.default_config with control = RT.Executor.All_paths }
      ~memory c ~inputs
  in
  Alcotest.(check int) "dead branches do not run"
    (List.length all_paths.RT.Executor.steps - 2)
    (List.length tr.RT.Executor.steps);
  (* Steady state: the arena already holds the binding's plan. *)
  let grows = RT.Arena.grows arena in
  for _ = 1 to 4 do
    check_bits "steady run" reference (snd (run ()))
  done;
  Alcotest.(check int) "no arena growth in steady state" grows (RT.Arena.grows arena)

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
            (* accepted and ignored *)
            (if variants > 0 then [ Printf.sprintf "variants=%d" variants ] else []);
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
      "blocked,malloc,all-paths,f64,sym=32"; "blocked,int8,variants=3";
    ]

(* --- engine: one plan, vetted per run, aggregated stats ------------ *)

let test_engine_gated_serving () =
  let g, x, preds = gated_chain ~branches:[| 2; 2 |] in
  let c = Sod2.Pipeline.compile cpu g in
  let cfg =
    {
      RT.Executor.default_config with
      RT.Executor.memory = RT.Executor.Mem_arena;
      guarded = true;
    }
  in
  let engine = RT.Engine.create ~workers:1 ~config:cfg c in
  Fun.protect
    ~finally:(fun () -> RT.Engine.shutdown engine)
    (fun () ->
      (* Alternating outcomes on one binding: nothing is predicted, so
         nothing mispredicts; every request's plan is vetted and clean. *)
      let request i =
        let inputs = inputs_for g x preds [| i mod 2; (i / 2) mod 2 |] in
        let r = RT.Engine.infer engine ~env:Env.empty ~inputs in
        check_bits (Printf.sprintf "engine request %d" i) (RT.Reference.run g ~inputs)
          r.RT.Engine.outputs
      in
      let fallbacks = count "arena-fallback-malloc" in
      for i = 0 to 8 do
        request i
      done;
      Alcotest.(check int) "every plan vetted clean" fallbacks (count "arena-fallback-malloc");
      let st = RT.Engine.stats engine in
      Alcotest.(check (array int)) "one arena allocation" [| 1 |] st.RT.Engine.arena_grows;
      Alcotest.(check int) "no variant plans" 0 st.RT.Engine.plan_variants;
      Alcotest.(check int) "no degraded runs" 0 st.RT.Engine.degraded_runs;
      Alcotest.(check int) "nothing failed" 0 st.RT.Engine.failed)

(* A predicate nobody supplied is an unbound graph input: the run is
   refused before anything executes, rather than routing to branch 0. *)
let test_missing_predicate_raises () =
  let g, x, preds = gated_chain ~branches:[| 2 |] in
  let c = Sod2.Pipeline.compile cpu g in
  let inputs = [ List.hd (inputs_for g x [||] [||]) ] in
  match RT.Executor.run_real c ~inputs with
  | _ -> Alcotest.fail "a Switch with no predicate value ran"
  | exception Sod2_error.Error { cls = Sod2_error.Invalid_graph; ctx; _ } ->
    Alcotest.(check (option int)) "names the predicate input" (Some preds.(0))
      ctx.Sod2_error.tensor

let suite =
  [
    Alcotest.test_case "gated arena runs: only live groups, no growth in steady state"
      `Quick test_gated_steady_state;
    Alcotest.test_case "exec config round-trips with compile tokens" `Quick
      test_exec_config_roundtrip;
    Alcotest.test_case "engine serves gated requests, vets every plan and aggregates stats"
      `Quick test_engine_gated_serving;
    Alcotest.test_case "missing predicate raises" `Quick test_missing_predicate_raises;
    QCheck_alcotest.to_alcotest prop_selected_bit_identical;
    QCheck_alcotest.to_alcotest prop_zoo_selected_bit_identical;
    QCheck_alcotest.to_alcotest prop_compile_opts_roundtrip;
  ]
