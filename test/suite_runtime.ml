(* Tests for the executor: real vs dry agreement, fusion-transparency
   (fused and unfused execution produce identical tensors), control-flow
   routing, event bookkeeping, and the framework simulators. *)

let cpu = Profile.sd888_cpu

let spec name = Option.get (Zoo.by_name name)
let graph_of name = Sod2_experiments.Harness.graph_of (spec name)

let small_env (sp : Zoo.spec) =
  (* smallest admissible extents, for fast real interpretation *)
  List.fold_left
    (fun e (s, choices) -> Env.bind s (List.hd choices) e)
    Env.empty sp.dim_choices

let tiny_env (sp : Zoo.spec) =
  List.fold_left
    (fun e (s, _) ->
      Env.bind s (if sp.input_desc = "Image" || sp.input_desc = "Text + Image" then 64 else 32) e)
    Env.empty sp.dim_choices

(* One arena run with the RDP cross-check on; the trace carries the arena
   figures. *)
let run_arena ?backend ?(arena = Sod2_runtime.Arena.create ()) c ~env ~inputs =
  Sod2_runtime.Executor.run_real
    ~config:{ Sod2_runtime.Executor.default_config with guarded = true }
    ~env ?backend
    ~memory:(Sod2_runtime.Executor.Arena { arena; env })
    c ~inputs

(* Real and dry execution must agree on every step: the dry walk, fed the
   gate outcomes the real run observed, executes the same groups with the
   same operator extents and records the same tensor lifetimes.  Models
   with [NonZero]/[NonMaxSuppression] are out of scope: dry mode draws
   their extents. *)
let test_real_dry_agreement () =
  List.iter
    (fun name ->
      let sp = spec name in
      let g = graph_of name in
      let drawn (nd : Graph.node) =
        match nd.Graph.op with
        | Op.NonZero | Op.NonMaxSuppression _ -> true
        | _ -> false
      in
      if not (Array.exists drawn (Graph.nodes g)) then begin
        let c = Sod2.Pipeline.compile cpu g in
        let env = tiny_env sp in
        let inputs = Zoo.make_inputs sp g env (Rng.create 7) in
        let real, _ = Sod2_runtime.Executor.run_real c ~inputs in
        let gate tid =
          Option.value ~default:0
            (List.assoc_opt tid real.Sod2_runtime.Executor.gate_outcomes)
        in
        let dry =
          Sod2_runtime.Executor.run_dry ~gate c ~input_dims:(Zoo.input_dims sp g env)
        in
        let open Sod2_runtime.Executor in
        Alcotest.(check (list (pair int (list int))))
          (name ^ ": output extents agree") real.out_dims dry.out_dims;
        Alcotest.(check int) (name ^ ": same nodes executed") real.nodes_executed
          dry.nodes_executed;
        let step_shape (s : group_exec) =
          s.gid, List.map (fun (_, ins, outs) -> ins, outs) s.ops
        in
        Alcotest.(check (list (pair int (list (pair (list (list int)) (list (list int)))))))
          (name ^ ": same groups with the same op extents")
          (List.map step_shape real.steps) (List.map step_shape dry.steps);
        let lifetime e = e.te_tid, (e.te_alloc, e.te_free) in
        Alcotest.(check (list (pair int (pair int int))))
          (name ^ ": same tensor lifetimes")
          (List.map lifetime real.events) (List.map lifetime dry.events)
      end)
    [
      "codebert"; "conformer"; "yolov6"; "stable-diffusion-encoder"; "segment-anything";
      "skipnet"; "convnet-aig"; "blockdrop"; "ranet";
    ]

(* Fusion must not change results: interpret with the full fusion plan and
   with no fusion at all, and compare output tensors bitwise-ish. *)
let test_fusion_transparent () =
  List.iter
    (fun name ->
      let sp = spec name in
      let g = graph_of name in
      let env = tiny_env sp in
      let inputs = Zoo.make_inputs sp g env (Rng.create 3) in
      let fused = Sod2.Pipeline.compile cpu g in
      let unfused =
        let base = Sod2.Pipeline.compile ~flags:Sod2.Pipeline.no_opts cpu g in
        let fusion_plan = Sod2.Fusion.identity_plan g in
        let exec =
          Sod2.Exec_plan.plan ~strategy:Sod2.Exec_plan.Topological g
            base.Sod2.Pipeline.rdp fusion_plan
            ~env:(Sod2.Pipeline.plan_env base 64)
        in
        { base with Sod2.Pipeline.fusion_plan; exec }
      in
      let _, outs_fused = Sod2_runtime.Executor.run_real fused ~inputs in
      let _, outs_unfused = Sod2_runtime.Executor.run_real unfused ~inputs in
      List.iter2
        (fun (tid1, t1) (tid2, t2) ->
          Alcotest.(check int) "same output tensor id" tid1 tid2;
          if not (Tensor.approx_equal ~eps:1e-4 t1 t2) then
            Alcotest.failf "%s: fused and unfused outputs differ" name)
        outs_fused outs_unfused)
    [ "codebert"; "yolov6"; "skipnet"; "ranet" ]

(* Selected-only and all-paths control flow must produce the same outputs:
   the paths not selected are stripped, not blended. *)
let test_control_flow_equivalence () =
  List.iter
    (fun name ->
      let sp = spec name in
      let g = graph_of name in
      let env = tiny_env sp in
      let inputs = Zoo.make_inputs sp g env (Rng.create 5) in
      let c = Sod2.Pipeline.compile cpu g in
      let run control =
        Sod2_runtime.Executor.run_real
          ~config:{ Sod2_runtime.Executor.default_config with control } c ~inputs
      in
      let sel_trace, sel = run Sod2_runtime.Executor.Selected_only in
      let all_trace, all = run Sod2_runtime.Executor.All_paths in
      Alcotest.(check bool)
        (name ^ ": all-paths executes at least as much")
        true
        (all_trace.Sod2_runtime.Executor.nodes_executed
        >= sel_trace.Sod2_runtime.Executor.nodes_executed);
      List.iter2
        (fun (_, t1) (_, t2) ->
          if not (Tensor.approx_equal ~eps:1e-4 t1 t2) then
            Alcotest.failf "%s: selected-only and all-paths outputs differ" name)
        sel all)
    (* dgnet's input resolution is fixed at 224², too slow for the
       reference interpreter here; its routing is covered in dry mode *)
    [ "skipnet"; "convnet-aig"; "blockdrop"; "ranet" ]

let test_dgnet_dry_routing () =
  let sp = spec "dgnet" in
  let g = graph_of "dgnet" in
  let c = Sod2.Pipeline.compile cpu g in
  let input_dims = Zoo.input_dims sp g Env.empty in
  let cheap = Sod2_runtime.Executor.run_dry ~gate:(Workload.fixed_gates 0) c ~input_dims in
  let dense = Sod2_runtime.Executor.run_dry ~gate:(Workload.fixed_gates 1) c ~input_dims in
  Alcotest.(check bool) "cheap path is cheaper" true
    (Sod2_runtime.Executor.total_flops cheap < Sod2_runtime.Executor.total_flops dense);
  Alcotest.(check int) "both produce the output" (List.length cheap.out_dims)
    (List.length dense.out_dims)

(* Dry-mode gates route execution: different gate outcomes change the
   executed node count for gated models. *)
let test_dry_gates_route () =
  let sp = spec "skipnet" in
  let g = graph_of "skipnet" in
  let c = Sod2.Pipeline.compile cpu g in
  let input_dims = Zoo.input_dims sp g (small_env sp) in
  let cheap = Sod2_runtime.Executor.run_dry ~gate:(Workload.fixed_gates 0) c ~input_dims in
  let expensive = Sod2_runtime.Executor.run_dry ~gate:(Workload.fixed_gates 1) c ~input_dims in
  Alcotest.(check bool) "skip path executes fewer nodes" true
    (cheap.Sod2_runtime.Executor.nodes_executed
    < expensive.Sod2_runtime.Executor.nodes_executed);
  Alcotest.(check bool) "skip path uses less flops" true
    (Sod2_runtime.Executor.total_flops cheap < Sod2_runtime.Executor.total_flops expensive)

(* Arena execution: interpreting with every planned tensor at its memory-
   plan offset must produce the same outputs as the boxed interpreter — an
   end-to-end proof that the plan's lifetimes and placement are sound. *)
let test_arena_execution () =
  List.iter
    (fun name ->
      let sp = spec name in
      let g = graph_of name in
      let c = Sod2.Pipeline.compile cpu g in
      let env = tiny_env sp in
      let inputs = Zoo.make_inputs sp g env (Rng.create 11) in
      let _, boxed = Sod2_runtime.Executor.run_real c ~inputs in
      let arena, arena_outs = run_arena c ~env ~inputs in
      Alcotest.(check bool) (name ^ ": tensors lived in the arena") true
        (arena.Sod2_runtime.Executor.arena_resident > 0);
      Alcotest.(check bool) (name ^ ": arena was sized") true
        (arena.Sod2_runtime.Executor.arena_bytes > 0);
      List.iter2
        (fun (t1, v1) (t2, v2) ->
          Alcotest.(check int) "same output id" t1 t2;
          if not (Tensor.approx_equal ~eps:1e-4 v1 v2) then
            Alcotest.failf "%s: arena execution corrupted outputs" name)
        boxed arena_outs)
    [ "codebert"; "yolov6"; "skipnet"; "ranet"; "conformer" ]

(* A Sub recurrence where every intermediate keeps two consumers (the last
   two values are both graph outputs), so no fusion group forms and every
   step takes the destination-passing path. *)
let stream_graph ~steps dims =
  let b = Graph.Builder.create () in
  let x = Graph.Builder.input b ~name:"x" (Shape.of_ints dims) in
  let c0 = Graph.Builder.const b ~name:"c" (Tensor.full_f dims 0.5) in
  let prev = ref x and cur = ref (Graph.Builder.node1 b (Op.Binary Op.Sub) [ x; c0 ]) in
  for _ = 2 to steps do
    let nxt = Graph.Builder.node1 b (Op.Binary Op.Sub) [ !cur; !prev ] in
    prev := !cur;
    cur := nxt
  done;
  Graph.Builder.set_outputs b [ !cur; !prev ];
  x, Graph.Builder.finish b

(* Steady state (satellite of the zero-copy arena work): the second arena
   inference over the same binding must re-plan nothing (plan served from
   the per-binding cache) and copy nothing (every intermediate written
   straight into its slot). *)
let test_arena_steady_state () =
  let x, g = stream_graph ~steps:8 [ 4; 64 ] in
  let c = Sod2.Pipeline.compile cpu g in
  let inputs = [ x, Tensor.rand_uniform (Rng.create 2) [ 4; 64 ] ] in
  let arena = Sod2_runtime.Arena.create () in
  let run () = run_arena ~arena c ~env:Env.empty ~inputs in
  ignore (run ());
  Profile.Counters.reset ();
  let _, res = run () in
  let count k = Option.value ~default:0 (List.assoc_opt k (Profile.Counters.by_kind ())) in
  Alcotest.(check int) "no replanning in steady state" 0 (count "plan-cache-miss");
  Alcotest.(check bool) "plan served from the binding cache" true (count "plan-cache-hit" >= 1);
  Alcotest.(check int) "no intermediate copies" 0 (count "arena-copy-out");
  Alcotest.(check bool) "kernels wrote straight into slots" true
    (count "arena-dest-store" > 0);
  let _, boxed = Sod2_runtime.Executor.run_real c ~inputs in
  List.iter2
    (fun (t1, v1) (t2, v2) ->
      Alcotest.(check int) "same output id" t1 t2;
      if not (Tensor.approx_equal ~eps:1e-5 v1 v2) then
        Alcotest.fail "steady-state arena outputs diverged from the reference")
    boxed res

(* An empty control-flow predicate is a malformed execution, not branch 0:
   both interpreters must raise the structured error. *)
let test_empty_predicate_raises () =
  let b = Graph.Builder.create () in
  let x = Graph.Builder.input b ~name:"x" (Shape.of_ints [ 2 ]) in
  let pred = Graph.Builder.const b ~name:"pred" (Tensor.create_i [ 0 ] [||]) in
  (match Graph.Builder.node b (Op.Switch { branches = 2 }) [ x; pred ] with
  | [ o0; o1 ] ->
    let y = Graph.Builder.node1 b (Op.Combine { branches = 2 }) [ o0; o1; pred ] in
    Graph.Builder.set_outputs b [ y ]
  | _ -> assert false);
  let g = Graph.Builder.finish b in
  let inputs = [ x, Tensor.create_f [ 2 ] [| 1.0; 2.0 |] ] in
  (try
     ignore (Sod2_runtime.Reference.run g ~inputs);
     Alcotest.fail "reference: empty predicate not rejected"
   with Sod2_error.Error { cls = Sod2_error.Shape_mismatch; _ } -> ());
  let c = Sod2.Pipeline.compile cpu g in
  try
    ignore (Sod2_runtime.Executor.run_real c ~inputs);
    Alcotest.fail "executor: empty predicate not rejected"
  with Sod2_error.Error { cls = Sod2_error.Shape_mismatch; _ } -> ()

(* The arena composes with every kernel backend: outputs of steady-state
   (slot-reusing) arena runs agree with the malloc-mode interpreter. *)
let test_arena_backends_match () =
  let sp = spec "codebert" in
  let g = graph_of "codebert" in
  let c = Sod2.Pipeline.compile cpu g in
  let env = tiny_env sp in
  let inputs = Zoo.make_inputs sp g env (Rng.create 17) in
  let _, boxed = Sod2_runtime.Executor.run_real c ~inputs in
  List.iter
    (fun kind ->
      let be = Sod2_runtime.Backend.for_compiled kind c in
      Fun.protect
        ~finally:(fun () -> Sod2_runtime.Backend.shutdown be)
        (fun () ->
          let arena = Sod2_runtime.Arena.create () in
          ignore (run_arena ~backend:be ~arena c ~env ~inputs);
          let _, res = run_arena ~backend:be ~arena c ~env ~inputs in
          List.iter2
            (fun (t1, v1) (t2, v2) ->
              Alcotest.(check int) "same output id" t1 t2;
              if not (Tensor.approx_equal ~eps:1e-3 v1 v2) then
                Alcotest.failf "arena outputs diverge under the %s backend"
                  (Sod2_runtime.Backend.kind_name kind))
            boxed res))
    [
      Sod2_runtime.Backend.Naive; Sod2_runtime.Backend.Blocked;
      Sod2_runtime.Backend.Parallel; Sod2_runtime.Backend.Fused;
    ]

let test_arena_rejects_mismatched_env () =
  let sp = spec "codebert" in
  let g = graph_of "codebert" in
  let c = Sod2.Pipeline.compile cpu g in
  let inputs = Zoo.make_inputs sp g (Env.of_list [ "S", 32 ]) (Rng.create 1) in
  (* plan instantiated for a different sequence length than the inputs *)
  try
    ignore (run_arena c ~env:(Env.of_list [ "S", 48 ]) ~inputs);
    Alcotest.fail "plan/input mismatch not detected"
  with Sod2_error.Error { cls = Sod2_error.Shape_mismatch; _ } -> ()

let test_event_bookkeeping () =
  let sp = spec "yolov6" in
  let g = graph_of "yolov6" in
  let c = Sod2.Pipeline.compile cpu g in
  let trace =
    Sod2_runtime.Executor.run_dry c ~input_dims:(Zoo.input_dims sp g (small_env sp))
  in
  List.iter
    (fun (e : Sod2_runtime.Executor.tensor_event) ->
      if e.te_free < e.te_alloc then Alcotest.fail "event freed before allocated";
      if e.te_bytes <= 0 then Alcotest.fail "event without bytes")
    trace.Sod2_runtime.Executor.events;
  Alcotest.(check bool) "peak positive" true (Sod2_runtime.Executor.peak_live_bytes trace > 0);
  (* steps are sequentially numbered *)
  List.iteri
    (fun i (ge : Sod2_runtime.Executor.group_exec) ->
      Alcotest.(check int) "step index" i ge.Sod2_runtime.Executor.step)
    trace.Sod2_runtime.Executor.steps

let test_unresolved_raises () =
  let b = Graph.Builder.create () in
  let x = Graph.Builder.input b ~name:"x" (Shape.of_dims [ Dim.of_sym "N" ]) in
  let y = Graph.Builder.node1 b Op.If [ x ] in
  Graph.Builder.set_outputs b [ y ];
  let g = Graph.Builder.finish b in
  let c = Sod2.Pipeline.compile cpu g in
  try
    ignore (Sod2_runtime.Executor.run_dry c ~input_dims:[ x, [ 4 ] ]);
    Alcotest.fail "If should be unresolvable in dry mode"
  with Sod2_runtime.Executor.Unresolved _ -> ()

(* EDO sampling is deterministic: two dry runs agree exactly. *)
let test_dry_deterministic () =
  let b = Graph.Builder.create () in
  let x = Graph.Builder.input b ~name:"x" (Shape.of_dims [ Dim.of_sym "N" ]) in
  let nz = Graph.Builder.node1 b Op.NonZero [ x ] in
  let y = Graph.Builder.node1 b (Op.Cast Tensor.F32) [ nz ] in
  Graph.Builder.set_outputs b [ y ];
  let g = Graph.Builder.finish b in
  let c = Sod2.Pipeline.compile cpu g in
  let run () = Sod2_runtime.Executor.run_dry c ~input_dims:[ x, [ 10 ] ] in
  let t1 = run () and t2 = run () in
  Alcotest.(check (list (pair int (list int)))) "same outputs"
    t1.Sod2_runtime.Executor.out_dims t2.Sod2_runtime.Executor.out_dims

(* Kernels dispatch for every non-control operator used by the zoo. *)
let test_kernel_coverage () =
  let seen = Hashtbl.create 64 in
  List.iter
    (fun (sp : Zoo.spec) ->
      let g = graph_of sp.name in
      Array.iter
        (fun (nd : Graph.node) -> Hashtbl.replace seen (Op.name nd.op) ())
        (Graph.nodes g))
    Zoo.all;
  Alcotest.(check bool) "zoo exercises a broad operator set" true
    (Hashtbl.length seen >= 25)

let suite =
  [
    Alcotest.test_case "real/dry agreement" `Slow test_real_dry_agreement;
    Alcotest.test_case "fusion transparency" `Slow test_fusion_transparent;
    Alcotest.test_case "control-flow equivalence" `Slow test_control_flow_equivalence;
    Alcotest.test_case "dry gates route execution" `Quick test_dry_gates_route;
    Alcotest.test_case "dgnet dry routing" `Quick test_dgnet_dry_routing;
    Alcotest.test_case "arena execution matches boxed" `Slow test_arena_execution;
    Alcotest.test_case "arena rejects plan/input mismatch" `Quick test_arena_rejects_mismatched_env;
    Alcotest.test_case "arena steady state re-plans and copies nothing" `Quick
      test_arena_steady_state;
    Alcotest.test_case "empty control-flow predicate raises" `Quick test_empty_predicate_raises;
    Alcotest.test_case "arena composes with every backend" `Slow test_arena_backends_match;
    Alcotest.test_case "event bookkeeping" `Quick test_event_bookkeeping;
    Alcotest.test_case "unresolved dry shapes raise" `Quick test_unresolved_raises;
    Alcotest.test_case "dry mode deterministic" `Quick test_dry_deterministic;
    Alcotest.test_case "kernel coverage" `Quick test_kernel_coverage;
  ]
