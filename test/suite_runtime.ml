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

(* Execution sides, named as their failures print them: naive kernels,
   blocked kernels op by op (the artifact with every fusion template
   withheld), and blocked with fused groups. *)
let op_by_op (c : Sod2.Pipeline.compiled) = { c with fused = Array.map (fun _ -> None) c.fused }
let naive_side = "naive", Sod2_runtime.Backend.Naive, Fun.id
let blocked_side = "blocked", Sod2_runtime.Backend.Blocked, op_by_op
let fused_side = "fused", Sod2_runtime.Backend.Blocked, Fun.id

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
   plan offset must produce the same outputs as the reference interpreter — an
   end-to-end proof that the plan's lifetimes and placement are sound. *)
let test_arena_execution () =
  List.iter
    (fun name ->
      let sp = spec name in
      let g = graph_of name in
      let c = Sod2.Pipeline.compile cpu g in
      let env = tiny_env sp in
      let inputs = Zoo.make_inputs sp g env (Rng.create 11) in
      let boxed = Sod2_runtime.Reference.run c.Sod2.Pipeline.graph ~inputs in
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

(* Steady state: the second arena inference over the same binding must
   allocate no arena (the buffer already fits the plan) and copy nothing
   (every intermediate written straight into its slot). *)
let test_arena_steady_state () =
  let x, g = stream_graph ~steps:8 [ 4; 64 ] in
  let c = Sod2.Pipeline.compile cpu g in
  let inputs = [ x, Tensor.rand_uniform (Rng.create 2) [ 4; 64 ] ] in
  let arena = Sod2_runtime.Arena.create () in
  let run () = run_arena ~arena c ~env:Env.empty ~inputs in
  ignore (run ());
  Profile.Counters.reset ();
  let grows = Sod2_runtime.Arena.grows arena in
  let _, res = run () in
  let count k = Option.value ~default:0 (List.assoc_opt k (Profile.Counters.by_kind ())) in
  Alcotest.(check int) "no arena growth in steady state" grows (Sod2_runtime.Arena.grows arena);
  Alcotest.(check int) "no fresh intermediate buffers" 0 (count "arena-dest-malloc");
  Alcotest.(check bool) "kernels wrote straight into slots" true
    (count "arena-dest-store" > 0);
  let _, boxed = Sod2_runtime.Executor.run_real c ~inputs in
  List.iter2
    (fun (t1, v1) (t2, v2) ->
      Alcotest.(check int) "same output id" t1 t2;
      if not (Tensor.approx_equal ~eps:1e-5 v1 v2) then
        Alcotest.fail "steady-state arena outputs diverged from the reference")
    boxed res

(* Views and routes alias their source's arena slot, so the planner keeps
   the source live until the aliases' last consumer.  [a]'s Flatten and
   its Switch→Combine route are read only after [a]'s last direct
   consumer (the row max), and a larger tensor ([big], then its Exp) is
   produced in between: had the aliases not extended [a]'s lifetime, its
   bytes would be free for reuse there. *)
let alias_graph () =
  let open Graph.Builder in
  let b = create () in
  let n = Dim.of_sym "N" in
  let x = input b ~name:"x" (Shape.of_dims [ n; Dim.of_int 16 ]) in
  let y = input b ~name:"y" (Shape.of_dims [ n; Dim.of_int 64 ]) in
  let w = const b ~name:"w" (Tensor.rand_uniform (Rng.create 5) [ 16; 2 ]) in
  let reduce rkind axes t = node1 b (Op.Reduce { rkind; axes; keepdims = true }) [ t ] in
  let a = node1 b (Op.Unary Op.Relu) [ x ] in
  let flat = node1 b (Op.Flatten { axis = 0 }) [ a ] in
  let logits = node1 b Op.MatMul [ reduce Op.Rsum [ 0 ] x; w ] in
  let pred = node1 b (Op.ArgMax { axis = 1; keepdims = false }) [ logits ] in
  let routed =
    match node b (Op.Switch { branches = 2 }) [ a; pred ] with
    | [ s0; s1 ] ->
      node1 b (Op.Combine { branches = 2 }) [ s0; node1 b (Op.Unary Op.Neg) [ s1 ]; pred ]
    | _ -> assert false
  in
  let big = node1 b (Op.Binary Op.Mul) [ y; reduce Op.Rmax [ 1 ] a ] in
  let rows = reduce Op.Rsum [ 1 ] (node1 b (Op.Unary Op.Exp) [ big ]) in
  let o1 = node1 b (Op.Binary Op.Add) [ routed; rows ] in
  let o2 = node1 b (Op.Binary Op.Mul) [ flat; reduce Op.Rsum [ 0 ] rows ] in
  set_outputs b [ o1; o2 ];
  finish b, x, y, a, [ o1; o2 ]

let test_alias_lifetimes () =
  let g, x, y, a, outs = alias_graph () in
  let c = Sod2.Pipeline.compile cpu g in
  let bits t = Array.map Int64.bits_of_float (Tensor.data_f t) in
  let step_of tid =
    let gid = c.Sod2.Pipeline.fusion_plan.Sod2.Fusion.group_of.((Option.get (Graph.producer g tid)).nid) in
    let rec find i = function
      | [] -> Alcotest.failf "group %d is not in the order" gid
      | g' :: rest -> if g' = gid then i else find (i + 1) rest
    in
    find 0 c.Sod2.Pipeline.exec.Sod2.Exec_plan.order
  in
  List.iter
    (fun n ->
      let env = Env.of_list [ "N", n ] in
      let plan = Sod2.Pipeline.instantiated_plan c env in
      Alcotest.(check (list string))
        (Printf.sprintf "N=%d: plan vets clean" n)
        [] (List.map Sod2.Mem_plan.defect_message (Sod2.Pipeline.vet_plan c env plan));
      match Array.find_opt (fun (al : Sod2.Mem_plan.alloc) -> al.tid = a) plan.allocs with
      | None -> Alcotest.failf "N=%d: the aliased source has no slot" n
      | Some al ->
        List.iter
          (fun o ->
            if al.last_step < step_of o then
              Alcotest.failf "N=%d: source slot dies at step %d, before its alias is read at %d"
                n al.last_step (step_of o))
          outs)
    [ 1; 3; 1 lsl 20 ];
  List.iter
    (fun (label, kind, artifact) ->
      let c = artifact c in
      let be = Sod2_runtime.Backend.for_compiled kind c in
      let arena = Sod2_runtime.Arena.create () in
      Fun.protect ~finally:(fun () -> Sod2_runtime.Backend.shutdown be) @@ fun () ->
      List.iter
        (fun (n, seed) ->
          let env = Env.of_list [ "N", n ] in
          let rng = Rng.create seed in
          let inputs =
            [ x, Tensor.rand_uniform rng [ n; 16 ]; y, Tensor.rand_uniform rng [ n; 64 ] ]
          in
          let want = Sod2_runtime.Reference.run g ~inputs in
          let _, got = run_arena ~backend:be ~arena c ~env ~inputs in
          List.iter2
            (fun (t, w) (t', v) ->
              let what = Printf.sprintf "%s,arena N=%d seed %d: t%d" label n seed t in
              Alcotest.(check int) what t t';
              Alcotest.(check (list int)) (what ^ " dims") (Tensor.dims w) (Tensor.dims v);
              if bits w <> bits v then Alcotest.failf "%s differs from Reference" what)
            want got)
        (List.concat_map (fun n -> List.init 4 (fun s -> n, s)) [ 1; 5; 48 ]))
    [ blocked_side; fused_side ]

(* InstanceNorm, Upsample and a same-kind Cast, the destination kernels
   no zoo model runs, each writing an intermediate with a slot. *)
let norm_upsample_graph () =
  let b = Graph.Builder.create () in
  let rng = Rng.create 13 in
  let x = Graph.Builder.input b ~name:"x" (Shape.of_ints [ 1; 4; 6; 6 ]) in
  let param name = Graph.Builder.const b ~name (Tensor.rand_uniform rng [ 4 ]) in
  let y =
    List.fold_left
      (fun y (op, extra) -> Graph.Builder.node1 b op (y :: extra))
      x
      [
        Op.InstanceNorm { eps = 1e-5 }, [ param "gamma"; param "beta" ];
        Op.Upsample { scales = [ 2; 3 ] }, [];
        Op.Cast Tensor.F32, [];
        Op.Unary Op.Relu, [];
      ]
  in
  Graph.Builder.set_outputs b [ y ];
  Graph.Builder.finish b, x

(* Every float result lands in a planned slot once the arena is warm, and
   every kernel reads its operands in place: on the second run over one
   arena only what the outputs share takes a fresh buffer — boxed
   kernels' float results included — the arena does not grow, and the
   outputs are Reference's,
   bit for bit.  Across the zoo [blocked,arena] runs op by op at the
   smallest and largest binding and with its fused groups at the
   smallest. *)
let test_serving_path_stays_in_arena () =
  let bits t =
    if Tensor.is_float_dtype (Tensor.dtype t) then
      `F (Array.map Int64.bits_of_float (Tensor.data_f t))
    else `I (Tensor.data_i t)
  in
  let check_runs name g runs =
    let compiled = Sod2.Pipeline.compile cpu g in
    List.iter
      (fun (env_name, env, inputs, sides) ->
        let want = Sod2_runtime.Reference.run g ~inputs in
        List.iter
          (fun (label, kind, artifact) ->
            let c = artifact compiled in
            let be = Sod2_runtime.Backend.for_compiled kind c in
            Fun.protect ~finally:(fun () -> Sod2_runtime.Backend.shutdown be) @@ fun () ->
            let arena = Sod2_runtime.Arena.create () in
            ignore (run_arena ~backend:be ~arena c ~env ~inputs);
            Profile.Counters.reset ();
            let grows = Sod2_runtime.Arena.grows arena in
            let _, got = run_arena ~backend:be ~arena c ~env ~inputs in
            let what = Printf.sprintf "%s %s,arena at %s" name label env_name in
            Alcotest.(check int) (what ^ ": arena-dest-malloc") 0
              (Profile.Counters.count ~profile:cpu.Profile.name ~kind:"arena-dest-malloc");
            Alcotest.(check int) (what ^ ": arena grows") grows (Sod2_runtime.Arena.grows arena);
            List.iter2
              (fun (t, w) (t', v) ->
                Alcotest.(check int) (what ^ ": output id") t t';
                if Tensor.dims w <> Tensor.dims v || bits w <> bits v then
                  Alcotest.failf "%s: output t%d differs from Reference" what t)
              want got)
          sides)
      runs
  in
  List.iter
    (fun (sp : Zoo.spec) ->
      let g = sp.Zoo.build () in
      let at name env kinds = name, env, Zoo.make_inputs sp g env (Rng.create 11), kinds in
      check_runs sp.Zoo.name g
        [ at "min_env" (Zoo.min_env sp) [ blocked_side; fused_side ];
          at "max_env" (Zoo.max_env sp) [ blocked_side ] ])
    Zoo.all;
  let g, x = norm_upsample_graph () in
  check_runs "instance-norm/upsample/cast" g
    [ "[1;4;6;6]", Env.empty, [ x, Tensor.rand_uniform (Rng.create 3) [ 1; 4; 6; 6 ] ], [ blocked_side; fused_side ] ]

(* Gemm writes its slot like every other float kernel: three chained
   Gemms covering both transposes, alpha and beta off 1 and a broadcast C
   run bit for bit as Reference runs them, and each intermediate is
   stored straight into its slot. *)
let test_gemm_writes_its_slot () =
  let b = Graph.Builder.create () in
  let rng = Rng.create 23 in
  let const name dims = Graph.Builder.const b ~name (Tensor.rand_uniform rng dims) in
  let gemm ?(alpha = 1.0) ?(beta = 1.0) ?(trans_a = false) ?(trans_b = false) inputs =
    Graph.Builder.node1 b (Op.Gemm { alpha; beta; trans_a; trans_b }) inputs
  in
  let x = Graph.Builder.input b ~name:"x" (Shape.of_ints [ 8; 16 ]) in
  (* [8;16]·[24;16]ᵀ + a row C: [8;24] *)
  let g1 = gemm ~alpha:0.5 ~trans_b:true [ x; const "w1" [ 24; 16 ]; const "c1" [ 24 ] ] in
  (* [8;24]ᵀ·[8;12] + 2 × a column C: [24;12] *)
  let g2 = gemm ~beta:2.0 ~trans_a:true [ g1; const "w2" [ 8; 12 ]; const "c2" [ 24; 1 ] ] in
  (* alpha and beta both off 1, C one element *)
  let g3 = gemm ~alpha:1.5 ~beta:0.25 [ g2; const "w3" [ 12; 10 ]; const "c3" [ 1 ] ] in
  Graph.Builder.set_outputs b [ g3 ];
  let g = Graph.Builder.finish b in
  let c = Sod2.Pipeline.compile cpu g in
  let inputs = [ x, Tensor.rand_uniform (Rng.create 5) [ 8; 16 ] ] in
  let be = Sod2_runtime.Backend.for_compiled Sod2_runtime.Backend.Blocked c in
  Fun.protect ~finally:(fun () -> Sod2_runtime.Backend.shutdown be) @@ fun () ->
  let arena = Sod2_runtime.Arena.create () in
  ignore (run_arena ~backend:be ~arena c ~env:Env.empty ~inputs);
  Profile.Counters.reset ();
  let _, got = run_arena ~backend:be ~arena c ~env:Env.empty ~inputs in
  let count k = Profile.Counters.count ~profile:cpu.Profile.name ~kind:k in
  Alcotest.(check int) "arena-dest-malloc" 0 (count "arena-dest-malloc");
  Alcotest.(check int) "both intermediates stored in their slots" 2 (count "arena-dest-store");
  let bits t = Array.map Int64.bits_of_float (Tensor.data_f t) in
  List.iter2
    (fun (_, w) (_, v) ->
      if bits w <> bits v then Alcotest.fail "the Gemm chain differs from Reference")
    (Sod2_runtime.Reference.run g ~inputs) got

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

(* A request that leaves a graph input unbound is refused up front with a
   structured error naming the input, by both interpreters — never
   answered with a partial output list. *)
let two_input_graph () =
  let b = Graph.Builder.create () in
  let x = Graph.Builder.input b ~name:"x" (Shape.of_ints [ 2 ]) in
  let y = Graph.Builder.input b ~name:"y" (Shape.of_ints [ 2 ]) in
  let sx = Graph.Builder.node1 b (Op.Unary Op.Relu) [ x ] in
  let sy = Graph.Builder.node1 b (Op.Unary Op.Relu) [ y ] in
  Graph.Builder.set_outputs b [ sx; sy ];
  Graph.Builder.finish b, x, y

let expect_unbound name ~tid f =
  match f () with
  | _ -> Alcotest.failf "%s: ran with an unbound graph input" name
  | exception Sod2_error.Error { cls = Sod2_error.Invalid_graph; ctx; msg } ->
    Alcotest.(check (option int)) (name ^ ": names the input") (Some tid)
      ctx.Sod2_error.tensor;
    let n = String.length msg in
    Alcotest.(check bool) (name ^ ": message names it too") true
      (List.exists (fun i -> String.sub msg i 3 = "(y)") (List.init (max 0 (n - 2)) Fun.id))

let test_run_real_unbound_input () =
  let g, x, y = two_input_graph () in
  let c = Sod2.Pipeline.compile cpu g in
  let inputs = [ x, Tensor.create_f [ 2 ] [| 1.0; -2.0 |] ] in
  expect_unbound "run_real" ~tid:y (fun () -> Sod2_runtime.Executor.run_real c ~inputs);
  expect_unbound "run_real (arena)" ~tid:y (fun () ->
      Sod2_runtime.Executor.run_real
        ~memory:(Sod2_runtime.Executor.Arena { arena = Sod2_runtime.Arena.create (); env = Env.empty })
        c ~inputs);
  (* The engine settles such a request as failed, not completed. *)
  let eng = Sod2_runtime.Engine.create ~workers:1 c in
  Fun.protect
    ~finally:(fun () -> Sod2_runtime.Engine.shutdown eng)
    (fun () ->
      expect_unbound "engine" ~tid:y (fun () ->
          Sod2_runtime.Engine.infer eng ~env:Env.empty ~inputs);
      let st = Sod2_runtime.Engine.stats eng in
      Alcotest.(check int) "engine: counted as failed" 1 st.Sod2_runtime.Engine.failed;
      Alcotest.(check int) "engine: nothing completed" 0 st.Sod2_runtime.Engine.completed)

let test_reference_unbound_input () =
  let g, x, y = two_input_graph () in
  expect_unbound "Reference.run" ~tid:y (fun () ->
      Sod2_runtime.Reference.run g ~inputs:[ x, Tensor.create_f [ 2 ] [| 1.0; -2.0 |] ])

(* The arena composes with every kernel backend: outputs of steady-state
   (slot-reusing) arena runs agree with the malloc-mode interpreter. *)
let test_arena_backends_match () =
  let sp = spec "codebert" in
  let g = graph_of "codebert" in
  let c = Sod2.Pipeline.compile cpu g in
  let env = tiny_env sp in
  let inputs = Zoo.make_inputs sp g env (Rng.create 17) in
  let boxed = Sod2_runtime.Reference.run c.Sod2.Pipeline.graph ~inputs in
  List.iter
    (fun (label, kind, artifact) ->
      let c = artifact c in
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
                Alcotest.failf "arena outputs diverge on %s" label)
            boxed res))
    [ naive_side; blocked_side; fused_side ]

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

(* Every zoo model's evaluated plan vets clean (no slot out of the arena,
   no wrong size, no overlap of live slots) at both ends of its shape
   range, at random bindings between them, and with every shape variable
   at the extremes 0, 1 and 2^20, where the stacked offsets are furthest
   from the compile binding they were ordered at. *)
let zoo_compiled =
  lazy (List.map (fun sp -> sp, Sod2.Pipeline.compile cpu (graph_of sp.Zoo.name)) Zoo.all)

let prop_zoo_plans_vet_clean =
  QCheck2.Test.make ~name:"plans vet clean across the zoo at min, max, sampled and extreme bindings"
    ~count:10 QCheck2.Gen.(int_range 0 100_000)
    (fun seed ->
      let rng = Rng.create seed in
      List.for_all
        (fun ((sp : Zoo.spec), c) ->
          let extreme v =
            List.fold_left (fun env s -> Env.bind s v env) Env.empty
              (Graph.free_syms c.Sod2.Pipeline.graph)
          in
          List.for_all
            (fun env ->
              match Sod2.Pipeline.vet_plan c env (Sod2.Pipeline.instantiated_plan c env) with
              | [] -> true
              | d :: _ ->
                QCheck2.Test.fail_reportf "%s at %a: %s" sp.name Env.pp env
                  (Sod2.Mem_plan.defect_message d))
            [ Zoo.min_env sp; Zoo.max_env sp; Zoo.sample_env sp rng; extreme 0; extreme 1;
              extreme (1 lsl 20) ])
        (Lazy.force zoo_compiled))

(* Offsets stacked in the compile binding's order may leave holes a
   re-placement would fill; across each model's shape range they may cost
   at most 25% of arena over a full re-placement at the same binding. *)
let prop_zoo_arena_near_replan =
  QCheck2.Test.make ~name:"evaluated arena <= 1.25x re-plan across the zoo" ~count:1
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed ->
      let rng = Rng.create seed in
      List.for_all
        (fun ((sp : Zoo.spec), c) ->
          List.for_all
            (fun env ->
              let evaluated = (Sod2.Pipeline.instantiated_plan c env).Sod2.Mem_plan.arena_bytes
              and replanned = (Oracle.replanned c env).Sod2.Mem_plan.arena_bytes in
              float_of_int evaluated <= 1.25 *. float_of_int replanned
              || QCheck2.Test.fail_reportf "%s at %a: arena %d bytes, re-plan %d" sp.name Env.pp
                   env evaluated replanned)
            (Zoo.min_env sp :: Zoo.max_env sp :: List.init 20 (fun _ -> Zoo.sample_env sp rng)))
        (Lazy.force zoo_compiled))

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
    Alcotest.test_case "views and routes keep their source's slot live" `Quick
      test_alias_lifetimes;
    Alcotest.test_case "serving path writes every float result to its slot" `Quick
      test_serving_path_stays_in_arena;
    Alcotest.test_case "run_real refuses an unbound graph input" `Quick
      test_run_real_unbound_input;
    Alcotest.test_case "Reference.run refuses an unbound graph input" `Quick
      test_reference_unbound_input;
    Alcotest.test_case "arena composes with every backend" `Slow test_arena_backends_match;
    Alcotest.test_case "Gemm chain writes its slots, bit-identical to Reference" `Quick
      test_gemm_writes_its_slot;
    Alcotest.test_case "event bookkeeping" `Quick test_event_bookkeeping;
    Alcotest.test_case "unresolved dry shapes raise" `Quick test_unresolved_raises;
    Alcotest.test_case "dry mode deterministic" `Quick test_dry_deterministic;
    Alcotest.test_case "kernel coverage" `Quick test_kernel_coverage;
    QCheck_alcotest.to_alcotest prop_zoo_plans_vet_clean;
    QCheck_alcotest.to_alcotest prop_zoo_arena_near_replan;
  ]
