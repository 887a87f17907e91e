(* Fused-group kernel execution: fusion groups compiled to block programs
   must equal op-by-op naive execution bit for bit — pointwise/view chains
   and anchored GEMM/Conv groups alike (the block loops inline the
   {!Op_semantics} scalar functions the reference kernels call, registers
   store in the reference's dtypes, and the blocked anchors sum in the
   naive order).  Also covers the per-(group × shape) kernel cache
   counters and the dtype-aware byte accounting of the execution trace. *)

module RT = Sod2_runtime

let cpu = Profile.sd888_cpu

let with_fused c f =
  let be = RT.Backend.for_compiled RT.Backend.Blocked c in
  Fun.protect ~finally:(fun () -> RT.Backend.shutdown be) (fun () -> f be)

let outputs_of ?backend c inputs = snd (RT.Executor.run_real ?backend c ~inputs)

let check_bitexact name want got =
  List.iter2
    (fun (tid, w) (tid', g) ->
      Alcotest.(check int) (name ^ ": output id") tid tid';
      Alcotest.(check (list int)) (name ^ ": dims") (Tensor.dims w) (Tensor.dims g);
      let dw = Tensor.data_f w and dg = Tensor.data_f g in
      Array.iteri
        (fun i v ->
          if not (Float.equal v dg.(i)) then
            Alcotest.failf "%s: t%d element %d: %h <> %h" name tid i v dg.(i))
        dw)
    want got

(* ------------------------------------------------------------------ *)
(* Pointwise chains: bit-for-bit                                       *)
(* ------------------------------------------------------------------ *)

(* x → sigmoid → ×x → gelu → clip, all provably same-shaped under RDP, so
   the whole chain lands in one fusion group with a symbolic leading dim. *)
let pointwise_graph () =
  let b = Graph.Builder.create () in
  let x =
    Graph.Builder.input b ~name:"x" (Shape.of_dims [ Dim.of_sym "N"; Dim.of_int 32 ])
  in
  let s = Graph.Builder.node1 b (Op.Unary Op.Sigmoid) [ x ] in
  let m = Graph.Builder.node1 b (Op.Binary Op.Mul) [ s; x ] in
  let ge = Graph.Builder.node1 b (Op.Unary Op.Gelu) [ m ] in
  let cl = Graph.Builder.node1 b (Op.Clip (0.05, 0.95)) [ ge ] in
  Graph.Builder.set_outputs b [ cl ];
  x, Graph.Builder.finish b

let test_pointwise_chain_bitexact () =
  let x, g = pointwise_graph () in
  let c = Sod2.Pipeline.compile cpu g in
  with_fused c (fun be ->
      List.iter
        (fun (seed, n) ->
          let inputs = [ x, Tensor.rand_uniform (Rng.create seed) [ n; 32 ] ] in
          let want = outputs_of c inputs in
          let got = outputs_of ~backend:be c inputs in
          check_bitexact (Printf.sprintf "chain n=%d" n) want got)
        [ 0, 1; 1, 7; 2, 33; 3, 64 ];
      let fs = RT.Backend.fused_stats be in
      Alcotest.(check bool) "chain actually compiled fused kernels" true
        (fs.RT.Backend.misses >= 1);
      Alcotest.(check int) "no fused rejections" 0 fs.RT.Backend.rejects)

(* Same artifact and backend driven over many random extents: exercises
   variant selection, cache reuse, and the live-variant budget (past the
   cap the group must transparently fall back to op-by-op kernels). *)
let prop_pointwise_random =
  QCheck2.Test.make ~name:"fused pointwise chain matches naive on random extents"
    ~count:20
    QCheck2.Gen.(int_range 1 48)
    (fun n ->
      let x, g = pointwise_graph () in
      let c = Sod2.Pipeline.compile cpu g in
      with_fused c (fun be ->
          let inputs = [ x, Tensor.rand_uniform (Rng.create (7 * n)) [ n; 32 ] ] in
          let want = outputs_of c inputs in
          let got = outputs_of ~backend:be c inputs in
          check_bitexact (Printf.sprintf "random chain n=%d" n) want got;
          true))

(* A pointwise chain over an arena-resident value: [y = x + c] has
   consumers in two groups (the chain and a Neg), so it materializes in
   its planned slot, and the chain is the one templated group. *)
let slot_fed_chain_graph () =
  let b = Graph.Builder.create () in
  let x =
    Graph.Builder.input b ~name:"x" (Shape.of_dims [ Dim.of_sym "N"; Dim.of_int 32 ])
  in
  let k = Graph.Builder.const b ~name:"k" (Tensor.full_f [ 32 ] 0.25) in
  let y = Graph.Builder.node1 b (Op.Binary Op.Add) [ x; k ] in
  let z = Graph.Builder.node1 b (Op.Unary Op.Neg) [ y ] in
  let s = Graph.Builder.node1 b (Op.Unary Op.Sigmoid) [ y ] in
  let m = Graph.Builder.node1 b (Op.Binary Op.Mul) [ s; y ] in
  let ge = Graph.Builder.node1 b (Op.Unary Op.Gelu) [ m ] in
  let cl = Graph.Builder.node1 b (Op.Clip (0.05, 0.95)) [ ge ] in
  Graph.Builder.set_outputs b [ cl; z ];
  x, Graph.Builder.finish b

(* Past its live-variant budget ([fused_variant_cap] = 32 shapes per
   group, failed specializations included) a group runs op-by-op.  Each
   such execution consults the kernel cache once — one overflow, one
   reject — its op-by-op members read the arena-resident input as a view,
   never a copy, and its result is the reference's, bit for bit.  Shapes
   cached before the overflow still hit, and [variants] counts only the
   kernels that compiled. *)
let test_overflow_rejects_once () =
  let x, g = slot_fed_chain_graph () in
  let c = Sod2.Pipeline.compile cpu g in
  let templated =
    Array.to_list c.Sod2.Pipeline.fused |> List.filter Option.is_some |> List.length
  in
  Alcotest.(check int) "one templated group" 1 templated;
  let gid = Option.get (Array.find_index Option.is_some c.Sod2.Pipeline.fused) in
  let count kind = Profile.Counters.count ~profile:cpu.Profile.name ~kind in
  let arena = RT.Arena.create () in
  with_fused c (fun be ->
      let stats () = RT.Backend.fused_stats be in
      let run n =
        let env = Env.of_list [ "N", n ] in
        let inputs = [ x, Tensor.rand_uniform (Rng.create n) [ n; 32 ] ] in
        let _, got =
          RT.Executor.run_real
            ~config:{ RT.Executor.default_config with memory = RT.Executor.Mem_arena }
            ~env ~backend:be ~memory:(RT.Executor.Arena { arena; env }) c ~inputs
        in
        check_bitexact (Printf.sprintf "slot-fed chain n=%d" n)
          (RT.Reference.run c.Sod2.Pipeline.graph ~inputs) got
      in
      for n = 1 to 31 do
        run n
      done;
      (* the 32nd shape fails to specialize (an integer slot), and is
         cached as a failure that takes the last place in the budget *)
      Alcotest.(check bool) "an integer slot does not specialize" true
        (RT.Backend.fused_kernel be c ~gid ~args:[ [ 1; 32 ], Tensor.I64 ] = None);
      Alcotest.(check int) "32 specializations tried" 32 (stats ()).RT.Backend.misses;
      Alcotest.(check int) "variants count the compiled kernels" 31 (stats ()).RT.Backend.variants;
      for n = 32 to 35 do
        let r0 = (stats ()).RT.Backend.rejects in
        let overflows0 = count "fused-variant-overflow" and rejects0 = count "fused-reject" in
        let mallocs0 = count "arena-dest-malloc" in
        run n;
        let step what = Printf.sprintf "n=%d: %s" n what in
        Alcotest.(check int) (step "one reject per execution") (r0 + 1) (stats ()).RT.Backend.rejects;
        Alcotest.(check int) (step "one overflow counted") (overflows0 + 1)
          (count "fused-variant-overflow");
        Alcotest.(check int) (step "one reject counted") (rejects0 + 1) (count "fused-reject");
        Alcotest.(check int) (step "no fresh buffer") mallocs0 (count "arena-dest-malloc")
      done;
      let hits0 = (stats ()).RT.Backend.hits and rejects0 = (stats ()).RT.Backend.rejects in
      run 5;
      Alcotest.(check int) "a shape cached before the overflow hits" (hits0 + 1)
        (stats ()).RT.Backend.hits;
      Alcotest.(check int) "and is not rejected" rejects0 (stats ()).RT.Backend.rejects;
      Alcotest.(check int) "overflow compiles nothing" 32 (stats ()).RT.Backend.misses;
      Alcotest.(check int) "nor adds a variant" 31 (stats ()).RT.Backend.variants)

(* ------------------------------------------------------------------ *)
(* Broadcast groups and the per-shape cache                            *)
(* ------------------------------------------------------------------ *)

let broadcast_graph () =
  let b = Graph.Builder.create () in
  let a =
    Graph.Builder.input b ~name:"a" (Shape.of_dims [ Dim.of_sym "N"; Dim.of_int 16 ])
  in
  let row = Graph.Builder.input b ~name:"row" (Shape.of_ints [ 16 ]) in
  let s = Graph.Builder.node1 b (Op.Binary Op.Add) [ a; row ] in
  let m = Graph.Builder.node1 b (Op.Binary Op.Mul) [ s; a ] in
  let r = Graph.Builder.node1 b (Op.Unary Op.Relu) [ m ] in
  Graph.Builder.set_outputs b [ r ];
  (a, row), Graph.Builder.finish b

let test_broadcast_cache_and_equivalence () =
  let (a, row), g = broadcast_graph () in
  let c = Sod2.Pipeline.compile cpu g in
  Profile.Counters.reset ();
  with_fused c (fun be ->
      let run seed n =
        let rng = Rng.create seed in
        let inputs =
          [ a, Tensor.rand_uniform rng [ n; 16 ]; row, Tensor.rand_uniform rng [ 16 ] ]
        in
        let want = outputs_of c inputs in
        let got = outputs_of ~backend:be c inputs in
        check_bitexact (Printf.sprintf "broadcast n=%d" n) want got
      in
      run 10 4;
      run 11 9;
      (* same extents again: must be served from the kernel cache *)
      run 12 4;
      let fs = RT.Backend.fused_stats be in
      Alcotest.(check int) "one specialization per distinct shape" 2
        fs.RT.Backend.misses;
      Alcotest.(check int) "repeat extents hit the cache" 1 fs.RT.Backend.hits;
      Alcotest.(check int) "no fused rejections" 0 fs.RT.Backend.rejects;
      Alcotest.(check int) "two live variants" 2 fs.RT.Backend.variants;
      (* the same events are visible process-globally *)
      Alcotest.(check bool) "counters recorded per profile" true
        (Profile.Counters.count ~profile:cpu.Profile.name ~kind:"fused-cache-hit" >= 1
        && Profile.Counters.count ~profile:cpu.Profile.name ~kind:"fused-cache-miss"
           >= 2))

(* Mixed precision and values read through maps: a computed [8]-vector
   broadcast over the rows (stored by a stage of its own), an f64 sum
   rounded by an explicit f32 cast, and a transpose of a computed value.
   Each register stores in the dtype the reference would have stored. *)
let mixed_graph () =
  let b = Graph.Builder.create () in
  let x =
    Graph.Builder.input b ~name:"x" (Shape.of_dims [ Dim.of_sym "N"; Dim.of_int 8 ])
  in
  let y = Graph.Builder.input b ~name:"y" (Shape.of_ints [ 8 ]) in
  let s = Graph.Builder.node1 b (Op.Unary Op.Sqrt) [ y ] in
  let a = Graph.Builder.node1 b (Op.Binary Op.Add) [ x; s ] in
  let c = Graph.Builder.node1 b (Op.Cast Tensor.F32) [ a ] in
  let g = Graph.Builder.node1 b (Op.Unary Op.Sigmoid) [ c ] in
  let t = Graph.Builder.node1 b (Op.Transpose [ 1; 0 ]) [ g ] in
  let m = Graph.Builder.node1 b (Op.Binary Op.Mul) [ t; t ] in
  Graph.Builder.set_outputs b [ m ];
  (x, y), Graph.Builder.finish b

let test_mixed_groups_bitexact () =
  let (x, y), g = mixed_graph () in
  let c = Sod2.Pipeline.compile cpu g in
  with_fused c (fun be ->
      List.iter
        (fun (seed, n) ->
          let rng = Rng.create seed in
          let inputs =
            [
              x, Tensor.rand_uniform rng [ n; 8 ];
              y, Tensor.cast (Tensor.rand_uniform rng [ 8 ]) Tensor.F64;
            ]
          in
          let want = outputs_of c inputs in
          let got = outputs_of ~backend:be c inputs in
          check_bitexact (Printf.sprintf "mixed n=%d" n) want got)
        [ 70, 1; 71, 5; 72, 300 ];
      let fs = RT.Backend.fused_stats be in
      Alcotest.(check bool) "mixed groups compiled fused" true (fs.RT.Backend.misses >= 1);
      Alcotest.(check int) "no fused rejections" 0 fs.RT.Backend.rejects)

(* ------------------------------------------------------------------ *)
(* Anchored groups: GEMM/Conv anchors with a pointwise program        *)
(* ------------------------------------------------------------------ *)

let test_matmul_epilogue_close () =
  let b = Graph.Builder.create () in
  let rng = Rng.create 31 in
  let x = Graph.Builder.input b ~name:"x" (Shape.of_ints [ 17; 33 ]) in
  let w = Graph.Builder.const b ~name:"w" (Tensor.rand_uniform rng [ 33; 9 ]) in
  let bias = Graph.Builder.const b ~name:"bias" (Tensor.rand_uniform rng [ 9 ]) in
  let mm = Graph.Builder.node1 b Op.MatMul [ x; w ] in
  let ad = Graph.Builder.node1 b (Op.Binary Op.Add) [ mm; bias ] in
  let out = Graph.Builder.node1 b (Op.Unary Op.Gelu) [ ad ] in
  Graph.Builder.set_outputs b [ out ];
  let g = Graph.Builder.finish b in
  let c = Sod2.Pipeline.compile cpu g in
  with_fused c (fun be ->
      List.iter
        (fun seed ->
          let inputs = [ x, Tensor.rand_uniform (Rng.create seed) [ 17; 33 ] ] in
          let want = outputs_of c inputs in
          let got = outputs_of ~backend:be c inputs in
          check_bitexact (Printf.sprintf "matmul+bias+gelu seed=%d" seed) want got)
        [ 40; 41; 42 ];
      let fs = RT.Backend.fused_stats be in
      Alcotest.(check bool) "anchored kernel compiled" true (fs.RT.Backend.misses >= 1);
      Alcotest.(check int) "no fused rejections" 0 fs.RT.Backend.rejects)

let test_gemm_epilogue_close () =
  let b = Graph.Builder.create () in
  let rng = Rng.create 5 in
  let x = Graph.Builder.input b ~name:"x" (Shape.of_ints [ 17; 33 ]) in
  let w = Graph.Builder.const b ~name:"w" (Tensor.rand_uniform rng [ 9; 33 ]) in
  let c0 = Graph.Builder.const b ~name:"c0" (Tensor.rand_uniform rng [ 9 ]) in
  let gm =
    Graph.Builder.node1 b
      (Op.Gemm { alpha = 0.5; beta = 1.5; trans_a = false; trans_b = true })
      [ x; w; c0 ]
  in
  let out = Graph.Builder.node1 b (Op.Unary Op.Relu) [ gm ] in
  Graph.Builder.set_outputs b [ out ];
  let g = Graph.Builder.finish b in
  let c = Sod2.Pipeline.compile cpu g in
  with_fused c (fun be ->
      List.iter
        (fun seed ->
          let inputs = [ x, Tensor.rand_uniform (Rng.create seed) [ 17; 33 ] ] in
          let want = outputs_of c inputs in
          let got = outputs_of ~backend:be c inputs in
          check_bitexact (Printf.sprintf "gemm+relu seed=%d" seed) want got)
        [ 50; 51; 52 ])

let test_conv_bn_relu_close () =
  let b = Graph.Builder.create () in
  let rng = Rng.create 77 in
  let x = Graph.Builder.input b ~name:"x" (Shape.of_ints [ 2; 3; 12; 12 ]) in
  let w = Graph.Builder.const b ~name:"w" (Tensor.rand_uniform rng [ 8; 3; 3; 3 ]) in
  let bias = Graph.Builder.const b ~name:"bias" (Tensor.rand_uniform rng [ 8 ]) in
  let scale = Graph.Builder.const b ~name:"scale" (Tensor.rand_uniform rng [ 8 ]) in
  let bn_b = Graph.Builder.const b ~name:"bn_b" (Tensor.rand_uniform rng [ 8 ]) in
  let mean = Graph.Builder.const b ~name:"mean" (Tensor.rand_uniform rng [ 8 ]) in
  let var =
    Graph.Builder.const b ~name:"var"
      (Tensor.map_f (fun v -> v +. 0.5) (Tensor.rand_uniform rng [ 8 ]))
  in
  let conv =
    Graph.Builder.node1 b
      (Op.Conv { stride = 1, 1; pads = 1, 1, 1, 1; dilation = 1, 1; groups = 1 })
      [ x; w; bias ]
  in
  let bn =
    Graph.Builder.node1 b (Op.BatchNorm { eps = 1e-5 }) [ conv; scale; bn_b; mean; var ]
  in
  let out = Graph.Builder.node1 b (Op.Unary Op.Relu) [ bn ] in
  Graph.Builder.set_outputs b [ out ];
  let g = Graph.Builder.finish b in
  let c = Sod2.Pipeline.compile cpu g in
  with_fused c (fun be ->
      List.iter
        (fun seed ->
          let inputs = [ x, Tensor.rand_uniform (Rng.create seed) [ 2; 3; 12; 12 ] ] in
          let want = outputs_of c inputs in
          let got = outputs_of ~backend:be c inputs in
          check_bitexact (Printf.sprintf "conv+bn+relu seed=%d" seed) want got)
        [ 60; 61; 62 ];
      let fs = RT.Backend.fused_stats be in
      Alcotest.(check bool) "conv group compiled fused" true
        (fs.RT.Backend.misses >= 1))

(* ------------------------------------------------------------------ *)
(* End-to-end zoo model on the fused backend                           *)
(* ------------------------------------------------------------------ *)

let test_zoo_model_fused_matches_naive () =
  let sp = Option.get (Zoo.by_name "yolov6") in
  let g = Sod2_experiments.Harness.graph_of sp in
  let c = Sod2.Pipeline.compile cpu g in
  let env = Env.of_list [ "H", 64; "W", 64 ] in
  let inputs = Zoo.make_inputs sp g env (Rng.create 13) in
  let want = outputs_of c inputs in
  with_fused c (fun be ->
      let got = outputs_of ~backend:be c inputs in
      check_bitexact "yolov6" want got;
      let fs = RT.Backend.fused_stats be in
      Alcotest.(check bool) "model uses fused kernels" true
        (fs.RT.Backend.misses >= 1))

(* ------------------------------------------------------------------ *)
(* Guarded execution with the fused backend                            *)
(* ------------------------------------------------------------------ *)

let test_guarded_fused_clean () =
  let sp = Option.get (Zoo.by_name "skipnet") in
  let g = Sod2_experiments.Harness.graph_of sp in
  let c = Sod2.Pipeline.compile cpu g in
  let env = Env.of_list [ "H", 64; "W", 64 ] in
  let inputs = Zoo.make_inputs sp g env (Rng.create 3) in
  let expected = RT.Reference.run g ~inputs in
  with_fused c (fun be ->
      let r = RT.Guarded_exec.run ~backend:be c ~env ~inputs in
      Alcotest.(check int) "no incidents" 0 (List.length r.RT.Guarded_exec.incidents);
      List.iter2
        (fun (t1, v1) (t2, v2) ->
          Alcotest.(check int) "output id" t1 t2;
          if not (Tensor.approx_equal ~eps:1e-4 v1 v2) then
            Alcotest.failf "guarded fused output t%d diverges" t1)
        expected r.RT.Guarded_exec.outputs)

(* ------------------------------------------------------------------ *)
(* Dtype-aware trace byte accounting                                   *)
(* ------------------------------------------------------------------ *)

let test_trace_i64_bytes () =
  let b = Graph.Builder.create () in
  let x = Graph.Builder.input b ~name:"x" (Shape.of_ints [ 4 ]) in
  let s = Graph.Builder.node1 b (Op.Binary Op.Add) [ x; x ] in
  let o = Graph.Builder.node1 b (Op.Cast Tensor.F32) [ s ] in
  Graph.Builder.set_outputs b [ s; o ];
  let g = Graph.Builder.finish b in
  let c = Sod2.Pipeline.compile cpu g in
  let inputs = [ x, Tensor.of_int_list [ 1; -2; 3; 4 ] ] in
  let trace, _ = RT.Executor.run_real c ~inputs in
  let bytes_of tid =
    match
      List.find_opt (fun e -> e.RT.Executor.te_tid = tid) trace.RT.Executor.events
    with
    | Some e -> e.RT.Executor.te_bytes
    | None -> Alcotest.failf "no tensor event for t%d" tid
  in
  Alcotest.(check int) "I64 tensor counts 8 bytes/element" 32 (bytes_of s);
  Alcotest.(check int) "F32 tensor counts 4 bytes/element" 16 (bytes_of o)

let suite =
  [
    Alcotest.test_case "pointwise chain: fused = naive (bit-exact)" `Quick
      test_pointwise_chain_bitexact;
    Alcotest.test_case "broadcast group: cache and equivalence" `Quick
      test_broadcast_cache_and_equivalence;
    Alcotest.test_case "matmul epilogue: fused close to naive" `Quick
      test_matmul_epilogue_close;
    Alcotest.test_case "gemm epilogue: fused close to naive" `Quick
      test_gemm_epilogue_close;
    Alcotest.test_case "conv+bn+relu: fused close to naive" `Quick
      test_conv_bn_relu_close;
    Alcotest.test_case "zoo model: fused backend end-to-end" `Quick
      test_zoo_model_fused_matches_naive;
    Alcotest.test_case "guarded exec: fused backend clean run" `Quick
      test_guarded_fused_clean;
    Alcotest.test_case "trace: I64 tensors count 8 bytes" `Quick test_trace_i64_bytes;
    QCheck_alcotest.to_alcotest prop_pointwise_random;
    Alcotest.test_case "variant overflow: one reject, no fresh buffer" `Quick
      test_overflow_rejects_once;
    Alcotest.test_case "mixed precision and mapped values: fused = naive" `Quick
      test_mixed_groups_bitexact;
  ]
