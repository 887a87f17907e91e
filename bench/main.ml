(* Benchmark harness.

   Running this executable regenerates every table and figure of the
   paper's evaluation (printed with the paper's numbers quoted alongside)
   and then times, with Bechamel, the representative computation behind
   each experiment — one [Test.make] per table/figure — plus the core
   compiler passes.

   Usage: dune exec bench/main.exe [-- --samples N] [--no-bechamel]
          [--no-tables] [--no-kernels] [--quick] [--backend KIND] *)

open Bechamel
open Toolkit
module E = Sod2_experiments.Experiments

let samples = ref 50
let run_bechamel = ref true
let run_tables = ref true
let run_kernels = ref true
let run_arena = ref true
let arena_smoke = ref false
let engine_smoke = ref false
let engine_overload_smoke = ref false
let int8_smoke = ref false
let tune_smoke = ref false
let gate_smoke = ref false
let smoke_backend = ref None

let () =
  let rec parse = function
    | [] -> ()
    | "--samples" :: v :: rest ->
      samples := int_of_string v;
      parse rest
    | "--no-bechamel" :: rest ->
      run_bechamel := false;
      parse rest
    | "--no-tables" :: rest ->
      run_tables := false;
      parse rest
    | "--no-kernels" :: rest ->
      run_kernels := false;
      parse rest
    | "--no-arena" :: rest ->
      run_arena := false;
      parse rest
    | "--arena-smoke" :: rest ->
      (* CI mode: only the arena micro-benchmarks + equivalence check. *)
      arena_smoke := true;
      run_bechamel := false;
      run_tables := false;
      run_kernels := false;
      parse rest
    | "--kernels-smoke" :: rest ->
      (* CI mode: kernel speedup tables only — includes the f32-vs-f64
         GEMM throughput gate and writes BENCH_f32.json. *)
      run_bechamel := false;
      run_tables := false;
      run_arena := false;
      parse rest
    | "--engine-smoke" :: rest ->
      (* CI mode: engine throughput scaling + equivalence/zero-replan check. *)
      engine_smoke := true;
      run_bechamel := false;
      run_tables := false;
      run_kernels := false;
      run_arena := false;
      parse rest
    | "--int8-smoke" :: rest ->
      (* CI mode: int8-vs-f32 GEMM gate at 256³ (int8 must be ≥1.5x
         faster on the memory-bound shape) + a bit-exactness spot check;
         writes BENCH_int8.json. *)
      int8_smoke := true;
      run_bechamel := false;
      run_tables := false;
      run_kernels := false;
      run_arena := false;
      parse rest
    | "--tune-smoke" :: rest ->
      (* CI mode: measured GEMM tuning at one fat and one skinny shape —
         default vs analytical-pick vs measured-pick timings, gated on the
         measured pick not losing to the analytical one; writes
         BENCH_tune.json. *)
      tune_smoke := true;
      run_bechamel := false;
      run_tables := false;
      run_kernels := false;
      run_arena := false;
      parse rest
    | "--gate-smoke" :: rest ->
      (* CI mode: all-paths vs selected-only execution of the one plan on
         the gated models, gated on a >=1.15x selected-only geomean;
         writes BENCH_gates.json. *)
      gate_smoke := true;
      run_bechamel := false;
      run_tables := false;
      run_kernels := false;
      run_arena := false;
      parse rest
    | "--engine-overload-smoke" :: rest ->
      (* CI mode: flood a 1-worker engine past its queue cap with deadlines
         and assert it sheds instead of deadlocking. *)
      engine_overload_smoke := true;
      run_bechamel := false;
      run_tables := false;
      run_kernels := false;
      run_arena := false;
      parse rest
    | "--backend" :: v :: rest ->
      (match Sod2_runtime.Backend.kind_of_string v with
      | Some k -> smoke_backend := Some k
      | None -> invalid_arg ("unknown backend " ^ v));
      parse rest
    | "--quick" :: rest ->
      samples := 10;
      parse rest
    | arg :: _ -> invalid_arg ("unknown argument " ^ arg)
  in
  parse (List.tl (Array.to_list Sys.argv))

(* ------------------------------------------------------------------ *)
(* Fixtures shared by the micro-benchmarks                             *)
(* ------------------------------------------------------------------ *)

let cpu = Profile.sd888_cpu
let gpu = Profile.sd888_gpu

let fixture name =
  match Zoo.by_name name with
  | Some sp -> sp
  | None -> assert false

let yolo = fixture "yolov6"
let bert = fixture "codebert"
let snet = fixture "skipnet"

let graph_of = Sod2_experiments.Harness.graph_of

let sess kind profile sp =
  let g = graph_of sp in
  Framework.create kind profile g ~max_dims:(Zoo.input_dims sp g (Zoo.max_env sp))

let sample sp p idx = Workload.sample_at sp ~percentile:p ~idx

let run_once session sp (sm : Workload.sample) =
  Framework.run session ~input_dims:(Zoo.input_dims sp (graph_of sp) sm.env) ~gate:sm.gate

let tests () =
  let yolo_g = graph_of yolo and bert_g = graph_of bert in
  let yolo_sod2 = sess Framework.Sod2_fw cpu yolo in
  let yolo_mnn = sess Framework.Mnn cpu yolo in
  let yolo_mnn_gpu = sess Framework.Mnn gpu yolo in
  let bert_sod2 = sess Framework.Sod2_fw cpu bert in
  let snet_sod2 = sess Framework.Sod2_fw cpu snet in
  let snet_tfl = sess Framework.Tflite cpu snet in
  let snet_dnnf = sess Framework.Dnnfusion cpu snet in
  let yolo_sod2_835 = sess Framework.Sod2_fw Profile.sd835_cpu yolo in
  let bert_rdp = Sod2.Rdp.analyze bert_g in
  let decoder_g = Gpt_decoder.build () in
  let decoder_sod2 =
    Framework.create Framework.Sod2_fw cpu decoder_g
      ~max_dims:(Gpt_decoder.input_dims decoder_g ~past:1024 ~seq:16)
  in
  let mid = sample yolo 0.5 0 and mid_s = sample snet 0.5 0 in
  let snet_lifetimes =
    let trace =
      Sod2_runtime.Executor.run_dry (Framework.compiled snet_sod2)
        ~gate:mid_s.Workload.gate
        ~input_dims:(Zoo.input_dims snet (graph_of snet) mid_s.Workload.env)
    in
    List.map
      (fun (e : Sod2_runtime.Executor.tensor_event) ->
        e.Sod2_runtime.Executor.te_bytes, e.te_alloc, e.te_free)
      trace.Sod2_runtime.Executor.events
  in
  let t name f = Test.make ~name (Staged.stage f) in
  [
    (* core passes *)
    t "core/rdp-analysis(codebert)" (fun () -> Sod2.Rdp.analyze bert_g);
    t "core/fusion-rdp(codebert)" (fun () -> Sod2.Fusion.plan bert_g bert_rdp);
    t "core/autotune-ga(gemm)" (fun () ->
        Sod2.Autotune.tune cpu (Rng.create 7) ~m:128 ~n:512 ~k:128);
    (* one per table / figure *)
    t "table1/mnn-reinit-shape-change" (fun () ->
        ignore (run_once yolo_mnn yolo (sample yolo 0.3 0));
        run_once yolo_mnn yolo (sample yolo 0.8 1));
    t "table5/sod2-memory-accounting" (fun () ->
        (run_once yolo_sod2 yolo mid).Framework.peak_bytes);
    t "table6/sod2-dry-inference" (fun () -> run_once yolo_sod2 yolo mid);
    t "table7/percentile-run" (fun () -> run_once yolo_sod2 yolo (sample yolo 1.0 2));
    t "fig5/ablation-compile" (fun () ->
        Sod2.Pipeline.compile ~flags:{ Sod2.Pipeline.no_opts with fusion = true } cpu
          yolo_g);
    t "fig6/ablation-run" (fun () -> run_once yolo_mnn yolo mid);
    t "fig7/fusion-static-vs-rdp" (fun () ->
        Sod2.Fusion.plan ~mode:Sod2.Fusion.Static_only bert_g bert_rdp);
    t "fig8/exec-partitioning" (fun () ->
        let fp = Sod2.Fusion.plan bert_g bert_rdp in
        Sod2.Exec_plan.plan bert_g bert_rdp fp ~env:(Env.of_list [ "S", 128 ]));
    t "fig9/all-paths-run" (fun () ->
        Framework.run ~control:Sod2_runtime.Executor.All_paths snet_sod2
          ~input_dims:(Zoo.input_dims snet (graph_of snet) mid_s.Workload.env)
          ~gate:(Workload.fixed_gates 1));
    t "fig10/mnn-gpu-size-sweep-point" (fun () -> run_once yolo_mnn_gpu yolo mid);
    t "fig11/tflite-budget-run" (fun () ->
        Framework.run_with_budget snet_tfl ~budget_bytes:(1 lsl 20)
          ~input_dims:(Zoo.input_dims snet (graph_of snet) mid_s.Workload.env)
          ~gate:mid_s.Workload.gate);
    t "fig12/dnnfusion-frozen-run" (fun () -> run_once snet_dnnf snet mid_s);
    t "fig13/sd835-run" (fun () -> run_once yolo_sod2_835 yolo mid);
    t "memplan/peak-first-placement" (fun () ->
        Sod2.Mem_plan.arena_for Sod2.Mem_plan.Peak_first ~lifetimes:snet_lifetimes);
    (* extensions *)
    t "ext/llm-decode-step" (fun () ->
        Framework.run decoder_sod2 ~gate:(Workload.fixed_gates 0)
          ~input_dims:(Gpt_decoder.input_dims decoder_g ~past:128 ~seq:1));
    t "ext/graph-io-roundtrip(skipnet)" (fun () ->
        let g = graph_of snet in
        match Graph_io.of_string (Graph_io.to_string g) with
        | Ok g2 -> Graph.node_count g2
        | Error e -> failwith e);
    (* real interpretation exercising the kernels end to end *)
    t "runtime/real-exec(codebert-S32)" (fun () ->
        let env = Env.of_list [ "S", 32 ] in
        let inputs = Zoo.make_inputs bert bert_g env (Rng.create 5) in
        Sod2_runtime.Executor.run_real (Framework.compiled bert_sod2) ~inputs |> ignore);
  ]

(* ------------------------------------------------------------------ *)
(* Kernel backends: naive vs blocked vs parallel                       *)
(* ------------------------------------------------------------------ *)

module RT = Sod2_runtime

(* Wall-clock (not CPU) time so the domain pool is credited for overlap. *)
let time_runs ?(budget = 0.3) f =
  f ();
  (* warm-up *)
  let t0 = Unix.gettimeofday () in
  f ();
  let once = Unix.gettimeofday () -. t0 in
  let reps = max 2 (min 60 (int_of_float (budget /. Float.max 1e-6 once))) in
  let t0 = Unix.gettimeofday () in
  for _ = 1 to reps do
    f ()
  done;
  (Unix.gettimeofday () -. t0) /. float_of_int reps

(* Deterministic operand storage in the requested element kind.  The
   default is F32 — the kind compiled artifacts now actually run in. *)
let filled ?(dt = Tensor.F32) len =
  let b = Tensor.fbuf_create dt len in
  for i = 0 to len - 1 do
    Tensor.fbuf_set b i ((float_of_int ((i * 7919) mod 1009) /. 1009.0) -. 0.5)
  done;
  b

let kernel_speedups () =
  let versions = Sod2.Multi_version.build cpu in
  let mk kind = RT.Backend.create ~versions kind in
  let naive = mk RT.Backend.Naive in
  let blocked = mk RT.Backend.Blocked in
  let parallel =
    RT.Backend.create ~versions ~threads:cpu.Profile.cores RT.Backend.Parallel
  in
  Fun.protect
    ~finally:(fun () -> RT.Backend.shutdown parallel)
    (fun () ->
      Printf.printf
        "\n=== Kernel backends: GEMM/Conv per shape class (%d domains) ===\n"
        (RT.Backend.pool_size parallel);
      Printf.printf "  %-26s %10s %10s %10s %7s %7s\n" "case" "naive ms" "blocked"
        "parallel" "blk x" "par x";
      let row case tn tb tp =
        Printf.printf "  %-26s %10.3f %10.3f %10.3f %6.2fx %6.2fx\n" case
          (tn *. 1e3) (tb *. 1e3) (tp *. 1e3) (tn /. tb) (tn /. tp)
      in
      let time_gemm be m n k =
        let a = filled (m * k) and b = filled (k * n) in
        let c = Tensor.fbuf_create (Tensor.fbuf_dtype a) (m * n) in
        time_runs (fun () ->
            Tensor.fbuf_fill c 0 (m * n) 0.0;
            RT.Backend.gemm_kernel be ~m ~n ~k ~a ~ao:0 ~b ~bo:0 ~c ~co:0)
      in
      let gemm_case name m n k =
        let tn = time_gemm naive m n k in
        let tb = time_gemm blocked m n k in
        let tp = time_gemm parallel m n k in
        row (Printf.sprintf "%s %dx%dx%d" name m n k) tn tb tp
      in
      gemm_case "gemm/fat" 512 512 256;
      gemm_case "gemm/regular" 256 256 256;
      gemm_case "gemm/skinny" 4 512 256;
      gemm_case "gemm/tiny" 16 16 16;
      (* f32 vs f64 storage on the blocked kernel: halving the element size
         must not cost throughput (the packed inner loops are unchanged);
         the ratio is asserted and recorded in BENCH_f32.json.  Noise only
         ever adds time, so each dtype scores its fastest single call over
         7 alternating rounds of 15 calls (each dtype leads every other
         round): neighbour load on a shared host swings one call by 50%.
         Every round allocates fresh operands, because one allocation's
         placement can slow a dtype by 40% for the whole process. *)
      let m, n, k = 256, 256, 256 in
      let fastest dt best =
        let a = filled ~dt (m * k) and b = filled ~dt (k * n) in
        let c = Tensor.fbuf_create dt (m * n) in
        for _ = 1 to 15 do
          let t0 = Unix.gettimeofday () in
          Tensor.fbuf_fill c 0 (m * n) 0.0;
          RT.Backend.gemm_kernel blocked ~m ~n ~k ~a ~ao:0 ~b ~bo:0 ~c ~co:0;
          best := Float.min !best (Unix.gettimeofday () -. t0)
        done
      in
      let t32 = ref infinity and t64 = ref infinity in
      for r = 1 to 7 do
        if r mod 2 = 1 then (fastest Tensor.F32 t32; fastest Tensor.F64 t64)
        else (fastest Tensor.F64 t64; fastest Tensor.F32 t32)
      done;
      let t32 = !t32 and t64 = !t64 in
      Printf.printf "  %-26s %10s %10.3f %10.3f %6.2fx\n"
        "gemm/f32-vs-f64 256^3" "" (t64 *. 1e3) (t32 *. 1e3) (t64 /. t32);
      let oc = open_out "BENCH_f32.json" in
      Printf.fprintf oc
        "{\n  \"gemm_256\": {\"f32_ms\": %.4f, \"f64_ms\": %.4f, \
         \"f32_over_f64\": %.3f}\n}\n"
        (t32 *. 1e3) (t64 *. 1e3) (t32 /. t64);
      close_out oc;
      Printf.printf "  wrote BENCH_f32.json\n";
      if t32 > t64 *. 1.15 then begin
        Printf.printf "  f32 GEMM slower than the f64 baseline (%.2fx) — FAIL\n"
          (t32 /. t64);
        exit 1
      end;
      let rng = Rng.create 17 in
      let x = Tensor.rand_uniform rng [ 1; 64; 28; 28 ] in
      let w = Tensor.rand_uniform rng [ 64; 64; 3; 3 ] in
      let conv be () =
        ignore
          (RT.Backend.conv2d be ~stride:(1, 1) ~pad:(1, 1, 1, 1) ~dilation:(1, 1)
             ~groups:1 x w None)
      in
      let tn = time_runs (conv naive) in
      let tb = time_runs (conv blocked) in
      let tp = time_runs (conv parallel) in
      row "conv/64x64x3x3 28x28" tn tb tp)

(* ------------------------------------------------------------------ *)
(* Fused-group execution: whole fusion groups as single kernels        *)
(* ------------------------------------------------------------------ *)

let geomean = function
  | [] -> 1.0
  | xs -> exp (List.fold_left (fun a x -> a +. log x) 0.0 xs /. float_of_int (List.length xs))

(* An 8-op pointwise chain: every intermediate is fusion-internal, so the
   fused kernel touches memory once instead of eight times. *)
let chain_graph dims =
  let b = Graph.Builder.create () in
  let x = Graph.Builder.input b ~name:"x" (Shape.of_ints dims) in
  let s = Graph.Builder.node1 b (Op.Unary Op.Sigmoid) [ x ] in
  let m = Graph.Builder.node1 b (Op.Binary Op.Mul) [ s; x ] in
  let ge = Graph.Builder.node1 b (Op.Unary Op.Gelu) [ m ] in
  let cl = Graph.Builder.node1 b (Op.Clip (0.05, 0.95)) [ ge ] in
  let th = Graph.Builder.node1 b (Op.Unary Op.Tanh) [ cl ] in
  let sq = Graph.Builder.node1 b (Op.Binary Op.Mul) [ th; th ] in
  let ad = Graph.Builder.node1 b (Op.Binary Op.Add) [ sq; x ] in
  let out = Graph.Builder.node1 b (Op.Unary Op.Relu) [ ad ] in
  Graph.Builder.set_outputs b [ out ];
  Graph.Builder.finish b

let conv_bn_relu_graph () =
  let b = Graph.Builder.create () in
  let rng = Rng.create 23 in
  let x = Graph.Builder.input b ~name:"x" (Shape.of_ints [ 1; 32; 28; 28 ]) in
  let w = Graph.Builder.const b ~name:"w" (Tensor.rand_uniform rng [ 64; 32; 3; 3 ]) in
  let bias = Graph.Builder.const b ~name:"bias" (Tensor.rand_uniform rng [ 64 ]) in
  let scale = Graph.Builder.const b ~name:"scale" (Tensor.rand_uniform rng [ 64 ]) in
  let bn_b = Graph.Builder.const b ~name:"bn_b" (Tensor.rand_uniform rng [ 64 ]) in
  let mean = Graph.Builder.const b ~name:"mean" (Tensor.rand_uniform rng [ 64 ]) in
  let var =
    Graph.Builder.const b ~name:"var"
      (Tensor.map_f (fun v -> v +. 0.5) (Tensor.rand_uniform rng [ 64 ]))
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
  Graph.Builder.finish b

let gemm_bias_gelu_graph () =
  let b = Graph.Builder.create () in
  let rng = Rng.create 29 in
  let x = Graph.Builder.input b ~name:"x" (Shape.of_ints [ 128; 256 ]) in
  let w = Graph.Builder.const b ~name:"w" (Tensor.rand_uniform rng [ 256; 256 ]) in
  let bias = Graph.Builder.const b ~name:"bias" (Tensor.rand_uniform rng [ 256 ]) in
  let mm = Graph.Builder.node1 b Op.MatMul [ x; w ] in
  let ad = Graph.Builder.node1 b (Op.Binary Op.Add) [ mm; bias ] in
  let out = Graph.Builder.node1 b (Op.Unary Op.Gelu) [ ad ] in
  Graph.Builder.set_outputs b [ out ];
  Graph.Builder.finish b

(* The fused-group gate: each group must run at least this many times
   faster as one fused kernel than op-by-op on the blocked backend. *)
let fused_speedup_floor = 1.0

let fused_speedups () =
  Printf.printf
    "\n=== Fused-group execution: per-op blocked vs single fused kernel ===\n";
  Printf.printf "  %-28s %10s %10s %8s %12s\n" "group" "blocked ms" "fused ms" "speedup"
    "avoided KB";
  let bench_case name g =
    let c = Sod2.Pipeline.compile cpu g in
    let inputs =
      List.map
        (fun tid ->
          match Shape.as_ints (Option.get (Graph.input_shape g tid)) with
          | Some dims -> tid, Tensor.rand_uniform (Rng.create 3) dims
          | None -> assert false)
        (Graph.inputs g)
    in
    let blocked = RT.Backend.for_compiled RT.Backend.Blocked c in
    let fused = RT.Backend.for_compiled RT.Backend.Fused c in
    Fun.protect
      ~finally:(fun () ->
        RT.Backend.shutdown blocked;
        RT.Backend.shutdown fused)
      (fun () ->
        let tb =
          time_runs (fun () ->
              ignore (RT.Executor.run_real ~backend:blocked c ~inputs))
        in
        let tf =
          time_runs (fun () -> ignore (RT.Executor.run_real ~backend:fused c ~inputs))
        in
        (* traffic the fused kernel never materializes: the trace's
           group-internal bytes *)
        let trace, _ = RT.Executor.run_real ~backend:fused c ~inputs in
        let avoided =
          List.fold_left
            (fun acc (s : RT.Executor.group_exec) -> acc + s.RT.Executor.internal_bytes)
            0 trace.RT.Executor.steps
        in
        let fs = RT.Backend.fused_stats fused in
        if fs.RT.Backend.misses = 0 then
          Printf.printf "  %-28s (no fused kernel compiled!)\n" name
        else
          Printf.printf "  %-28s %10.3f %10.3f %7.2fx %12.1f\n" name (tb *. 1e3)
            (tf *. 1e3) (tb /. tf)
            (float_of_int avoided /. 1024.0);
        tb /. tf)
  in
  let chain = bench_case "pointwise-chain 1x64x56x56" (chain_graph [ 1; 64; 56; 56 ]) in
  let conv = bench_case "conv3x3+bn+relu 32->64 28x28" (conv_bn_relu_graph ()) in
  let gemm = bench_case "matmul+bias+gelu 128x256x256" (gemm_bias_gelu_graph ()) in
  let rows = [ "pointwise-chain", chain; "conv3x3+bn+relu", conv; "matmul+bias+gelu", gemm ] in
  Printf.printf "  geomean speedup: %.2fx (floor per group %.2fx)\n"
    (geomean (List.map snd rows))
    fused_speedup_floor;
  match List.filter (fun (_, sp) -> sp < fused_speedup_floor) rows with
  | [] -> Printf.printf "  every group runs faster fused than op-by-op\n"
  | slow ->
    List.iter
      (fun (name, sp) -> Printf.printf "  %s runs slower fused (%.2fx) — FAIL\n" name sp)
      slow;
    exit 1

(* ------------------------------------------------------------------ *)
(* Arena vs malloc: planned destination-passing execution              *)
(* ------------------------------------------------------------------ *)

(* Memory-bound pointwise ladder: each layer is Add then Mul, and the
   layer input feeds both ops — two consumers, so fusion cannot melt a
   layer into its predecessor.  Every layer boundary therefore
   materializes with an arena slot, per-element arithmetic is two cheap
   ops, and the dominant malloc-mode cost (allocation + zero-fill + GC of
   one full tensor per layer) is exactly what destination-passing
   removes. *)
let ladder_graph ~layers dims =
  let b = Graph.Builder.create () in
  let x = Graph.Builder.input b ~name:"x" (Shape.of_ints dims) in
  let c =
    Graph.Builder.const b ~name:"c"
      (Tensor.map_f (fun v -> (0.2 *. v) +. 1.0) (Tensor.rand_uniform (Rng.create 11) dims))
  in
  let z = ref x in
  for _ = 1 to layers do
    let a = Graph.Builder.node1 b (Op.Binary Op.Add) [ !z; c ] in
    z := Graph.Builder.node1 b (Op.Binary Op.Mul) [ !z; a ]
  done;
  Graph.Builder.set_outputs b [ !z ];
  Graph.Builder.finish b

(* Low-arithmetic-intensity conv microbench: each layer is a shallow 1x1
   convolution feeding a Sub recurrence stream [a_j = a_{j-1} - a_{j-2}].
   Every stream tensor (and the conv output) has two consumers, so fusion
   cannot form groups around them: each op executes on the per-op
   destination-passing path and each boundary is an arena-planned tensor —
   malloc mode pays one full-tensor allocation per op that the arena
   removes.  The recurrence x_j = x_{j-1} - x_{j-2} is periodic (period 6),
   so values stay bounded over arbitrarily many steps. *)
let conv_stream_graph ~layers ~subs ~ch ~hw () =
  let b = Graph.Builder.create () in
  let rng = Rng.create 23 in
  let x = Graph.Builder.input b ~name:"x" (Shape.of_ints [ 1; ch; hw; hw ]) in
  (* [p]/[q] are the previous layer's last two stream values; feeding [q]
     into this layer's first Sub gives every stream tensor (except the
     final pair) a second consumer, which keeps fusion from folding the
     tail into a group whose internal tensor would lose its arena slot. *)
  let p = ref x and q = ref x in
  for i = 1 to layers do
    let w =
      Graph.Builder.const b ~name:(Printf.sprintf "w%d" i)
        (Tensor.map_f (fun v -> (v -. 0.5) /. float_of_int ch) (Tensor.rand_uniform rng [ ch; ch; 1; 1 ]))
    in
    let bias =
      Graph.Builder.const b ~name:(Printf.sprintf "cb%d" i) (Tensor.rand_uniform rng [ ch ])
    in
    let conv =
      Graph.Builder.node1 b
        (Op.Conv { stride = 1, 1; pads = 0, 0, 0, 0; dilation = 1, 1; groups = 1 })
        [ !p; w; bias ]
    in
    let prev = ref conv and cur = ref (Graph.Builder.node1 b (Op.Binary Op.Sub) [ conv; !q ]) in
    for _ = 2 to subs do
      let nxt = Graph.Builder.node1 b (Op.Binary Op.Sub) [ !cur; !prev ] in
      prev := !cur;
      cur := nxt
    done;
    p := !cur;
    q := !prev
  done;
  Graph.Builder.set_outputs b [ !p ];
  Graph.Builder.finish b

(* Pure pointwise Sub-recurrence chain: the two-consumer structure defeats
   fusion entirely, so every step is a singleton op whose output is
   arena-planned — per-op destination execution with no boxed intermediates
   and no copy-outs (except the terminal pair feeding the graph output). *)
let chain_stream_graph ~steps dims =
  let b = Graph.Builder.create () in
  let x = Graph.Builder.input b ~name:"x" (Shape.of_ints dims) in
  let c =
    Graph.Builder.const b ~name:"c"
      (Tensor.map_f (fun v -> 0.5 *. v) (Tensor.rand_uniform (Rng.create 17) dims))
  in
  let prev = ref x and cur = ref (Graph.Builder.node1 b (Op.Binary Op.Sub) [ x; c ]) in
  for _ = 2 to steps do
    let nxt = Graph.Builder.node1 b (Op.Binary Op.Sub) [ !cur; !prev ] in
    prev := !cur;
    cur := nxt
  done;
  Graph.Builder.set_outputs b [ !cur ];
  Graph.Builder.finish b

let close_outputs a b =
  List.length a = List.length b
  && List.for_all2
       (fun (ta, va) (tb, vb) ->
         ta = tb
         && Tensor.dims va = Tensor.dims vb
         &&
         let da = Tensor.data_f va and db = Tensor.data_f vb in
         let ok = ref true in
         Array.iteri
           (fun i x ->
             if Float.abs (x -. db.(i)) > 1e-4 *. (1.0 +. Float.abs x) then ok := false)
           da;
         !ok)
       a b

type arena_case = {
  ac_model : string;
  ac_arena_bytes : int;
  ac_instantiate_us : float;
  ac_cached_us : float;
  ac_rows : (string * float * float) list;  (* backend, malloc s, arena s *)
}

let arena_bench ~smoke () =
  Printf.printf "\n=== Arena vs malloc: planned destination-passing execution ===\n";
  Printf.printf "  %-26s %-8s %10s %10s %8s\n" "model" "backend" "malloc ms" "arena ms"
    "speedup";
  let cases = ref [] in
  let equivalence_ok = ref true in
  (* Arena runs keep the RDP boundary cross-check on. *)
  let guarded = { RT.Executor.default_config with guarded = true } in
  let bench_model ?(check = false) name g ~env ~inputs =
    let c = Sod2.Pipeline.compile cpu g in
    let instantiate_us =
      time_runs (fun () ->
          ignore (Sod2.Mem_plan.instantiate c.Sod2.Pipeline.mem_symbolic ~env))
      *. 1e6
    in
    let cached_us =
      time_runs (fun () -> ignore (Sod2.Pipeline.instantiated_plan c env)) *. 1e6
    in
    let arena_bytes = (Sod2.Pipeline.instantiated_plan c env).Sod2.Mem_plan.arena_bytes in
    let reference = ref None in
    let rows =
      List.map
        (fun kind ->
          let be = RT.Backend.for_compiled kind c in
          Fun.protect
            ~finally:(fun () -> RT.Backend.shutdown be)
            (fun () ->
              (* Steady state: one persistent grow-only arena, plan served
                 from the binding cache after the warm-up run inside
                 [time_runs].  Modes are measured in alternating rounds and
                 the minimum kept, so scheduler/GC noise does not land on
                 one mode only. *)
              let memory = RT.Executor.Arena { arena = RT.Arena.create (); env } in
              let arena_run () =
                RT.Executor.run_real ~config:guarded ~env ~backend:be ~memory c ~inputs
              in
              let malloc_run () = RT.Executor.run_real ~backend:be c ~inputs in
              let run_m () = ignore (malloc_run ()) in
              let run_a () = ignore (arena_run ()) in
              let tm = ref infinity and ta = ref infinity in
              for _ = 1 to 5 do
                (* Collect before each window so neither mode is billed for
                   the other's garbage. *)
                Gc.full_major ();
                tm := Float.min !tm (time_runs ~budget:0.12 run_m);
                Gc.full_major ();
                ta := Float.min !ta (time_runs ~budget:0.12 run_a)
              done;
              let tm = !tm and ta = !ta in
              if check then begin
                (* The expected side is the reference interpreter: both
                   memory modes run the executor's destination kernels, so
                   neither can vouch for the other. *)
                if !reference = None then
                  reference := Some (RT.Reference.run c.Sod2.Pipeline.graph ~inputs);
                List.iter
                  (fun (mode, run) ->
                    if not (close_outputs (Option.get !reference) (snd (run ()))) then begin
                      equivalence_ok := false;
                      Printf.printf "  %-26s EQUIVALENCE FAILURE on %s %s outputs!\n" name
                        (RT.Backend.kind_name kind) mode
                    end)
                  [ "malloc", malloc_run; "arena", arena_run ]
              end;
              Printf.printf "  %-26s %-8s %10.3f %10.3f %7.2fx\n" name
                (RT.Backend.kind_name kind) (tm *. 1e3) (ta *. 1e3) (tm /. ta);
              RT.Backend.kind_name kind, tm, ta))
        [ RT.Backend.Naive; RT.Backend.Blocked; RT.Backend.Fused ]
    in
    cases :=
      { ac_model = name; ac_arena_bytes = arena_bytes; ac_instantiate_us = instantiate_us;
        ac_cached_us = cached_us; ac_rows = rows }
      :: !cases
  in
  let chain_dims = [ 256; 1024 ] in
  bench_model ~check:true "chain-stream-256x1024" (chain_stream_graph ~steps:16 chain_dims)
    ~env:Env.empty
    ~inputs:[ 0, Tensor.rand_uniform (Rng.create 3) chain_dims ];
  bench_model ~check:true "chain-ladder-256x1024" (ladder_graph ~layers:8 chain_dims)
    ~env:Env.empty
    ~inputs:[ 0, Tensor.rand_uniform (Rng.create 3) chain_dims ];
  bench_model ~check:true "conv1x1-stream-4x64x64"
    (conv_stream_graph ~layers:5 ~subs:28 ~ch:4 ~hw:64 ())
    ~env:Env.empty
    ~inputs:[ 0, Tensor.rand_uniform (Rng.create 3) [ 1; 4; 64; 64 ] ];
  if not smoke then begin
    let bert_g = graph_of bert in
    let env = Env.of_list [ "S", 32 ] in
    bench_model "codebert-S32" bert_g ~env ~inputs:(Zoo.make_inputs bert bert_g env (Rng.create 5))
  end;
  (* machine-readable trajectory: BENCH_arena.json *)
  let oc = open_out "BENCH_arena.json" in
  Printf.fprintf oc "{\n  \"benchmarks\": [\n";
  let cases = List.rev !cases in
  List.iteri
    (fun i case ->
      Printf.fprintf oc
        "    {\"model\": %S, \"arena_bytes\": %d, \"plan_instantiate_us\": %.2f, \
         \"plan_cached_lookup_us\": %.3f,\n     \"backends\": [" case.ac_model
        case.ac_arena_bytes case.ac_instantiate_us case.ac_cached_us;
      List.iteri
        (fun j (backend, tm, ta) ->
          Printf.fprintf oc
            "%s{\"backend\": %S, \"malloc_ms\": %.4f, \"arena_ms\": %.4f, \
             \"speedup\": %.3f}"
            (if j = 0 then "" else ", ")
            backend (tm *. 1e3) (ta *. 1e3) (tm /. ta))
        case.ac_rows;
      Printf.fprintf oc "]}%s\n" (if i = List.length cases - 1 then "" else ","))
    cases;
  Printf.fprintf oc "  ]\n}\n";
  close_out oc;
  Printf.printf "  wrote BENCH_arena.json\n";
  if not !equivalence_ok then begin
    Printf.printf "  malloc/arena equivalence check FAILED\n";
    exit 1
  end
  else Printf.printf "  malloc and arena outputs match the reference interpreter\n"

(* ------------------------------------------------------------------ *)
(* Engine: concurrent serving throughput vs sequential run_real        *)
(* ------------------------------------------------------------------ *)

(* The arena-friendly serving workload: the Sub-recurrence stream of
   [chain_stream_graph], but with a symbolic batch dimension so requests
   carry genuinely different shape bindings and exercise the per-binding
   plan cache.  Two consumers per stream tensor defeat fusion, so every
   step is one arena-planned destination kernel. *)
let sym_stream_graph ~steps ~cols () =
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

let engine_bench () =
  Printf.printf "\n=== Engine: concurrent serving vs sequential run_real ===\n";
  let cols = 256 and steps = 256 and requests = 32 in
  let g = sym_stream_graph ~steps ~cols () in
  let c = Sod2.Pipeline.compile cpu g in
  (* One deterministic input per binding, so every same-binding request is
     comparable against a single precomputed reference output. *)
  let samples =
    List.map
      (fun bsz ->
        let env = Env.of_list [ "B", bsz ] in
        let inputs = [ 0, Tensor.rand_uniform (Rng.create (100 + bsz)) [ bsz; cols ] ] in
        let reference = RT.Reference.run g ~inputs in
        env, inputs, reference)
      [ 192; 224; 256; 288 ]
  in
  let nbindings = List.length samples in
  let stream = List.init requests (fun i -> List.nth samples (i mod nbindings)) in
  let bit_identical outs ref_outs =
    List.length outs = List.length ref_outs
    && List.for_all2
         (fun (ta, va) (tb, vb) ->
           ta = tb && Tensor.dims va = Tensor.dims vb
           && Tensor.data_f va = Tensor.data_f vb)
         outs ref_outs
  in
  let ok = ref true in
  let zero_miss = ref true in
  (* Sequential baseline: the historical one-shot malloc path, one request
     at a time. *)
  let seq_time =
    ignore (RT.Executor.run_real c ~inputs:(let _, i, _ = List.hd stream in i));
    let t0 = Unix.gettimeofday () in
    List.iter (fun (_, inputs, _) -> ignore (RT.Executor.run_real c ~inputs)) stream;
    Unix.gettimeofday () -. t0
  in
  List.iter
    (fun (_, inputs, reference) ->
      let _, outs = RT.Executor.run_real c ~inputs in
      if not (bit_identical outs reference) then begin
        ok := false;
        Printf.printf "  sequential run_real EQUIVALENCE FAILURE vs reference!\n"
      end)
    samples;
  Printf.printf "  %d requests x %d-step stream, %d distinct bindings\n" requests steps
    nbindings;
  Printf.printf "  sequential run_real: %8.1f ms  (%.1f req/s)\n" (seq_time *. 1e3)
    (float_of_int requests /. seq_time);
  let cfg =
    { RT.Executor.default_config with RT.Executor.memory = RT.Executor.Mem_arena }
  in
  let misses () = Profile.Counters.count ~profile:cpu.Profile.name ~kind:"plan-cache-miss" in
  let sweep workers =
    let eng = RT.Engine.create ~workers ~max_batch:4 ~config:cfg c in
    (* Warm up: every binding a few times per worker, so the shared plan
       cache and each worker's grow-only arena reach steady state. *)
    for _ = 1 to 2 * workers do
      List.iter (fun (env, inputs, _) -> ignore (RT.Engine.infer eng ~env ~inputs)) samples
    done;
    let miss0 = misses () in
    let t0 = Unix.gettimeofday () in
    let tickets =
      List.map (fun (env, inputs, _) -> RT.Engine.submit eng ~env ~inputs) stream
    in
    let results = List.map (RT.Engine.await eng) tickets in
    let dt = Unix.gettimeofday () -. t0 in
    let fresh_misses = misses () - miss0 in
    List.iter2
      (fun (_, _, reference) (r : RT.Engine.result) ->
        if not (bit_identical r.RT.Engine.outputs reference) then begin
          ok := false;
          Printf.printf "  engine (workers=%d) EQUIVALENCE FAILURE vs reference!\n" workers
        end)
      stream results;
    if fresh_misses <> 0 then begin
      zero_miss := false;
      Printf.printf "  engine (workers=%d): %d plan-cache misses after warmup!\n" workers
        fresh_misses
    end;
    let st = RT.Engine.stats eng in
    RT.Engine.shutdown eng;
    Printf.printf
      "  engine %d worker%s:     %8.1f ms  (%.1f req/s, %.2fx vs sequential, %d batched)\n"
      workers
      (if workers = 1 then " " else "s")
      (dt *. 1e3)
      (float_of_int requests /. dt)
      (seq_time /. dt) st.RT.Engine.batched;
    workers, dt, st
  in
  (* Worker counts follow the host: 1, half the cores, all the cores —
     the hardcoded 1/2/4 sweep made a 4-worker run on a 1-CPU box look
     like an engine regression when it was just oversubscription.  2 is
     always included so the sweep exercises actual concurrency (shared
     plan cache, micro-batching) even when recommended_domain_count
     reports 1. *)
  let host_cores = Domain.recommended_domain_count () in
  let worker_counts =
    List.sort_uniq compare [ 1; 2; max 1 (host_cores / 2); host_cores ]
  in
  let sweeps = List.map sweep worker_counts in
  let wmax, dtmax, _ = List.nth sweeps (List.length sweeps - 1) in
  Printf.printf "  throughput at %d workers vs sequential: %.2fx (host has %d cores)\n"
    wmax (seq_time /. dtmax) host_cores;
  let oc = open_out "BENCH_engine.json" in
  Printf.fprintf oc
    "{\n  \"workload\": {\"steps\": %d, \"cols\": %d, \"requests\": %d, \"bindings\": %d},\n"
    steps cols requests nbindings;
  Printf.fprintf oc "  \"host_cores\": %d,\n" host_cores;
  Printf.fprintf oc "  \"sequential_ms\": %.3f,\n  \"engine\": [\n" (seq_time *. 1e3);
  List.iteri
    (fun i (workers, dt, (st : RT.Engine.stats)) ->
      Printf.fprintf oc
        "    {\"workers\": %d, \"wall_ms\": %.3f, \"req_per_s\": %.1f, \"speedup\": \
         %.3f, \"batched\": %d, \"queue_peak\": %d, \"mean_latency_ms\": %.3f}%s\n"
        workers (dt *. 1e3)
        (float_of_int requests /. dt)
        (seq_time /. dt) st.RT.Engine.batched st.RT.Engine.queue_peak
        (st.RT.Engine.total_latency_us /. float_of_int (max 1 st.RT.Engine.completed) /. 1e3)
        (if i = List.length sweeps - 1 then "" else ","))
    sweeps;
  Printf.fprintf oc "  ],\n  \"outputs_bit_identical\": %b, \"zero_miss_steady_state\": %b\n}\n"
    !ok !zero_miss;
  close_out oc;
  Printf.printf "  wrote BENCH_engine.json\n";
  if not !ok then begin
    Printf.printf "  engine equivalence check FAILED\n";
    exit 1
  end;
  if not !zero_miss then begin
    Printf.printf "  steady-state zero-replan check FAILED\n";
    exit 1
  end;
  Printf.printf "  all outputs bit-identical to Reference; zero steady-state plan misses\n"

(* Overload smoke: flood a 1-worker engine far past its queue cap with
   per-request deadlines and a shed-oldest policy.  The assertions are
   liveness and accounting, not throughput: every ticket settles (no
   deadlock), the overflow is shed or expired rather than silently
   dropped, completed+failed+shed+rejected+expired = submitted, the
   completed outputs are bit-identical to Reference, and the latency
   percentiles come out ordered. *)
let engine_overload_bench () =
  Printf.printf "\n=== Engine: overload (bounded queue + deadlines, 1 worker) ===\n";
  let cols = 256 and steps = 128 and requests = 64 and queue_cap = 8 in
  let g = sym_stream_graph ~steps ~cols () in
  let c = Sod2.Pipeline.compile cpu g in
  let samples =
    List.map
      (fun bsz ->
        let env = Env.of_list [ "B", bsz ] in
        let inputs = [ 0, Tensor.rand_uniform (Rng.create (100 + bsz)) [ bsz; cols ] ] in
        let reference = RT.Reference.run g ~inputs in
        env, inputs, reference)
      [ 192; 224; 256; 288 ]
  in
  let stream = List.init requests (fun i -> List.nth samples (i mod List.length samples)) in
  let bit_identical outs ref_outs =
    List.length outs = List.length ref_outs
    && List.for_all2
         (fun (ta, va) (tb, vb) ->
           ta = tb && Tensor.dims va = Tensor.dims vb
           && Tensor.data_f va = Tensor.data_f vb)
         outs ref_outs
  in
  let cfg =
    { RT.Executor.default_config with RT.Executor.memory = RT.Executor.Mem_arena }
  in
  let eng =
    RT.Engine.create ~workers:1 ~max_batch:4 ~queue_cap ~overload:RT.Engine.Shed_oldest
      ~config:cfg c
  in
  (* Warm the plan cache so steady-state service time, not compilation,
     decides what gets shed. *)
  List.iter (fun (env, inputs, _) -> ignore (RT.Engine.infer eng ~env ~inputs)) samples;
  let warmed = List.length samples in
  let t0 = Unix.gettimeofday () in
  let tickets =
    List.map
      (fun (env, inputs, reference) ->
        RT.Engine.submit eng ~deadline_us:10_000.0 ~env ~inputs, reference)
      stream
  in
  let ok = ref true in
  let completed = ref 0 in
  List.iter
    (fun (t, reference) ->
      match RT.Engine.await eng t with
      | r ->
        incr completed;
        if not (bit_identical r.RT.Engine.outputs reference) then begin
          ok := false;
          Printf.printf "  completed request NOT bit-identical to Reference!\n"
        end
      | exception Sod2_error.Error _ -> ())
    tickets;
  let dt = Unix.gettimeofday () -. t0 in
  RT.Engine.shutdown eng;
  let st = RT.Engine.stats eng in
  let settled =
    st.RT.Engine.completed + st.RT.Engine.failed + st.RT.Engine.shed
    + st.RT.Engine.rejected + st.RT.Engine.expired
  in
  Printf.printf "  flooded %d requests (queue cap %d, 10 ms deadline) in %.1f ms\n" requests
    queue_cap (dt *. 1e3);
  Printf.printf "  completed %d, shed %d, expired %d, rejected %d, failed %d\n"
    (st.RT.Engine.completed - warmed)
    st.RT.Engine.shed st.RT.Engine.expired st.RT.Engine.rejected st.RT.Engine.failed;
  Printf.printf "  latency: p50 %.2f ms, p95 %.2f ms, p99 %.2f ms, max %.2f ms, queue peak %d\n"
    (st.RT.Engine.p50_latency_us /. 1e3)
    (st.RT.Engine.p95_latency_us /. 1e3)
    (st.RT.Engine.p99_latency_us /. 1e3)
    (st.RT.Engine.max_latency_us /. 1e3)
    st.RT.Engine.queue_peak;
  if settled <> st.RT.Engine.submitted then begin
    ok := false;
    Printf.printf "  CONSERVATION FAILURE: %d settled <> %d submitted\n" settled
      st.RT.Engine.submitted
  end;
  if st.RT.Engine.shed = 0 then begin
    ok := false;
    Printf.printf "  OVERLOAD FAILURE: flood past queue cap shed nothing\n"
  end;
  if
    not
      (st.RT.Engine.p50_latency_us <= st.RT.Engine.p95_latency_us
      && st.RT.Engine.p95_latency_us <= st.RT.Engine.p99_latency_us
      && st.RT.Engine.p99_latency_us <= st.RT.Engine.max_latency_us +. 1e-9
      && st.RT.Engine.p99_latency_us > 0.0)
  then begin
    ok := false;
    Printf.printf "  PERCENTILE FAILURE: p50/p95/p99/max not ordered or p99 = 0\n"
  end;
  let oc = open_out "BENCH_overload.json" in
  Printf.fprintf oc
    "{\n  \"workload\": {\"steps\": %d, \"cols\": %d, \"requests\": %d, \"queue_cap\": %d, \
     \"deadline_ms\": 10.0, \"policy\": \"shed\"},\n"
    steps cols requests queue_cap;
  Printf.fprintf oc "  \"wall_ms\": %.3f,\n" (dt *. 1e3);
  Printf.fprintf oc
    "  \"outcomes\": {\"submitted\": %d, \"completed\": %d, \"shed\": %d, \"expired\": %d, \
     \"rejected\": %d, \"failed\": %d},\n"
    st.RT.Engine.submitted st.RT.Engine.completed st.RT.Engine.shed st.RT.Engine.expired
    st.RT.Engine.rejected st.RT.Engine.failed;
  Printf.fprintf oc
    "  \"latency_ms\": {\"p50\": %.3f, \"p95\": %.3f, \"p99\": %.3f, \"max\": %.3f},\n"
    (st.RT.Engine.p50_latency_us /. 1e3)
    (st.RT.Engine.p95_latency_us /. 1e3)
    (st.RT.Engine.p99_latency_us /. 1e3)
    (st.RT.Engine.max_latency_us /. 1e3);
  Printf.fprintf oc "  \"conserved\": %b, \"deadlock_free\": true, \"bit_identical\": %b\n}\n"
    (settled = st.RT.Engine.submitted) !ok;
  close_out oc;
  Printf.printf "  wrote BENCH_overload.json\n";
  if not !ok then begin
    Printf.printf "  engine overload smoke FAILED\n";
    exit 1
  end;
  Printf.printf
    "  all tickets settled (no deadlock); conservation holds; sheds > 0; percentiles ordered\n"

(* Int8 smoke: the quantized GEMM with its fused requantization epilogue
   against the f32 blocked GEMM on the 256³ memory-bound shape.  The int8
   kernel moves 4x fewer panel bytes and its packed-pair micro-kernel does
   one multiply per two MACs, so the gate demands a real win (≥1.5x), not
   parity.  A bit-exactness spot check against the scalar reference runs
   first — a fast wrong kernel must not pass. *)
let int8_bench () =
  Printf.printf "\n=== Int8: quantized GEMM + fused requantize vs f32 blocked ===\n";
  let filled_i8 len seed =
    let t =
      Tensor.of_ints Tensor.I8 [ len ]
        (Array.init len (fun i -> (((i * 7919) + seed) mod 255) - 127))
    in
    Tensor.storage_i8 t
  in
  (* correctness gate first: fused kernel vs independent scalar reference *)
  let check_m, check_n, check_k = 65, 63, 130 in
  let ca = Tensor.of_i8buf [ check_m; check_k ] (filled_i8 (check_m * check_k) 3) in
  let cb = Tensor.of_i8buf [ check_k; check_n ] (filled_i8 (check_k * check_n) 11) in
  let za = 7 and zb = -4 in
  let rq = Quant.requant_of_scales ~in_scale:0.02 ~w_scale:0.015 ~out_scale:0.05 ~zp_out:(-8) in
  let cc =
    Bigarray.Array1.create Bigarray.int8_signed Bigarray.c_layout (check_m * check_n)
  in
  Blocked.gemm_i8 ~za ~zb
    ~epilogue:(fun _ acc -> Quant.requantize_one rq acc)
    ~m:check_m ~n:check_n ~k:check_k ~a:(Tensor.storage_i8 ca) ~ao:0
    ~b:(Tensor.storage_i8 cb) ~bo:0 ~c:cc ~co:0 ();
  let accs = RT.Reference.gemm_i8_acc ~za ~zb ~m:check_m ~n:check_n ~k:check_k ca cb in
  let exact = ref true in
  Array.iteri
    (fun i acc ->
      if
        Bigarray.Array1.get cc i
        <> RT.Reference.requantize ~qm:rq.Quant.qm ~shift:rq.Quant.shift ~zp:rq.Quant.zp acc
      then exact := false)
    accs;
  Printf.printf "  bit-exact vs scalar reference (%dx%dx%d): %s\n" check_m check_n
    check_k
    (if !exact then "yes" else "NO");
  if not !exact then begin
    Printf.printf "  int8 GEMM bit-exactness FAILED\n";
    exit 1
  end;
  (* The 1.5x gate rides on the f32/int8 ratio, so measure it with the
     robust statistic: alternate the two kernels round-for-round and
     take each one's MINIMUM — means drift with whatever else the host
     is doing, minima don't, and interleaving exposes both kernels to
     the same phases of any background load. *)
  let time_min2 rounds f g =
    f ();
    g ();
    let bf = ref infinity and bg = ref infinity in
    for _ = 1 to rounds do
      let t0 = Unix.gettimeofday () in
      f ();
      let t1 = Unix.gettimeofday () in
      g ();
      let t2 = Unix.gettimeofday () in
      if t1 -. t0 < !bf then bf := t1 -. t0;
      if t2 -. t1 < !bg then bg := t2 -. t1
    done;
    (!bf, !bg)
  in
  (* throughput: 256³ *)
  let m, n, k = 256, 256, 256 in
  let fa = filled (m * k) and fb = filled (k * n) in
  let fc = Tensor.fbuf_create Tensor.F32 (m * n) in
  let qa = filled_i8 (m * k) 5 and qb = filled_i8 (k * n) 23 in
  let qc = Bigarray.Array1.create Bigarray.int8_signed Bigarray.c_layout (m * n) in
  let ep _ acc = Quant.requantize_one rq acc in
  let t_f32, t_i8 =
    time_min2 30
      (fun () ->
        Tensor.fbuf_fill fc 0 (m * n) 0.0;
        Blocked.gemm ~m ~n ~k ~a:fa ~ao:0 ~b:fb ~bo:0 ~c:fc ~co:0 ())
      (fun () ->
        Blocked.gemm_i8 ~za ~zb ~epilogue:ep ~m ~n ~k ~a:qa ~ao:0 ~b:qb ~bo:0 ~c:qc
          ~co:0 ())
  in
  let speedup = t_f32 /. t_i8 in
  Printf.printf "  gemm 256^3:    f32 %8.3f ms   int8+requant %8.3f ms   %5.2fx\n"
    (t_f32 *. 1e3) (t_i8 *. 1e3) speedup;
  (* conv, informational: same kernels under im2col *)
  let xd = [| 1; 64; 28; 28 |] and wd = [| 64; 64; 3; 3 |] in
  let nx = Array.fold_left ( * ) 1 xd and nw = Array.fold_left ( * ) 1 wd in
  let rng = Rng.create 29 in
  let x = Tensor.rand_uniform rng (Array.to_list xd) in
  let w = Tensor.rand_uniform rng (Array.to_list wd) in
  let qx = filled_i8 nx 31 and qw = filled_i8 nw 37 in
  let qo =
    Bigarray.Array1.create Bigarray.int8_signed Bigarray.c_layout (64 * 28 * 28)
  in
  let t_conv_f32, t_conv_i8 =
    time_min2 12
      (fun () ->
        ignore
          (Blocked.conv2d_im2col ~stride:(1, 1) ~pad:(1, 1, 1, 1) ~dilation:(1, 1)
             ~groups:1 x w None))
      (fun () ->
        ignore
          (Blocked.conv2d_i8_into ~zx:za ~zw:0 ~epilogue:ep ~stride:(1, 1)
             ~pad:(1, 1, 1, 1) ~dilation:(1, 1) ~groups:1 ~x:qx ~xoff:0 ~xdims:xd
             ~w:qw ~woff:0 ~wdims:wd ~c:qo ~co:0 ()))
  in
  Printf.printf "  conv 64x64x3^2: f32 %8.3f ms   int8+requant %8.3f ms   %5.2fx\n"
    (t_conv_f32 *. 1e3) (t_conv_i8 *. 1e3)
    (t_conv_f32 /. t_conv_i8);
  let oc = open_out "BENCH_int8.json" in
  Printf.fprintf oc
    "{\n  \"gemm_256\": {\"f32_ms\": %.4f, \"int8_ms\": %.4f, \"speedup\": %.3f},\n"
    (t_f32 *. 1e3) (t_i8 *. 1e3) speedup;
  Printf.fprintf oc
    "  \"conv_64x64\": {\"f32_ms\": %.4f, \"int8_ms\": %.4f, \"speedup\": %.3f},\n"
    (t_conv_f32 *. 1e3) (t_conv_i8 *. 1e3)
    (t_conv_f32 /. t_conv_i8);
  Printf.fprintf oc "  \"bit_exact_vs_reference\": %b, \"gate_floor\": 1.5\n}\n" !exact;
  close_out oc;
  Printf.printf "  wrote BENCH_int8.json\n";
  if speedup < 1.5 then begin
    Printf.printf "  int8 GEMM not ≥1.5x faster than f32 (%.2fx) — FAIL\n" speedup;
    exit 1
  end

(* Tune smoke: does closing the loop with measured timings actually pay?
   At one fat and one skinny GEMM shape, time the default config (what an
   untuned static backend choice runs), the analytical GA pick (what
   compile-time MVC tuning runs) and the measured Hybrid pick on the same
   kernel and buffers, then gate: the measured pick must not lose to
   either static choice on the shape-sweep geomean.  A small tolerance
   absorbs re-measurement noise — the Hybrid pick's own tuning-time
   measurement already included both static configs in its finalist pool,
   so a real loss would mean the measurement harness is lying. *)
let tune_bench () =
  Printf.printf "\n=== Measured kernel tuning: default vs analytical vs measured ===\n";
  let rounds = 3 in
  let shapes = [ "fat", (512, 512, 256); "skinny", (4, 512, 256) ] in
  let rows =
    List.map
      (fun (cls, (m, n, k)) ->
        let measure = Sod2.Tune_measure.gemm_measurer ~rounds ~m ~n ~k () in
        let default_us = measure Sod2.Autotune.default_config in
        let analytic_cfg, _ = Sod2.Autotune.tune cpu (Rng.create 7) ~m ~n ~k in
        let analytic_us = measure analytic_cfg in
        let measured_cfg, _ =
          Sod2.Autotune.tune ~objective:Sod2.Autotune.Hybrid ~measure cpu
            (Rng.create 7) ~m ~n ~k
        in
        let measured_us = measure measured_cfg in
        Printf.printf
          "  %-7s %4dx%4dx%4d: default %8.3f ms, analytical %8.3f ms, measured \
           %8.3f ms  (%s)\n"
          cls m n k (default_us /. 1e3) (analytic_us /. 1e3) (measured_us /. 1e3)
          (Sod2.Autotune.config_to_string measured_cfg);
        cls, (m, n, k), default_us, analytic_us, measured_us, measured_cfg)
      shapes
  in
  let gm pick = geomean (List.map pick rows) in
  let g_default = gm (fun (_, _, d, _, _, _) -> d) in
  let g_analytic = gm (fun (_, _, _, a, _, _) -> a) in
  let g_measured = gm (fun (_, _, _, _, ms, _) -> ms) in
  let tolerance = 1.05 in
  let beats_default = g_measured <= g_default *. tolerance in
  let beats_analytic = g_measured <= g_analytic *. tolerance in
  Printf.printf
    "  geomean: default %.3f ms, analytical %.3f ms, measured %.3f ms  (%.2fx vs \
     default, %.2fx vs analytical)\n"
    (g_default /. 1e3) (g_analytic /. 1e3) (g_measured /. 1e3)
    (g_default /. g_measured) (g_analytic /. g_measured);
  let oc = open_out "BENCH_tune.json" in
  Printf.fprintf oc "{\n  \"rounds\": %d,\n  \"shapes\": [\n" rounds;
  List.iteri
    (fun i (cls, (m, n, k), d, a, ms, cfg) ->
      Printf.fprintf oc
        "    {\"class\": %S, \"m\": %d, \"n\": %d, \"k\": %d, \"default_ms\": %.3f, \
         \"analytical_ms\": %.3f, \"measured_ms\": %.3f, \"measured_config\": %S}%s\n"
        cls m n k (d /. 1e3) (a /. 1e3) (ms /. 1e3)
        (Sod2.Autotune.config_to_string cfg)
        (if i = List.length rows - 1 then "" else ","))
    rows;
  Printf.fprintf oc
    "  ],\n  \"geomean\": {\"default_ms\": %.3f, \"analytical_ms\": %.3f, \
     \"measured_ms\": %.3f},\n"
    (g_default /. 1e3) (g_analytic /. 1e3) (g_measured /. 1e3);
  Printf.fprintf oc
    "  \"measured_beats_default\": %b, \"measured_beats_analytical\": %b,\n"
    beats_default beats_analytic;
  Printf.fprintf oc "  \"tune_measurements\": %d\n}\n"
    (Sod2.Tune_measure.measurement_count ());
  close_out oc;
  Printf.printf "  wrote BENCH_tune.json\n";
  if not (beats_default && beats_analytic) then begin
    Printf.printf "  measured pick LOST the geomean to a static config — FAIL\n";
    exit 1
  end;
  Printf.printf "  measured pick holds the geomean against both static configs\n"

(* ------------------------------------------------------------------ *)
(* Gated execution: all-paths vs selected-only over the one plan        *)
(* ------------------------------------------------------------------ *)

(* What a single static plan costs a gated model when it ignores the
   predicates: every request executes all paths and lets each Combine
   pick the surviving value -- the operator-level baseline of the paper's
   Fig. 7.  Selected-only runs the same plan and lets each computed
   predicate pick the groups that run (DESIGN.md §17).  Both sides run
   the same blocked kernels over the same persistent arena, in
   alternating rounds; outputs must agree bit-for-bit between them and
   within float tolerance of the scalar reference interpreter, and every
   selected-only trace must execute exactly the groups live under the
   branches it observed. *)
let gate_bench () =
  Printf.printf "\n=== Gated execution: all-paths vs selected-only over one plan ===\n";
  let requests = 4 and warmup = 2 and rounds = 3 in
  let run_model name =
    let sp = fixture name in
    let g = graph_of sp in
    let env = Zoo.min_env sp in
    let inputs = Zoo.make_inputs sp g env (Rng.create 42) in
    let reference = RT.Reference.run g ~inputs in
    let c = Sod2.Pipeline.compile cpu g in
    let be = RT.Backend.for_compiled RT.Backend.Blocked c in
    Fun.protect ~finally:(fun () -> RT.Backend.shutdown be) @@ fun () ->
    let memory = RT.Executor.Arena { arena = RT.Arena.create (); env } in
    let ctrl = c.Sod2.Pipeline.control in
    let gates = ctrl.Control_region.gates in
    let ok = ref true in
    let fail fmt =
      Printf.ksprintf
        (fun msg ->
          ok := false;
          Printf.printf "  %s: %s\n" name msg)
        fmt
    in
    let check tag outs want ~eps =
      List.iter2
        (fun (ta, va) (tb, vb) ->
          let agree =
            ta = tb
            && (if eps > 0.0 then Tensor.approx_equal ~eps va vb else Tensor.equal va vb)
          in
          if not agree then fail "%s outputs DIVERGE!" tag)
        outs want
    in
    (* The groups a selected-only run must execute: the static order
       filtered by the branch constraints under the observed outcomes. *)
    let check_live_groups (tr : RT.Executor.trace) =
      let outcome =
        Array.map
          (fun gt ->
            Option.value ~default:(-1)
              (List.assoc_opt gt.Control_region.g_pred tr.RT.Executor.gate_outcomes))
          gates
      in
      let live =
        List.filter
          (fun gid ->
            List.for_all
              (Control_region.live_node ctrl ~outcome)
              c.Sod2.Pipeline.fusion_plan.Sod2.Fusion.groups.(gid).Sod2.Fusion.members)
          c.Sod2.Pipeline.exec.Sod2.Exec_plan.order
      in
      if List.map (fun s -> s.RT.Executor.gid) tr.RT.Executor.steps <> live then
        fail "selected-only trace ran %d groups, %d are live under its outcomes"
          (List.length tr.RT.Executor.steps) (List.length live)
    in
    let run control =
      RT.Executor.run_real ~config:{ RT.Executor.default_config with control } ~backend:be
        ~memory c ~inputs
    in
    (* Mean time per request over one batch, the batch's traces and the
       last outputs; traces are checked outside the timed region. *)
    let batch control =
      let t0 = Unix.gettimeofday () in
      let runs = List.init requests (fun _ -> run control) in
      let dt = (Unix.gettimeofday () -. t0) /. float_of_int requests in
      dt, List.map fst runs, snd (List.nth runs (requests - 1))
    in
    for _ = 1 to warmup do
      ignore (run RT.Executor.All_paths);
      ignore (run RT.Executor.Selected_only)
    done;
    let all_dt = ref infinity and sel_dt = ref infinity in
    let all_outs = ref [] and sel_outs = ref [] in
    for _ = 1 to rounds do
      let dt, _, outs = batch RT.Executor.All_paths in
      all_dt := Float.min !all_dt dt;
      all_outs := outs;
      let dt, traces, outs = batch RT.Executor.Selected_only in
      List.iter check_live_groups traces;
      sel_dt := Float.min !sel_dt dt;
      sel_outs := outs
    done;
    check "selected-only vs all-paths" !sel_outs !all_outs ~eps:0.0;
    check "selected-only vs reference" !sel_outs reference ~eps:1e-4;
    if not !ok then begin
      Printf.printf "  %s: gate smoke FAILED\n" name;
      exit 1
    end;
    let speedup = !all_dt /. !sel_dt in
    Printf.printf "  %-10s %2d gates: all-paths %7.1f ms, selected-only %7.1f ms  (%.2fx)\n"
      name (Array.length gates) (!all_dt *. 1e3) (!sel_dt *. 1e3) speedup;
    name, Array.length gates, !all_dt, !sel_dt, speedup
  in
  let rows = List.map run_model [ "skipnet"; "blockdrop" ] in
  let gm = geomean (List.map (fun (_, _, _, _, s) -> s) rows) in
  Printf.printf "  selected-only geomean: %.2fx (gate: >= 1.15x)\n" gm;
  let oc = open_out "BENCH_gates.json" in
  Printf.fprintf oc "{\n  \"requests\": %d, \"warmup\": %d, \"rounds\": %d,\n  \"models\": [\n"
    requests warmup rounds;
  List.iteri
    (fun i (name, gates, all_dt, sel_dt, speedup) ->
      Printf.fprintf oc
        "    {\"model\": \"%s\", \"gates\": %d, \"all_paths_ms\": %.3f, \
         \"selected_only_ms\": %.3f, \"speedup\": %.3f}%s\n"
        name gates (all_dt *. 1e3) (sel_dt *. 1e3) speedup
        (if i = List.length rows - 1 then "" else ","))
    rows;
  Printf.fprintf oc "  ],\n  \"geomean_speedup\": %.3f, \"gate\": 1.15, \"pass\": %b\n}\n"
    gm (gm >= 1.15);
  close_out oc;
  Printf.printf "  wrote BENCH_gates.json\n";
  if gm < 1.15 then begin
    Printf.printf "  selected-only execution LOST the gated-path geomean — FAIL\n";
    exit 1
  end;
  Printf.printf "  selected-only execution holds the gated-path geomean\n"

let backend_smoke kind =
  let bert_g = graph_of bert in
  let c = Framework.compiled (sess Framework.Sod2_fw cpu bert) in
  let be = RT.Backend.for_compiled kind c in
  Fun.protect
    ~finally:(fun () -> RT.Backend.shutdown be)
    (fun () ->
      let env = Env.of_list [ "S", 32 ] in
      let inputs = Zoo.make_inputs bert bert_g env (Rng.create 5) in
      let trace, _ = RT.Executor.run_real ~backend:be c ~inputs in
      Printf.printf
        "\n=== Backend smoke: codebert S=32 on %s backend — %d nodes, %d domains ===\n"
        (RT.Backend.kind_name kind) trace.RT.Executor.nodes_executed
        (RT.Backend.pool_size be);
      if kind = RT.Backend.Fused then begin
        let fs = RT.Backend.fused_stats be in
        Printf.printf "    fused kernels: %d hits, %d misses, %d rejects, %d variants\n"
          fs.RT.Backend.hits fs.RT.Backend.misses fs.RT.Backend.rejects
          fs.RT.Backend.variants
      end)

let run_benchmarks () =
  let grouped = Test.make_grouped ~name:"sod2" ~fmt:"%s/%s" (tests ()) in
  let cfg = Benchmark.cfg ~limit:300 ~quota:(Time.second 0.4) ~stabilize:false () in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] grouped in
  let ols = Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |] in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) results []) in
  Printf.printf "\n=== Bechamel micro-benchmarks (wall-clock per run) ===\n";
  List.iter
    (fun (name, est) ->
      match Analyze.OLS.estimates est with
      | Some [ ns ] ->
        let pretty =
          if ns > 1e9 then Printf.sprintf "%8.2f s " (ns /. 1e9)
          else if ns > 1e6 then Printf.sprintf "%8.2f ms" (ns /. 1e6)
          else if ns > 1e3 then Printf.sprintf "%8.2f us" (ns /. 1e3)
          else Printf.sprintf "%8.0f ns" ns
        in
        Printf.printf "  %-44s %s\n" name pretty
      | _ -> Printf.printf "  %-44s (no estimate)\n" name)
    rows

let () =
  if !run_tables then begin
    Printf.printf
      "SoD2 reproduction — regenerating every table and figure (%d samples/model)\n"
      !samples;
    List.iter Sod2_experiments.Table.print (E.all ~n:!samples ())
  end;
  if !run_kernels then begin
    kernel_speedups ();
    fused_speedups ()
  end;
  if !run_arena || !arena_smoke then arena_bench ~smoke:!arena_smoke ();
  if !engine_smoke then engine_bench ();
  if !engine_overload_smoke then engine_overload_bench ();
  if !int8_smoke then int8_bench ();
  if !tune_smoke then tune_bench ();
  if !gate_smoke then gate_bench ();
  (match !smoke_backend with
  | Some kind -> backend_smoke kind
  | None -> ());
  if !run_bechamel then run_benchmarks ()
