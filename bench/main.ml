(* Benchmark suites: each times one part of the runtime through the shared
   runner, checks its outputs and holds its gates (see harness.ml).

   Usage: dune exec bench/main.exe -- [SUITE...]
   No suite name runs every suite.  Each writes BENCH_<suite>.json; the
   exit code is 1 if any gate failed.  The paper's tables and figures are
   printed by [sod2 experiments], not here. *)

open Harness
module RT = Sod2_runtime

let cpu = Profile.sd888_cpu
let fixture name = Option.get (Zoo.by_name name)
let gate gate bound dir = { gate; bound; dir }
let count n = float_of_int n
let with_backend be f = Fun.protect ~finally:(fun () -> RT.Backend.shutdown be) (fun () -> f be)

(* Deterministic operand storage in the requested element kind. *)
let filled ?(dt = Tensor.F32) len =
  let b = Tensor.fbuf_create dt len in
  for i = 0 to len - 1 do
    Tensor.fbuf_set b i ((float_of_int ((i * 7919) mod 1009) /. 1009.0) -. 0.5)
  done;
  b

(* A GEMM side on fresh operands: [c = a·b] through [gemm]. *)
let gemm_side ?(dt = Tensor.F32) (m, n, k) gemm () =
  let a = filled ~dt (m * k) and b = filled ~dt (k * n) in
  let c = Tensor.fbuf_create dt (m * n) in
  fun () ->
    Tensor.fbuf_fill c 0 (m * n) 0.0;
    gemm ~m ~n ~k ~a ~b ~c

let blocked_gemm tiles ~m ~n ~k ~a ~b ~c = Blocked.gemm ?tiles ~m ~n ~k ~a ~ao:0 ~b ~bo:0 ~c ~co:0 ()

(* --- kernels: naive vs blocked vs parallel, f32 vs f64 --------------- *)

(* Halving the element size must not cost throughput: the packed inner
   loops are the same for both dtypes. *)
let f32_vs_f64 = gate "f32 / f64 GEMM 256^3 time" 1.15 At_most

let kernels ~rounds =
  let versions = Sod2.Multi_version.build cpu in
  let naive = RT.Backend.create ~versions RT.Backend.Naive in
  let blocked = RT.Backend.create ~versions RT.Backend.Blocked in
  with_backend (RT.Backend.create ~versions ~threads:cpu.Profile.cores RT.Backend.Parallel)
  @@ fun parallel ->
  let on be ~m ~n ~k ~a ~b ~c = RT.Backend.gemm_kernel be ~m ~n ~k ~a ~ao:0 ~b ~bo:0 ~c ~co:0 in
  let gemm name (m, n, k) = Printf.sprintf "%s %dx%dx%d" name m n k, fun be -> gemm_side (m, n, k) (on be) in
  let conv be () =
    let rng = Rng.create 17 in
    let x = Tensor.rand_uniform rng [ 1; 64; 28; 28 ] and w = Tensor.rand_uniform rng [ 64; 64; 3; 3 ] in
    fun () ->
      ignore (RT.Backend.conv2d be ~stride:(1, 1) ~pad:(1, 1, 1, 1) ~dilation:(1, 1) ~groups:1 x w None)
  in
  let case (name, side) =
    match time ~rounds (List.map side [ naive; blocked; parallel ]) with
    | [ tn; tb; tp ] ->
      row name [ "naive", tn; "blocked", tb; "parallel", tp ]
        ~fields:[ "blocked_x", tn.best /. tb.best; "parallel_x", tn.best /. tp.best ]
    | _ -> assert false
  in
  let rows =
    List.map case
      [ gemm "gemm/fat" (512, 512, 256); gemm "gemm/regular" (256, 256, 256);
        gemm "gemm/skinny" (4, 512, 256); gemm "gemm/tiny" (16, 16, 16);
        "conv/64x64x3x3 28x28", conv ]
  in
  (* The fastest of 15 single calls per round: neighbour load on a shared
     host swings one call by 50%. *)
  let side dt = gemm_side ~dt (256, 256, 256) (on blocked) in
  let t32, t64 = pair (time ~calls:15 ~rounds [ side Tensor.F32; side Tensor.F64 ]) in
  { rows = rows @ [ row "gemm/f32-vs-f64 256^3" [ "f32", t32; "f64", t64 ] ];
    values = [ f32_vs_f64, t32.best /. t64.best ] }

(* --- fused: whole fusion groups as single kernels --------------------- *)

let fused_floor = gate "slowest group: blocked / fused time" 1.0 At_least

let fused ~rounds =
  let case (name, g) =
    let c = Sod2.Pipeline.compile cpu g in
    let dims tid = Option.get (Shape.as_ints (Option.get (Graph.input_shape g tid))) in
    let inputs = List.map (fun t -> t, Tensor.rand_uniform (Rng.create 3) (dims t)) (Graph.inputs g) in
    with_backend (RT.Backend.for_compiled RT.Backend.Blocked c) @@ fun blocked ->
    with_backend (RT.Backend.for_compiled RT.Backend.Fused c) @@ fun fused ->
    let side be () () = ignore (RT.Executor.run_real ~backend:be c ~inputs) in
    let tb, tf = pair (time ~calls:5 ~rounds [ side blocked; side fused ]) in
    (* traffic the fused kernel never materializes: group-internal bytes *)
    let trace, _ = RT.Executor.run_real ~backend:fused c ~inputs in
    let avoided = List.fold_left (fun a s -> a + s.RT.Executor.internal_bytes) 0 trace.steps in
    row name [ "blocked", tb; "fused", tf ]
      ~fields:[ "speedup", tb.best /. tf.best; "avoided_kb", count avoided /. 1024.0;
                "fused_kernels", count (RT.Backend.fused_stats fused).misses ]
  in
  let rows =
    List.map case
      [ "pointwise-chain 1x64x56x56", Graphs.pointwise_chain [ 1; 64; 56; 56 ];
        "conv3x3+bn+relu 32->64 28x28", Graphs.conv_bn_relu ();
        "matmul+bias+gelu 128x256x256", Graphs.matmul_bias_gelu () ]
  in
  let speedups = List.map (fun r -> List.assoc "speedup" r.fields) rows in
  { rows; values = [ fused_floor, List.fold_left Float.min infinity speedups ] }

(* --- arena: planned destination-passing execution vs malloc ----------- *)

let arena_wrong = gate "malloc/arena outputs off Reference by > 1e-4" 0.0 At_most

let arena ~rounds =
  let wrong = ref 0 in
  (* Arena runs keep the RDP boundary cross-check on. *)
  let guarded = { RT.Executor.default_config with guarded = true } in
  let model (name, g, dims) =
    let inputs = [ 0, Tensor.rand_uniform (Rng.create 3) dims ] and env = Env.empty in
    let c = Sod2.Pipeline.compile cpu g in
    (* The expected side is the reference interpreter: both memory modes
       run the executor's destination kernels, so neither can vouch for
       the other. *)
    let reference = RT.Reference.run g ~inputs in
    let bytes = (Sod2.Pipeline.instantiated_plan c env).Sod2.Mem_plan.arena_bytes in
    let backend kind =
      with_backend (RT.Backend.for_compiled kind c) @@ fun be ->
      (* Steady state: one persistent grow-only arena, the plan served
         from the binding cache. *)
      let memory = RT.Executor.Arena { arena = RT.Arena.create (); env } in
      let runs =
        [ (fun () -> RT.Executor.run_real ~backend:be c ~inputs);
          (fun () -> RT.Executor.run_real ~config:guarded ~env ~backend:be ~memory c ~inputs) ]
      in
      let tm, ta = pair (time ~calls:5 ~rounds (List.map (fun run () () -> ignore (run ())) runs)) in
      List.iter (fun run -> wrong := !wrong + mismatches (Within 1e-4) (snd (run ())) reference) runs;
      row (name ^ " " ^ RT.Backend.kind_name kind) [ "malloc", tm; "arena", ta ]
        ~fields:[ "speedup", tm.best /. ta.best; "arena_bytes", count bytes ]
    in
    List.map backend RT.Backend.[ Naive; Blocked; Fused ]
  in
  let dims = [ 256; 1024 ] in
  let rows =
    List.concat_map model
      [ "chain-stream-256x1024", Graphs.sub_stream ~steps:16 (Shape.of_ints dims) dims, dims;
        "chain-ladder-256x1024", Graphs.ladder ~layers:8 dims, dims;
        "conv1x1-stream-4x64x64", Graphs.conv_stream ~layers:5 ~subs:28 ~ch:4 ~hw:64, [ 1; 4; 64; 64 ] ]
  in
  { rows; values = [ arena_wrong, count !wrong ] }

(* --- engine and overload: concurrent serving -------------------------- *)

(* A Sub-recurrence stream with a symbolic batch dimension, so requests
   carry different bindings and exercise the per-binding plan cache.  One
   deterministic input per binding, each with its reference output. *)
let serving ~steps ~requests =
  let cols = 256 in
  let g = Graphs.sub_stream ~steps (Shape.of_dims [ Dim.of_sym "B"; Dim.of_int cols ]) [ cols ] in
  let samples =
    List.map
      (fun bsz ->
        let inputs = [ 0, Tensor.rand_uniform (Rng.create (100 + bsz)) [ bsz; cols ] ] in
        Env.of_list [ "B", bsz ], inputs, RT.Reference.run g ~inputs)
      [ 192; 224; 256; 288 ]
  in
  let stream = List.init requests (fun i -> List.nth samples (i mod List.length samples)) in
  Sod2.Pipeline.compile cpu g, samples, stream

let arena_config = { RT.Executor.default_config with memory = RT.Executor.Mem_arena }
let warm eng = List.iter (fun (env, inputs, _) -> ignore (RT.Engine.infer eng ~env ~inputs))
let engine_wrong = gate "outputs differing from Reference" 0.0 At_most
let engine_misses = gate "plan-cache misses after warm-up" 0.0 At_most
let engine_floor = gate "throughput at most workers / sequential" 2.0 At_least

let engine ~rounds =
  let c, samples, stream = serving ~steps:256 ~requests:32 in
  (* Worker counts follow the host: 1, half the cores, all the cores; 2 is
     always included so the sweep exercises real concurrency (shared plan
     cache, micro-batching) on a 1-core host too. *)
  let workers = List.sort_uniq compare [ 1; 2; max 1 (host_cores / 2); host_cores ] in
  let engines =
    List.map (fun w -> RT.Engine.create ~workers:w ~max_batch:4 ~config:arena_config c) workers
  in
  Fun.protect ~finally:(fun () -> List.iter RT.Engine.shutdown engines) @@ fun () ->
  (* Every binding a few times per worker, so the shared plan cache and
     each worker's grow-only arena reach steady state. *)
  List.iter2 (fun w eng -> for _ = 1 to 2 * w do warm eng samples done) workers engines;
  let misses () = Profile.Counters.count ~profile:cpu.Profile.name ~kind:"plan-cache-miss" in
  let miss0 = misses () in
  let served = Array.make (List.length engines) [] in
  (* The baseline is the one-shot malloc path, one request at a time. *)
  let sequential () () = List.iter (fun (_, inputs, _) -> ignore (RT.Executor.run_real c ~inputs)) stream in
  let serve i eng () () =
    let tickets = List.map (fun (env, inputs, _) -> RT.Engine.submit eng ~env ~inputs) stream in
    served.(i) <- List.map (RT.Engine.await eng) tickets
  in
  let timings = time ~rounds (sequential :: List.mapi serve engines) in
  let fresh_misses = misses () - miss0 in
  let wrong = ref 0 in
  let check outs (_, _, reference) = wrong := !wrong + mismatches Exact outs reference in
  List.iter (fun ((_, inputs, _) as s) -> check (snd (RT.Executor.run_real c ~inputs)) s) samples;
  Array.iter (List.iter2 (fun s (r : RT.Engine.result) -> check r.outputs s) stream) served;
  let seq = List.hd timings and last = List.nth timings (List.length workers) in
  let req_s (t : timing) = count (List.length stream) /. (t.best /. 1e3) in
  let rows =
    List.map2
      (fun (w, eng) t ->
        let st = RT.Engine.stats eng in
        row (Printf.sprintf "engine, %d worker(s)" w) [ "wall", t ]
          ~fields:[ "req_per_s", req_s t; "speedup", seq.best /. t.best;
                    "batched", count st.batched; "queue_peak", count st.queue_peak ])
      (List.combine workers engines) (List.tl timings)
  in
  { rows = row "32 requests, sequential run_real" [ "wall", seq ] ~fields:[ "req_per_s", req_s seq ] :: rows;
    values =
      [ engine_wrong, count !wrong; engine_misses, count fresh_misses;
        engine_floor, seq.best /. last.best ] }

(* Flood a 1-worker engine far past its queue cap with 10 ms deadlines
   under shed-oldest.  The checks are liveness and accounting, not speed:
   every ticket settles (the run ends), the overflow is shed rather than
   silently dropped, completed+failed+shed+rejected+expired = submitted,
   completed outputs are bit-identical to Reference and the latency
   percentiles are ordered. *)
let overload_gap = gate "settled - submitted" 0.0 At_most
let overload_shed = gate "requests shed" 1.0 At_least
let overload_order = gate "violations of 0 < p50 <= p95 <= p99 <= max" 0.0 At_most
let overload_wrong = gate "completed outputs differing from Reference" 0.0 At_most

let overload ~rounds:_ =
  let c, samples, stream = serving ~steps:128 ~requests:64 in
  let eng =
    RT.Engine.create ~workers:1 ~max_batch:4 ~queue_cap:8 ~overload:RT.Engine.Shed_oldest
      ~config:arena_config c
  in
  (* A warm plan cache, so service time, not planning, decides what is shed. *)
  warm eng samples;
  let tickets =
    List.map
      (fun (env, inputs, r) -> RT.Engine.submit eng ~deadline_us:10_000.0 ~env ~inputs, r)
      stream
  in
  let wrong = ref 0 in
  List.iter
    (fun (t, reference) ->
      match RT.Engine.await eng t with
      | r -> wrong := !wrong + mismatches Exact r.outputs reference
      | exception Sod2_error.Error _ -> ())
    tickets;
  RT.Engine.shutdown eng;
  let st = RT.Engine.stats eng in
  let settled = st.completed + st.failed + st.shed + st.rejected + st.expired in
  let p50, p95, p99, pmax = st.p50_latency_us, st.p95_latency_us, st.p99_latency_us, st.max_latency_us in
  let disorder = List.length (List.filter not [ p50 <= p95; p95 <= p99; p99 <= pmax +. 1e-9; p99 > 0.0 ]) in
  let fields =
    [ "submitted", count st.submitted; "completed", count (st.completed - List.length samples);
      "shed", count st.shed; "expired", count st.expired; "rejected", count st.rejected;
      "failed", count st.failed; "queue_peak", count st.queue_peak; "p50_ms", p50 /. 1e3;
      "p95_ms", p95 /. 1e3; "p99_ms", p99 /. 1e3; "max_ms", pmax /. 1e3 ]
  in
  { rows = [ row "64 requests, queue cap 8, 10 ms deadlines" [] ~fields ];
    values =
      [ overload_gap, count (abs (settled - st.submitted)); overload_shed, count st.shed;
        overload_order, count disorder; overload_wrong, count !wrong ] }

(* --- int8: quantized GEMM + fused requantize vs f32 blocked ----------- *)

(* The int8 kernel moves 4x fewer panel bytes and its packed-pair
   micro-kernel does one multiply per two MACs, so the gate demands a
   real win, not parity; a fast wrong kernel must not pass either. *)
let int8_exact = gate "requantized GEMM 65x63x130 values off the scalar reference" 0.0 At_most
let int8_floor = gate "f32 / int8 GEMM 256^3 time" 1.5 At_least

let int8 ~rounds =
  let i8 len seed =
    Tensor.storage_i8
      (Tensor.of_ints Tensor.I8 [ len ] (Array.init len (fun i -> (((i * 7919) + seed) mod 255) - 127)))
  in
  let out len = Bigarray.Array1.create Bigarray.int8_signed Bigarray.c_layout len in
  let za = 7 and zb = -4 in
  let rq = Quant.requant_of_scales ~in_scale:0.02 ~w_scale:0.015 ~out_scale:0.05 ~zp_out:(-8) in
  let epilogue _ acc = Quant.requantize_one rq acc in
  let m, n, k = 65, 63, 130 in
  let ca = Tensor.of_i8buf [ m; k ] (i8 (m * k) 3) and cb = Tensor.of_i8buf [ k; n ] (i8 (k * n) 11) in
  let cc = out (m * n) in
  Blocked.gemm_i8 ~za ~zb ~epilogue ~m ~n ~k ~a:(Tensor.storage_i8 ca) ~ao:0
    ~b:(Tensor.storage_i8 cb) ~bo:0 ~c:cc ~co:0 ();
  let off = ref 0 in
  Array.iteri
    (fun i acc ->
      if Bigarray.Array1.get cc i <> RT.Reference.requantize ~qm:rq.qm ~shift:rq.shift ~zp:rq.zp acc
      then incr off)
    (RT.Reference.gemm_i8_acc ~za ~zb ~m ~n ~k ca cb);
  let m, n, k = 256, 256, 256 in
  let qa = i8 (m * k) 5 and qb = i8 (k * n) 23 and qc = out (m * n) in
  let gemm =
    [ gemm_side (m, n, k) (blocked_gemm None);
      (fun () () -> Blocked.gemm_i8 ~za ~zb ~epilogue ~m ~n ~k ~a:qa ~ao:0 ~b:qb ~bo:0 ~c:qc ~co:0 ()) ]
  in
  (* conv, informational: the same kernels under im2col *)
  let xd = [| 1; 64; 28; 28 |] and wd = [| 64; 64; 3; 3 |] in
  let rng = Rng.create 29 in
  let x = Tensor.rand_uniform rng (Array.to_list xd) and w = Tensor.rand_uniform rng (Array.to_list wd) in
  let qx = i8 (Tensor.numel x) 31 and qw = i8 (Tensor.numel w) 37 and qo = out (64 * 28 * 28) in
  let conv =
    [ (fun () () ->
        ignore (Blocked.conv2d_im2col ~stride:(1, 1) ~pad:(1, 1, 1, 1) ~dilation:(1, 1) ~groups:1 x w None));
      (fun () () ->
        ignore
          (Blocked.conv2d_i8_into ~zx:za ~zw:0 ~epilogue ~stride:(1, 1) ~pad:(1, 1, 1, 1)
             ~dilation:(1, 1) ~groups:1 ~x:qx ~xoff:0 ~xdims:xd ~w:qw ~woff:0 ~wdims:wd ~c:qo ~co:0 ())) ]
  in
  let case (name, sides) =
    let f, q = pair (time ~rounds sides) in
    row name [ "f32", f; "int8", q ] ~fields:[ "speedup", f.best /. q.best ]
  in
  let rows = List.map case [ "gemm 256^3", gemm; "conv 64x64x3^2", conv ] in
  { rows; values = [ int8_exact, count !off; int8_floor, List.assoc "speedup" (List.hd rows).fields ] }

(* --- gates: all-paths vs selected-only over the one plan -------------- *)

(* All-paths runs every branch and lets each Combine pick the surviving
   value (the operator-level baseline of the paper's Fig. 7); selected-
   only lets each computed predicate pick the groups that run (DESIGN.md
   §17).  Both run the same blocked kernels over one persistent arena. *)
let gates_paths = gate "selected-only outputs differing from all-paths" 0.0 At_most
let gates_ref = gate "selected-only outputs off Reference by > 1e-4" 0.0 At_most
let gates_live = gate "selected-only traces not running exactly the live groups" 0.0 At_most
let gates_floor = gate "geomean all-paths / selected-only time" 1.15 At_least

let gates ~rounds =
  let model name =
    let sp = fixture name in
    let g = sp.Zoo.build () and env = Zoo.min_env sp in
    let inputs = Zoo.make_inputs sp g env (Rng.create 42) in
    let c = Sod2.Pipeline.compile cpu g in
    with_backend (RT.Backend.for_compiled RT.Backend.Blocked c) @@ fun be ->
    let memory = RT.Executor.Arena { arena = RT.Arena.create (); env } in
    let run control =
      RT.Executor.run_real ~config:{ RT.Executor.default_config with control } ~backend:be ~memory c
        ~inputs
    in
    let side control () () = ignore (run control) in
    let ta, ts = pair (time ~calls:4 ~rounds RT.Executor.[ side All_paths; side Selected_only ]) in
    (* Checked outside the timed windows.  The groups a selected-only run
       must execute: the static order filtered by the branch constraints
       under the outcomes it observed. *)
    let _, all_outs = run RT.Executor.All_paths in
    let tr, sel_outs = run RT.Executor.Selected_only in
    let ctrl = c.Sod2.Pipeline.control in
    let outcome =
      Array.map
        (fun gt -> Option.value ~default:(-1) (List.assoc_opt gt.Control_region.g_pred tr.gate_outcomes))
        ctrl.gates
    in
    let live =
      List.filter
        (fun gid ->
          List.for_all (Control_region.live_node ctrl ~outcome)
            c.fusion_plan.Sod2.Fusion.groups.(gid).Sod2.Fusion.members)
        c.exec.Sod2.Exec_plan.order
    in
    ( [ count (mismatches Exact sel_outs all_outs);
        count (mismatches (Within 1e-4) sel_outs (RT.Reference.run g ~inputs));
        (if List.map (fun s -> s.RT.Executor.gid) tr.steps = live then 0.0 else 1.0) ],
      row name [ "all_paths", ta; "selected_only", ts ]
        ~fields:[ "gates", count (Array.length ctrl.gates); "speedup", ta.best /. ts.best ] )
  in
  let models = List.map model [ "skipnet"; "blockdrop" ] in
  let sum i = List.fold_left (fun a (bad, _) -> a +. List.nth bad i) 0.0 models in
  let rows = List.map snd models in
  { rows;
    values =
      [ gates_paths, sum 0; gates_ref, sum 1; gates_live, sum 2;
        gates_floor, geomean (List.map (fun r -> List.assoc "speedup" r.fields) rows) ] }

(* --- tune: default vs analytical vs measured pick --------------------- *)

(* The Hybrid tuner's finalist pool held both static configs, so a real
   loss means its measurement lied; the tolerance absorbs re-measuring. *)
let tune_default = gate "geomean measured / default time" 1.05 At_most
let tune_analytic = gate "geomean measured / analytical time" 1.05 At_most

let tune ~rounds =
  let shape (cls, (m, n, k)) =
    let measure = Sod2.Tune_measure.gemm_measurer ~rounds:3 ~m ~n ~k () in
    let analytic, _ = Sod2.Autotune.tune cpu (Rng.create 7) ~m ~n ~k in
    let measured, _ =
      Sod2.Autotune.tune ~objective:Sod2.Autotune.Hybrid ~measure cpu (Rng.create 7) ~m ~n ~k
    in
    (* One operand set for all three configs, as the tuner measured them. *)
    let a = filled (m * k) and b = filled (k * n) and c = Tensor.fbuf_create Tensor.F32 (m * n) in
    let side (cfg : Sod2.Autotune.config) () =
      let tiles = Blocked.tiles_of ~tile_m:cfg.tile_m ~tile_n:cfg.tile_n ~tile_k:cfg.tile_k ~unroll:cfg.unroll in
      fun () ->
        Tensor.fbuf_fill c 0 (m * n) 0.0;
        blocked_gemm (Some tiles) ~m ~n ~k ~a ~b ~c
    in
    let label = Printf.sprintf "%s %dx%dx%d (%s)" cls m n k (Sod2.Autotune.config_to_string measured) in
    match time ~rounds (List.map side [ Sod2.Autotune.default_config; analytic; measured ]) with
    | [ d; a; ms ] -> row label [ "default", d; "analytical", a; "measured", ms ]
    | _ -> assert false
  in
  let rows = List.map shape [ "fat", (512, 512, 256); "skinny", (4, 512, 256) ] in
  let gm side = geomean (List.map (fun r -> (List.assoc side r.timings).best) rows) in
  { rows;
    values = [ tune_default, gm "measured" /. gm "default"; tune_analytic, gm "measured" /. gm "analytical" ] }

(* --- backend: CodeBERT end to end on the pool and on fused kernels ---- *)

let backend_wrong = gate "outputs differing from Reference" 0.0 At_most

let backend ~rounds:_ =
  let sp = fixture "codebert" in
  let g = sp.Zoo.build () in
  let c = Sod2.Pipeline.compile cpu g in
  let inputs = Zoo.make_inputs sp g (Env.of_list [ "S", 32 ]) (Rng.create 5) in
  let reference = RT.Reference.run g ~inputs in
  let run kind =
    with_backend (RT.Backend.for_compiled kind c) @@ fun be ->
    let trace, outs = RT.Executor.run_real ~backend:be c ~inputs in
    row ("codebert S=32 on " ^ RT.Backend.kind_name kind) []
      ~fields:[ "nodes", count trace.nodes_executed; "domains", count (RT.Backend.pool_size be);
                "fused_kernels", count (RT.Backend.fused_stats be).misses;
                "mismatches", count (mismatches Exact outs reference) ]
  in
  let rows = List.map run RT.Backend.[ Parallel; Fused ] in
  { rows;
    values = [ backend_wrong, List.fold_left (fun a r -> a +. List.assoc "mismatches" r.fields) 0.0 rows ] }

(* --- micro: the computation behind each table and figure -------------- *)

let micro ~rounds =
  let yolo = fixture "yolov6" and bert = fixture "codebert" and snet = fixture "skipnet" in
  let yolo_g = yolo.build () and bert_g = bert.build () and snet_g = snet.build () in
  let sess ?(profile = cpu) kind sp g =
    Framework.create kind profile g ~max_dims:(Zoo.input_dims sp g (Zoo.max_env sp))
  in
  let yolo_sod2 = sess Framework.Sod2_fw yolo yolo_g and yolo_mnn = sess Framework.Mnn yolo yolo_g in
  let yolo_mnn_gpu = sess ~profile:Profile.sd888_gpu Framework.Mnn yolo yolo_g in
  let yolo_sod2_835 = sess ~profile:Profile.sd835_cpu Framework.Sod2_fw yolo yolo_g in
  let snet_sod2 = sess Framework.Sod2_fw snet snet_g and snet_tfl = sess Framework.Tflite snet snet_g in
  let snet_dnnf = sess Framework.Dnnfusion snet snet_g and bert_sod2 = sess Framework.Sod2_fw bert bert_g in
  let bert_rdp = Sod2.Rdp.analyze bert_g in
  let decoder_g = Gpt_decoder.build () in
  let decoder =
    Framework.create Framework.Sod2_fw cpu decoder_g
      ~max_dims:(Gpt_decoder.input_dims decoder_g ~past:1024 ~seq:16)
  in
  let sample sp p idx = Workload.sample_at sp ~percentile:p ~idx in
  let mid = sample yolo 0.5 0 and mid_s = sample snet 0.5 0 in
  let snet_dims = Zoo.input_dims snet snet_g mid_s.env in
  let run session sp g (sm : Workload.sample) =
    Framework.run session ~input_dims:(Zoo.input_dims sp g sm.env) ~gate:sm.gate
  in
  let lifetimes =
    let trace = RT.Executor.run_dry (Framework.compiled snet_sod2) ~gate:mid_s.gate ~input_dims:snet_dims in
    List.map (fun (e : RT.Executor.tensor_event) -> e.te_bytes, e.te_alloc, e.te_free) trace.events
  in
  let bert_inputs = Zoo.make_inputs bert bert_g (Env.of_list [ "S", 32 ]) (Rng.create 5) in
  let t name f = row name [ "run", List.hd (time ~rounds [ (fun () () -> ignore (f ())) ]) ] in
  let rows =
    [
      t "core/rdp-analysis(codebert)" (fun () -> Sod2.Rdp.analyze bert_g);
      t "core/fusion-rdp(codebert)" (fun () -> Sod2.Fusion.plan bert_g bert_rdp);
      t "core/autotune-ga(gemm)" (fun () -> Sod2.Autotune.tune cpu (Rng.create 7) ~m:128 ~n:512 ~k:128);
      t "table1/mnn-reinit-shape-change" (fun () ->
          ignore (run yolo_mnn yolo yolo_g (sample yolo 0.3 0));
          run yolo_mnn yolo yolo_g (sample yolo 0.8 1));
      t "table5/sod2-memory-accounting" (fun () -> (run yolo_sod2 yolo yolo_g mid).peak_bytes);
      t "table6/sod2-dry-inference" (fun () -> run yolo_sod2 yolo yolo_g mid);
      t "table7/percentile-run" (fun () -> run yolo_sod2 yolo yolo_g (sample yolo 1.0 2));
      t "fig5/ablation-compile" (fun () ->
          Sod2.Pipeline.compile ~flags:{ Sod2.Pipeline.no_opts with fusion = true } cpu yolo_g);
      t "fig6/ablation-run" (fun () -> run yolo_mnn yolo yolo_g mid);
      t "fig7/fusion-static-vs-rdp" (fun () ->
          Sod2.Fusion.plan ~mode:Sod2.Fusion.Static_only bert_g bert_rdp);
      t "fig8/exec-partitioning" (fun () ->
          let fp = Sod2.Fusion.plan bert_g bert_rdp in
          Sod2.Exec_plan.plan bert_g bert_rdp fp ~env:(Env.of_list [ "S", 128 ]));
      t "fig9/all-paths-run" (fun () ->
          Framework.run ~control:RT.Executor.All_paths snet_sod2 ~input_dims:snet_dims
            ~gate:(Workload.fixed_gates 1));
      t "fig10/mnn-gpu-size-sweep-point" (fun () -> run yolo_mnn_gpu yolo yolo_g mid);
      t "fig11/tflite-budget-run" (fun () ->
          Framework.run_with_budget snet_tfl ~budget_bytes:(1 lsl 20) ~input_dims:snet_dims
            ~gate:mid_s.gate);
      t "fig12/dnnfusion-frozen-run" (fun () -> run snet_dnnf snet snet_g mid_s);
      t "fig13/sd835-run" (fun () -> run yolo_sod2_835 yolo yolo_g mid);
      t "memplan/peak-first-placement" (fun () ->
          Sod2.Mem_plan.arena_for Sod2.Mem_plan.Peak_first ~lifetimes);
      t "ext/llm-decode-step" (fun () ->
          Framework.run decoder ~gate:(Workload.fixed_gates 0)
            ~input_dims:(Gpt_decoder.input_dims decoder_g ~past:128 ~seq:1));
      t "ext/graph-io-roundtrip(skipnet)" (fun () ->
          Graph.node_count (Result.get_ok (Graph_io.of_string (Graph_io.to_string snet_g))));
      t "runtime/real-exec(codebert-S32)" (fun () ->
          RT.Executor.run_real (Framework.compiled bert_sod2) ~inputs:bert_inputs);
    ]
  in
  { rows; values = [] }

let () =
  main
    [
      { name = "kernels"; rounds = 7; run = kernels; gates = [ f32_vs_f64 ];
        doc = "GEMM/conv per shape class on naive, blocked and parallel kernels; f32 vs f64 GEMM" };
      { name = "fused"; rounds = 7; run = fused; gates = [ fused_floor ];
        doc = "each fusion group op by op on blocked vs as one fused kernel" };
      { name = "arena"; rounds = 5; run = arena; gates = [ arena_wrong ];
        doc = "malloc vs arena on three stream graphs x naive/blocked/fused" };
      { name = "engine"; rounds = 3; run = engine; gates = [ engine_wrong; engine_misses; engine_floor ];
        doc = "resident Engine at 1..host-cores workers vs sequential run_real" };
      { name = "overload"; rounds = 1; run = overload;
        gates = [ overload_gap; overload_shed; overload_order; overload_wrong ];
        doc = "1-worker Engine flooded past its queue cap with deadlines, shed-oldest" };
      { name = "int8"; rounds = 30; run = int8; gates = [ int8_exact; int8_floor ];
        doc = "int8 GEMM/conv with fused requantization vs f32 blocked" };
      { name = "gates"; rounds = 3; run = gates; gates = [ gates_paths; gates_ref; gates_live; gates_floor ];
        doc = "all-paths vs selected-only execution of one plan on SkipNet and BlockDrop" };
      { name = "tune"; rounds = 35; run = tune; gates = [ tune_default; tune_analytic ];
        doc = "GEMM default vs analytical vs measured-tuned config, fat and skinny" };
      { name = "backend"; rounds = 1; run = backend; gates = [ backend_wrong ];
        doc = "CodeBERT S=32 on the parallel and fused backends vs Reference" };
      { name = "micro"; rounds = 5; run = micro; gates = [];
        doc = "the computation behind each paper table/figure and the compiler passes" };
    ]
