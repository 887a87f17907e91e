(* The repository's serving benchmark.

     sod2_bench --workload NAME --seed N --seconds S --trace 0|1
     sod2_bench compare BENCHMARK.json PARENT.jsonl CHANGE.jsonl

   A run compiles one zoo model, stands up an [Engine], serves seeded
   requests for S seconds and checks every output against [Reference].
   The last line of standard output is one JSON object: with --trace 0 the
   end-to-end metrics, with --trace 1 the per-layer ones.  perfbench/NOTES.md
   explains the workloads and what each metric should move. *)

open Perfbench
module RT = Sod2_runtime

type loop =
  | Closed of int  (** clients, each with one request in flight *)
  | Open of float  (** arrivals per second, with exponential gaps ({!Gen.arrivals}) *)

type workload = {
  name : string;
  model : string;
  grid : (string * int list) list;
  exec : string;  (** [--exec] spec: backend, memory and compile tokens *)
  workers : int;
  per_binding : int;  (** distinct pooled inputs per binding *)
  loop : loop;
  slo_ms : float;  (** latency limit for [slo_met_frac] *)
  tail_pct : float;  (** the percentile reported as [latency_tail_ms] *)
}

(* Why these three: perfbench/NOTES.md.  Rates, limits and tail
   percentiles are fixed here so every commit is measured the same way.
   BENCHMARK.json lists only the two closed loops: on a shared 2-vCPU host
   serve-open's open-loop latency did not hold its bound (NOTES.md). *)
let workloads =
  [
    {
      name = "nlp-seq";
      model = "conformer";
      grid = [ "T", [ 32; 48; 64; 80; 96; 112; 128 ] ];
      exec = "fused,arena";
      workers = 1;
      per_binding = 2;
      loop = Closed 1;
      slo_ms = 1000.0;
      tail_pct = 75.0;
    };
    {
      name = "vision-gated";
      model = "skipnet";
      grid = [ "H", [ 96; 128 ]; "W", [ 96; 128 ] ];
      exec = "blocked,arena,variants=8";
      workers = 2;
      per_binding = 16;
      loop = Closed 2;
      slo_ms = 1500.0;
      tail_pct = 75.0;
    };
    {
      name = "serve-open";
      model = "segment-anything";
      grid = [ "H", [ 32; 48; 64 ]; "W", [ 32; 48; 64 ] ];
      exec = "blocked,arena";
      workers = 1;
      per_binding = 2;
      loop = Open 4.5;
      slo_ms = 500.0;
      tail_pct = 75.0;
    };
  ]

let profile = Profile.sd888_cpu
let now = Unix.gettimeofday
let setups = 3
let ratio a b = if b = 0.0 then 0.0 else a /. b

(* ---------- host record ---------- *)

let read_file path =
  try Some (In_channel.with_open_bin path In_channel.input_all) with Sys_error _ -> None

let words line =
  String.split_on_char ' ' (String.map (fun c -> if c = '\t' then ' ' else c) line)
  |> List.filter (fun w -> w <> "")

(* (steal, total) ticks of the aggregate cpu line of /proc/stat *)
let cpu_ticks () =
  match read_file "/proc/stat" with
  | None -> 0, 0
  | Some s -> (
    match words (List.hd (String.split_on_char '\n' s)) with
    | "cpu" :: fields ->
      let f = List.filteri (fun i _ -> i < 8) (List.filter_map int_of_string_opt fields) in
      (if List.length f = 8 then List.nth f 7 else 0), List.fold_left ( + ) 0 f
    | _ -> 0, 0)

let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let loadavg () =
  match Option.map words (read_file "/proc/loadavg") with
  | Some (l :: _) -> Option.value ~default:0.0 (float_of_string_opt l)
  | _ -> 0.0

let vm_hwm_mb () =
  match read_file "/proc/self/status" with
  | None -> 0.0
  | Some s ->
    List.fold_left
      (fun acc line ->
        match words line with
        | "VmHWM:" :: kb :: _ -> float_of_string kb /. 1024.0
        | _ -> acc)
      0.0 (String.split_on_char '\n' s)

let commit () =
  let git p = Option.map String.trim (read_file (Filename.concat ".git" p)) in
  match git "HEAD" with
  | None -> "unknown (not a git checkout)"
  | Some h when String.starts_with ~prefix:"ref: " h -> (
    let r = String.sub h 5 (String.length h - 5) in
    match git r with
    | Some sha -> sha
    | None -> (
      match git "packed-refs" with
      | None -> r
      | Some packed ->
        List.fold_left
          (fun acc line ->
            match words line with [ sha; r' ] when r' = r -> sha | _ -> acc)
          r (String.split_on_char '\n' packed)))
  | Some sha -> sha

(* ---------- serving ---------- *)

type sample = {
  rid : int;
  item : int;  (** pool index *)
  due : float;  (** when the request was due: its send time in a closed loop *)
  sent : float;
  fin : float;
  outcome : ((Graph.tensor_id * Tensor.t) list, string) result;
}

let failure = function
  | Sod2_error.Error e -> Error (Sod2_error.to_string e)
  | e -> Error (Printexc.to_string e)

let settle engine ticket =
  match RT.Engine.await engine ticket with
  | r -> Ok r.RT.Engine.outputs
  | exception e -> failure e

let serve_one engine (it : Gen.item) =
  match RT.Engine.submit engine ~env:it.Gen.env ~inputs:it.Gen.inputs with
  | ticket -> settle engine ticket
  | exception e -> failure e

(* A window is cut into [slices] equal slices, and a monitor thread takes
   the host's steal ticks and this process's CPU time at every cut.  Load
   runs until [kept_slices] slices had at most [clean_steal] of the host's
   ticks stolen, for [slices] slices at least and [max_slices] at most; the
   metrics come from the [kept_slices] slices with the least steal: the
   latencies of the requests due in them, the throughput and CPU time of the
   requests that completed in them. *)
let slices = 10
let max_slices = 17
let kept_slices = 7
let clean_steal = 0.01

type slice = {
  s0 : float;
  s1 : float;
  steal : float;  (** share of the host's CPU ticks stolen by the hypervisor *)
  cpu : float;  (** process CPU seconds *)
}

let slices_of marks =
  let rec go acc = function
    | (t0, (st0, tot0), c0) :: ((t1, (st1, tot1), c1) :: _ as rest) ->
      go
        ({ s0 = t0; s1 = t1; steal = ratio (float_of_int (st1 - st0)) (float_of_int (tot1 - tot0));
           cpu = c1 -. c0 }
        :: acc)
        rest
    | _ -> List.rev acc
  in
  go [] marks

(* One measurement window.  Completion is stamped by the thread that
   awaited the request, and output checking waits until the window ends,
   so the main domain does no work that delays a stamp. *)
let window w engine (pool : Gen.item array) ~seed ~rid0 ~seconds =
  let order = Gen.order ~seed:(seed + rid0) pool ~n:(int_of_float (seconds *. 400.0) + 1) in
  let lock = Mutex.create () in
  let samples = ref [] in
  let keep s =
    Spans.record ~rid:s.rid ~layer:"engine" ~name:"request" s.sent s.fin;
    Mutex.protect lock (fun () -> samples := s :: !samples)
  in
  let mark () = now (), cpu_ticks (), cpu_s () in
  let marks = ref [ mark () ] in
  let t_start = now () in
  let slice_s = seconds /. float_of_int slices in
  let stop = Atomic.make false in
  let monitor =
    Thread.create
      (fun () ->
        let rec cut k clean =
          let d = t_start +. (slice_s *. float_of_int k) -. now () in
          if d > 0.0 then Thread.delay d;
          if not (Atomic.get stop) then begin
            let m = mark () in
            let clean =
              match slices_of [ List.hd !marks; m ] with
              | [ sl ] when sl.steal <= clean_steal -> clean + 1
              | _ -> clean
            in
            marks := m :: !marks;
            if (k >= slices && clean >= kept_slices) || k >= max_slices then Atomic.set stop true
            else cut (k + 1) clean
          end
        in
        cut 1 0)
      ()
  in
  (match w.loop with
   | Closed clients ->
     let next = Atomic.make 0 in
     let rec client () =
       let i = Atomic.fetch_and_add next 1 in
       if (not (Atomic.get stop)) && i < Array.length order then begin
         let item = order.(i) in
         let sent = now () in
         let outcome = serve_one engine pool.(item) in
         keep { rid = rid0 + i; item; due = sent; sent; fin = now (); outcome };
         client ()
       end
     in
     List.iter Thread.join (List.init clients (fun _ -> Thread.create client ()))
   | Open rate ->
     let schedule = Gen.arrivals ~seed:(seed + rid0) ~rate ~slice_s ~slices:max_slices in
     let rec send i waiters =
       let due = t_start +. if i < Array.length schedule then schedule.(i) else 0.0 in
       let d = due -. now () in
       if d > 0.0 then Thread.delay d;
       if i >= Array.length schedule || Atomic.get stop then waiters
       else begin
         let item = order.(i) in
         let it = pool.(item) in
         let sent = now () in
         match RT.Engine.submit engine ~env:it.Gen.env ~inputs:it.Gen.inputs with
         | ticket ->
           let waiter () = keep { rid = rid0 + i; item; due; sent; fin = now (); outcome = settle engine ticket } in
           send (i + 1) (Thread.create waiter () :: waiters)
         | exception e ->
           keep { rid = rid0 + i; item; due; sent; fin = now (); outcome = failure e };
           send (i + 1) waiters
       end
     in
     List.iter Thread.join (send 0 []));
  Atomic.set stop true;
  Thread.join monitor;
  List.sort (fun a b -> compare a.rid b.rid) !samples, slices_of (List.rev !marks)

let setup w g cfg (pool : Gen.item array) ~traced =
  let t0 = now () in
  let c =
    if not traced then Sod2.Pipeline.compile ~opts:cfg.RT.Executor.compile profile g
    else begin
      ignore (Spans.with_span ~layer:"pipeline" "validate" (fun _ -> Validate.check g));
      let rdp = Spans.with_span ~layer:"pipeline" "rdp.analyze" (fun _ -> Sod2.Rdp.analyze g) in
      ignore (Spans.with_span ~layer:"pipeline" "fusion.plan" (fun _ -> Sod2.Fusion.plan g rdp));
      Spans.with_span ~layer:"pipeline" "compile" (fun _ ->
          Sod2.Pipeline.compile ~opts:cfg.RT.Executor.compile profile g)
    end
  in
  let envs = Gen.bindings w.grid in
  if traced then
    List.iter
      (fun env ->
        Spans.with_span ~layer:"mem_plan" "instantiate" (fun _ ->
            ignore (Sod2.Pipeline.instantiated_plan c env)))
      envs;
  let engine = RT.Engine.create ~workers:w.workers ~config:cfg c in
  (* One warm-up request per distinct binding, all submitted at once as a
     server warming up would.  The traced run sends them one at a time
     instead, so the engine's queue high-water mark is the window's. *)
  let warm =
    List.mapi
      (fun b _ -> b, Array.to_list pool |> List.find (fun (it : Gen.item) -> it.Gen.binding = b))
      envs
  in
  let fail b msg =
    Printf.eprintf "perfbench: %s warm-up request on binding %d failed: %s\n" w.name b msg;
    exit 1
  in
  if traced then
    List.iter (fun (b, it) -> Result.iter_error (fail b) (serve_one engine it)) warm
  else
    List.map
      (fun (b, (it : Gen.item)) ->
        b, RT.Engine.submit engine ~env:it.Gen.env ~inputs:it.Gen.inputs)
      warm
    |> List.iter (fun (b, t) -> Result.iter_error (fail b) (settle engine t));
  c, engine, now () -. t0

(* Must run before this process starts any domain or thread, as fork
   requires. *)
let setup_in_child w g cfg pool =
  flush stdout;
  flush stderr;
  let r, wr = Unix.pipe () in
  match Unix.fork () with
  | 0 ->
    Unix.close r;
    let _, engine, dt = setup w g cfg pool ~traced:false in
    RT.Engine.shutdown engine;
    let msg = Printf.sprintf "%.17g\n" dt in
    ignore (Unix.write_substring wr msg 0 (String.length msg));
    Unix._exit 0
  | pid -> (
    Unix.close wr;
    let ic = Unix.in_channel_of_descr r in
    let line = In_channel.input_line ic in
    close_in ic;
    match snd (Unix.waitpid [] pid), Option.bind line float_of_string_opt with
    | Unix.WEXITED 0, Some dt -> dt
    | _ ->
      Printf.eprintf "perfbench: set-up in a child process failed\n";
      exit 1)

(* ---------- correctness ---------- *)

let references (g : Graph.t) (pool : Gen.item array) =
  let n = Array.length pool in
  let refs = Array.make n [] in
  let fill lo hi =
    for i = lo to hi - 1 do
      refs.(i) <- RT.Reference.run g ~inputs:pool.(i).Gen.inputs
    done
  in
  let d = Domain.spawn (fun () -> fill (n / 2) n) in
  fill 0 (n / 2);
  Domain.join d;
  refs

(* The first element that differs, for the mismatch report. *)
let first_difference a b =
  let first xs ys show =
    let rec go i =
      if i >= Array.length xs then "no element differs"
      else if xs.(i) = ys.(i) then go (i + 1)
      else Printf.sprintf "element %d is %s, reference %s" i (show xs.(i)) (show ys.(i))
    in
    go 0
  in
  if Tensor.dims a <> Tensor.dims b || Tensor.dtype a <> Tensor.dtype b then
    Printf.sprintf "%s, reference %s" (Tensor.to_string a) (Tensor.to_string b)
  else if Tensor.is_float_dtype (Tensor.dtype a) then
    first (Tensor.data_f a) (Tensor.data_f b) (Printf.sprintf "%.9g")
  else first (Tensor.data_i a) (Tensor.data_i b) string_of_int

(* DESIGN.md §14: every backend, fused plan and variant plan is
   bit-identical to the reference per dtype, so outputs compare exactly. *)
let mismatch ~reference outs =
  if List.length outs <> List.length reference then
    Some (Printf.sprintf "%d outputs, reference has %d" (List.length outs) (List.length reference))
  else
    List.fold_left2
      (fun acc (ta, va) (tb, vb) ->
        match acc with
        | Some _ -> acc
        | None ->
          if ta <> tb then Some (Printf.sprintf "output t%d where reference has t%d" ta tb)
          else if not (Tensor.equal va vb) then
            Some (Printf.sprintf "tensor t%d differs: %s" ta (first_difference va vb))
          else None)
      None outs reference

(* ---------- metrics ---------- *)

let metric name unit v = name, Json.Obj [ "value", Json.Num v; "unit", Json.Str unit ]
let counter kind = Option.value ~default:0 (List.assoc_opt kind (Profile.Counters.by_kind ()))

let gc_counts () =
  let s = Gc.quick_stat () in
  ( (s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words)
    *. float_of_int (Sys.word_size / 8) /. 1e6,
    s.Gc.major_collections )

type e2e = {
  completed : int;
  attempted : int;
  failed : int;
  counted : int;  (** completed requests that were due in the kept slices *)
  p50_ms : float;
  tail_ms : float;
  mean_ms : float;
  rps : float;
  cpu_ms : float;
  slo_frac : float;
  late_ms : float;
  alloc_mb : float;  (** allocated by the OCaml runtime during the window *)
  majors : int;  (** major collections during the window *)
  steal_kept : float;  (** mean steal share of the kept slices *)
  steal_all : float;
}

let summarize w samples slices ~gc:(alloc_mb, majors) =
  let kept =
    List.filteri (fun i _ -> i < kept_slices)
      (List.stable_sort (fun a b -> Float.compare a.steal b.steal) slices)
  in
  let in_kept t = List.exists (fun sl -> t > sl.s0 && t <= sl.s1) kept in
  let counted = List.filter (fun s -> in_kept s.due) samples in
  let finished = List.length (List.filter (fun s -> Result.is_ok s.outcome && in_kept s.fin) samples) in
  let lat =
    List.filter_map
      (fun s -> match s.outcome with Ok _ -> Some ((s.fin -. s.due) *. 1e3) | Error _ -> None)
      counted
  in
  let sum f l = List.fold_left (fun acc x -> acc +. f x) 0.0 l in
  let pct p = if lat = [] then 0.0 else Stats.percentile lat p in
  let attempted = List.length samples in
  let completed = List.length (List.filter (fun s -> Result.is_ok s.outcome) samples) in
  {
    completed;
    attempted;
    failed = attempted - completed;
    counted = List.length lat;
    p50_ms = pct 50.0;
    tail_ms = pct w.tail_pct;
    mean_ms = (if lat = [] then 0.0 else Stats.mean lat);
    rps = ratio (float_of_int finished) (sum (fun sl -> sl.s1 -. sl.s0) kept);
    cpu_ms = ratio (sum (fun sl -> sl.cpu) kept *. 1e3) (float_of_int finished);
    slo_frac =
      ratio
        (float_of_int (List.length (List.filter (fun l -> l <= w.slo_ms) lat)))
        (float_of_int (List.length counted));
    late_ms =
      (if samples = [] then 0.0
       else Stats.mean (List.map (fun s -> (s.sent -. s.due) *. 1e3) samples));
    alloc_mb;
    majors;
    steal_kept = ratio (sum (fun sl -> sl.steal) kept) (float_of_int (List.length kept));
    steal_all = ratio (sum (fun sl -> sl.steal) slices) (float_of_int (List.length slices));
  }

let measure w engine pool ~seed ~rid0 ~seconds =
  (* Start each window from a compacted heap, so garbage left by set-up
     does not decide when the window's collections fall. *)
  Gc.compact ();
  let mb0, maj0 = gc_counts () in
  let samples, slices = window w engine pool ~seed ~rid0 ~seconds in
  let mb1, maj1 = gc_counts () in
  samples, summarize w samples slices ~gc:(mb1 -. mb0, maj1 - maj0)

(* ---------- replays for the per-layer metrics ---------- *)

type replayed = {
  run_ms : float;
  steps : int;
  internal_mb : float;
  gemm_ms : float;
  gemm_gflop : float;
  pred_ms : float;  (** the cost model's prediction for the traced steps *)
  outputs : (Graph.tensor_id * Tensor.t) list;
}

type replay = {
  items : replayed array;  (** one per pooled input *)
  ready_scans : float;  (** per item *)
  fused_hit : float;
}

(* Each pooled input once, alone, through [Executor.run_real] with the
   workload's config and one long-lived backend and arena as an engine
   worker has; then every traced step's GEMM extents through the
   backend's GEMM kernel.  A first untimed pass fills the caches. *)
let replay w cfg c (pool : Gen.item array) =
  let backend =
    RT.Backend.create ~versions:c.Sod2.Pipeline.versions
      ~threads:(max 1 (Domain.recommended_domain_count () / w.workers))
      ~profile:profile.Profile.name cfg.RT.Executor.backend
  in
  let arena = RT.Arena.create () in
  let last_outcome = Hashtbl.create 8 in
  let run (it : Gen.item) =
    let key = Sod2.Pipeline.plan_key c it.Gen.env in
    let outcomes = Hashtbl.find_opt last_outcome key in
    let memory =
      match cfg.RT.Executor.memory with
      | RT.Executor.Mem_arena -> RT.Executor.Arena { arena; env = it.Gen.env }
      | RT.Executor.Mem_malloc -> RT.Executor.Malloc
    in
    let tr, outs =
      RT.Executor.run_real ~config:cfg ~env:it.Gen.env ~backend ~memory ?outcomes c
        ~inputs:it.Gen.inputs
    in
    (* The engine's prediction rule: the outcome vector of the last run on
       the same plan key, when that run observed every gate. *)
    let v =
      Array.map
        (fun gt ->
          Option.value ~default:(-1)
            (List.assoc_opt gt.Control_region.g_pred tr.RT.Executor.gate_outcomes))
        c.Sod2.Pipeline.control.Control_region.gates
    in
    if Array.length v > 0 && Array.for_all (fun o -> o >= 0) v then
      Hashtbl.replace last_outcome key v;
    tr, outs
  in
  Array.iter (fun it -> ignore (run it)) pool;
  let scans0 = counter "exec-ready-scan" in
  let f0 = RT.Backend.fused_stats backend in
  let kernel = RT.Backend.gemm_kernel backend in
  let per_item =
    Array.mapi
      (fun i it ->
        Spans.with_span ~rid:i ~layer:"bench" "replay" (fun parent ->
            let t0 = now () in
            let tr, outs = run it in
            let t1 = now () in
            Spans.record ~parent ~rid:i ~layer:"executor" ~name:"run_real" t0 t1;
            let gemm_s, flop =
              List.fold_left
                (fun (acc, fl) (m, n, k) ->
                  let buf len = Tensor.storage_f (Tensor.zeros c.Sod2.Pipeline.fdtype [ len ]) in
                  let a = buf (m * k) and b = buf (k * n) and cc = buf (m * n) in
                  let g0 = now () in
                  kernel ~m ~n ~k ~a ~ao:0 ~b ~bo:0 ~c:cc ~co:0;
                  let g1 = now () in
                  Spans.record ~parent ~rid:i ~layer:"backend" ~name:"gemm" g0 g1;
                  acc +. (g1 -. g0), fl +. (2.0 *. float_of_int (m * n * k)))
                (0.0, 0.0)
                (List.filter_map (fun s -> s.RT.Executor.gemm) tr.RT.Executor.steps)
            in
            let sum f = List.fold_left (fun acc s -> acc +. f s) 0.0 tr.RT.Executor.steps in
            {
              run_ms = (t1 -. t0) *. 1e3;
              steps = List.length tr.RT.Executor.steps;
              internal_mb = sum (fun s -> float_of_int s.RT.Executor.internal_bytes) /. 1e6;
              gemm_ms = gemm_s *. 1e3;
              gemm_gflop = flop /. 1e9;
              pred_ms =
                sum (fun s ->
                    Cost_model.group_time_us profile s.RT.Executor.ops
                      ~external_bytes:s.RT.Executor.external_bytes)
                /. 1e3;
              outputs = outs;
            }))
      pool
  in
  let f1 = RT.Backend.fused_stats backend in
  let scans = counter "exec-ready-scan" - scans0 in
  RT.Backend.shutdown backend;
  let fused_total =
    (f1.RT.Backend.hits - f0.RT.Backend.hits)
    + (f1.RT.Backend.misses - f0.RT.Backend.misses)
    + (f1.RT.Backend.rejects - f0.RT.Backend.rejects)
  in
  {
    items = per_item;
    ready_scans = float_of_int scans /. float_of_int (Array.length pool);
    fused_hit =
      ratio (float_of_int (f1.RT.Backend.hits - f0.RT.Backend.hits)) (float_of_int fused_total);
  }

(* ---------- a run ---------- *)

let host_record ~steal0 ~steal1 =
  Printf.printf "host: nproc %d, OCaml %s, commit %s, loadavg %.2f, steal ticks %d -> %d (of %d)\n"
    (Domain.recommended_domain_count ()) Sys.ocaml_version (commit ()) (loadavg ())
    (fst steal0) (fst steal1) (snd steal1 - snd steal0)

let steal_frac (s0, t0) (s1, t1) = ratio (float_of_int (s1 - s0)) (float_of_int (t1 - t0))

let print_e2e label w (e : e2e) =
  Printf.printf
    "%s: %d/%d completed, %d counted (steal %.1f%% in the counted slices, %.1f%% in all): \
     p50 %.1f ms, p%g %.1f ms (%d samples beyond), %.2f req/s, %.1f cpu-ms/req, slo(%.0f ms) \
     %.3f, fail_frac %.4f\n"
    label e.completed e.attempted e.counted (100.0 *. e.steal_kept)
    (100.0 *. e.steal_all) e.p50_ms w.tail_pct e.tail_ms
    (Stats.samples_beyond ~n:e.counted w.tail_pct)
    e.rps e.cpu_ms w.slo_ms e.slo_frac
    (ratio (float_of_int e.failed) (float_of_int e.attempted));
  if not (Stats.tail_supported ~n:e.counted w.tail_pct) then
    Printf.printf "warning: p%g is not supported by %d samples (fewer than 10 beyond it)\n"
      w.tail_pct e.counted

let check w g pool checks =
  let refs = references g pool in
  List.fold_left
    (fun bad (label, item, outs) ->
      match mismatch ~reference:refs.(item) outs with
      | None -> bad
      | Some why ->
        Printf.printf "MISMATCH: workload %s, %s (pool item %d): %s\n" w.name label item why;
        bad + 1)
    0 checks

let served_checks samples =
  List.filter_map
    (fun s ->
      match s.outcome with
      | Ok outs -> Some (Printf.sprintf "request %d" s.rid, s.item, outs)
      | Error msg ->
        Printf.printf "request %d failed: %s\n" s.rid msg;
        None)
    samples

let run w ~seed ~seconds ~traced =
  let spec = Option.get (Zoo.by_name w.model) in
  let g = spec.Zoo.build () in
  let cfg =
    match RT.Executor.config_of_string w.exec with
    | Ok cfg -> cfg
    | Error e -> failwith e
  in
  let pool = Gen.pool ~seed spec g (Gen.bindings w.grid) ~per_binding:w.per_binding in
  let steal0 = cpu_ticks () in
  Printf.printf "workload %s: %s, --exec %s, %d workers, %s, %d bindings x %d inputs, seed %d\n"
    w.name w.model w.exec w.workers
    (match w.loop with
     | Closed k -> Printf.sprintf "closed loop, %d in flight" k
     | Open r -> Printf.sprintf "open loop, %.1f req/s with stratified exponential gaps" r)
    (List.length (Gen.bindings w.grid)) w.per_binding seed;
  if not traced then begin
    (* Set up several times and report the median: first in fresh child
       processes, each a server start whose garbage this process's peak
       RSS never sees, then here, where the engine goes on to serve. *)
    let child_times = List.init (setups - 1) (fun _ -> setup_in_child w g cfg pool) in
    let _, engine, dt = setup w g cfg pool ~traced:false in
    let setup_times = child_times @ [ dt ] in
    let setup_rss = vm_hwm_mb () in
    let samples, e = measure w engine pool ~seed ~rid0:0 ~seconds in
    let rss = vm_hwm_mb () in
    RT.Engine.shutdown engine;
    let steal1 = cpu_ticks () in
    let bad = check w g pool (served_checks samples) in
    host_record ~steal0 ~steal1;
    Printf.printf "setup: %s s\n" (String.concat ", " (List.map (Printf.sprintf "%.3f") setup_times));
    print_e2e "serve" w e;
    Printf.printf "peak rss %.1f MB (%.1f MB after set-up)\n" rss setup_rss;
    ( bad,
      e.attempted,
      e.failed,
      [
        metric "setup_s" "s" (Stats.median setup_times);
        metric "latency_p50_ms" "ms" e.p50_ms;
        metric "latency_tail_ms" "ms" e.tail_ms;
        metric "throughput_rps" "1/s" e.rps;
        metric "cpu_ms_per_req" "ms" e.cpu_ms;
        metric "peak_rss_mb" "MB" rss;
        metric "slo_met_frac" "ratio" e.slo_frac;
      ] )
  end
  else begin
    Spans.set_enabled true;
    Profile.Counters.reset ();
    let c, engine, _ = setup w g cfg pool ~traced:true in
    (* Untraced then traced halves of the window: their difference is the
       tracing overhead. *)
    Spans.set_enabled false;
    let plain_samples, plain = measure w engine pool ~seed ~rid0:0 ~seconds:(seconds /. 2.0) in
    Spans.set_enabled true;
    let kinds = [ "variant-run"; "variant-mispredict"; "engine-variant-direct" ] in
    let c0 = List.map counter kinds in
    let st0 = RT.Engine.stats engine in
    let rid0 = 1_000_000 in
    let traced_samples, e = measure w engine pool ~seed ~rid0 ~seconds:(seconds /. 2.0) in
    let st1 = RT.Engine.stats engine in
    let dc = List.map2 (fun k v0 -> k, float_of_int (counter k - v0)) kinds c0 in
    let hits = float_of_int (counter "plan-cache-hit")
    and misses = float_of_int (counter "plan-cache-miss") in
    RT.Engine.shutdown engine;
    let r = replay w cfg c pool in
    let avg f = Stats.mean (Array.to_list (Array.map f r.items)) in
    let run_ms = avg (fun i -> i.run_ms) and gemm_ms = avg (fun i -> i.gemm_ms) in
    let pred_ms = avg (fun i -> i.pred_ms) in
    let steal1 = cpu_ticks () in
    Spans.set_enabled false;
    let spans = Spans.all () in
    let bad =
      check w g pool
        (served_checks plain_samples @ served_checks traced_samples
        @ Array.to_list
            (Array.mapi (fun i it -> Printf.sprintf "replay %d" i, i, it.outputs) r.items))
    in
    host_record ~steal0 ~steal1;
    print_e2e "untraced half" w plain;
    print_e2e "traced half" w e;
    let sum a = Array.fold_left ( +. ) 0.0 a in
    let done_ = float_of_int (max 1 e.completed) in
    let service_ms =
      ratio
        (sum st1.RT.Engine.busy_us -. sum st0.RT.Engine.busy_us)
        (float_of_int
           (Array.fold_left ( + ) 0 st1.RT.Engine.worker_runs
           - Array.fold_left ( + ) 0 st0.RT.Engine.worker_runs))
      /. 1e3
    in
    let ms l = Stats.mean (if l = [] then [ 0.0 ] else List.map (fun d -> d *. 1e3) l) in
    let var k = List.assoc k dc in
    let self = Spans.self_by_layer spans in
    let self_ms layer = 1e3 *. Option.value ~default:0.0 (List.assoc_opt layer self) in
    let out = Printf.sprintf "perfbench-out/trace-%s-seed%d.json" w.name seed in
    (try Sys.mkdir "perfbench-out" 0o755 with Sys_error _ -> ());
    Out_channel.with_open_bin out (fun oc ->
        output_string oc (Json.to_string (Spans.to_chrome spans));
        output_char oc '\n');
    Printf.printf "wrote %d spans to %s\n" (List.length spans) out;
    ( bad,
      plain.attempted + e.attempted,
      plain.failed + e.failed,
      [
        metric "pipeline.compile_ms" "ms" (ms (Spans.durations spans ~layer:"pipeline" ~name:"compile"));
        metric "rdp.analyze_ms" "ms" (ms (Spans.durations spans ~layer:"pipeline" ~name:"rdp.analyze"));
        metric "fusion.plan_ms" "ms" (ms (Spans.durations spans ~layer:"pipeline" ~name:"fusion.plan"));
        metric "fusion.groups" "count"
          (float_of_int (Array.length c.Sod2.Pipeline.fusion_plan.Sod2.Fusion.groups));
        metric "mem_plan.instantiate_us" "us"
          (1e3 *. ms (Spans.durations spans ~layer:"mem_plan" ~name:"instantiate"));
        metric "mem_plan.hit_ratio" "ratio" (ratio hits (hits +. misses));
        metric "mem_plan.arena_kb" "KiB"
          (List.fold_left
             (fun acc env ->
               Float.max acc
                 (float_of_int (Sod2.Pipeline.instantiated_plan c env).Sod2.Mem_plan.arena_bytes
                 /. 1024.0))
             0.0 (Gen.bindings w.grid));
        metric "variant.run_frac" "ratio" (var "variant-run" /. done_);
        metric "variant.mispredict_frac" "ratio"
          (ratio (var "variant-mispredict") (var "variant-run" +. var "variant-mispredict"));
        metric "variant.direct" "count" (var "engine-variant-direct");
        metric "variant.plans" "count" (float_of_int st1.RT.Engine.plan_variants);
        metric "executor.run_ms" "ms" run_ms;
        metric "executor.steps" "count" (avg (fun i -> float_of_int i.steps));
        metric "executor.ready_scans" "count" r.ready_scans;
        metric "executor.fused_internal_mb" "MB" (avg (fun i -> i.internal_mb));
        metric "backend.gemm_ms" "ms" gemm_ms;
        metric "backend.gemm_gflops" "GFLOP/s" (ratio (avg (fun i -> i.gemm_gflop)) (gemm_ms /. 1e3));
        metric "backend.gemm_share" "ratio" (ratio gemm_ms run_ms);
        metric "backend.fused_hit_ratio" "ratio" r.fused_hit;
        metric "engine.service_ms" "ms" service_ms;
        metric "engine.queue_wait_ms" "ms" (e.mean_ms -. service_ms);
        metric "engine.worker_inflation" "ratio" (ratio service_ms run_ms);
        metric "engine.batched_frac" "ratio"
          (float_of_int (st1.RT.Engine.batched - st0.RT.Engine.batched) /. done_);
        metric "engine.queue_peak" "count" (float_of_int st1.RT.Engine.queue_peak);
        metric "gc.alloc_mb_per_req" "MB" (e.alloc_mb /. done_);
        metric "gc.major_per_req" "count" (float_of_int e.majors /. done_);
        metric "cost_model.pred_ms" "ms" pred_ms;
        metric "cost_model.ratio" "ratio" (ratio run_ms pred_ms);
        metric "bench.gen_late_ms" "ms" e.late_ms;
        metric "bench.steal_frac" "ratio" (steal_frac steal0 steal1);
        metric "span.pipeline_self_ms" "ms" (self_ms "pipeline");
        metric "span.mem_plan_self_ms" "ms" (self_ms "mem_plan");
        metric "span.engine_self_ms" "ms" (self_ms "engine");
        metric "span.executor_self_ms" "ms" (self_ms "executor");
        metric "span.backend_self_ms" "ms" (self_ms "backend");
        metric "span.bench_self_ms" "ms" (self_ms "bench");
        metric "trace.overhead_p50_ms" "ms" (e.p50_ms -. plain.p50_ms);
        metric "trace.overhead_cpu_ms_per_req" "ms" (e.cpu_ms -. plain.cpu_ms);
      ] )
  end

(* ---------- compare ---------- *)

let results_of_file path =
  In_channel.with_open_bin path In_channel.input_lines
  |> List.filter_map (fun line ->
         let line = String.trim line in
         if String.length line > 0 && line.[0] = '{' then Some (Json.parse line) else None)

let metric_values results name =
  List.filter_map
    (fun r ->
      match Option.bind (Json.member "metrics" r) (Json.member name) with
      | Some m -> (
        match Json.member "value" m with Some (Json.Num v) -> Some v | _ -> None)
      | None -> None)
    results

(* Judge a change against its parent, metric by metric, with the bounds
   BENCHMARK.json fixes; each file holds one workload's result lines. *)
let compare_runs bench parent_file change_file =
  let spec = Json.parse (In_channel.with_open_bin bench In_channel.input_all) in
  let parent = results_of_file parent_file and change = results_of_file change_file in
  let metrics = match Json.member "end_to_end" spec with Some (Json.Arr l) -> l | _ -> [] in
  let regressed = ref false in
  Printf.printf "%-18s %12s %12s %8s %8s %8s  %-14s %s\n" "metric" "parent" "change" "spread"
    "worse" "bound" "verdict" "pair wins";
  List.iter
    (fun m ->
      let str k = match Json.member k m with Some (Json.Str s) -> s | _ -> "" in
      let name = str "name" in
      let better = Option.value ~default:Stats.Lower (Stats.better_of_string (str "better")) in
      let bound = match Json.member "bound" m with Some (Json.Num b) -> b | _ -> 0.0 in
      match metric_values parent name, metric_values change name with
      | [], _ | _, [] -> Printf.printf "%-18s (no samples)\n" name
      | p, c ->
        let v = Stats.regression better ~bound ~parent:p ~change:c in
        if v = Stats.Regressed then regressed := true;
        let wins =
          if List.length p = List.length c then
            let g = Stats.pair_win better ~parent:p ~change:c in
            Printf.sprintf "%d/%d%s" g.Stats.wins g.Stats.pairs (if g.Stats.claimed then " GAIN" else "")
          else "unpaired"
        in
        Printf.printf "%-18s %12.4g %12.4g %8.3f %+8.3f %8.3f  %-14s %s\n" name (Stats.median p)
          (Stats.median c)
          (Float.max (Stats.spread p) (Stats.spread c))
          (Stats.worse_by better ~parent:p ~change:c)
          bound (Stats.verdict_name v) wins)
    metrics;
  if !regressed then exit 1

(* ---------- command line ---------- *)

let usage () =
  prerr_endline
    ("usage: sod2_bench --workload NAME --seed N --seconds S --trace 0|1\n\
     \       sod2_bench compare BENCHMARK.json PARENT.jsonl CHANGE.jsonl\n\
      workloads: "
    ^ String.concat ", " (List.map (fun w -> w.name) workloads));
  exit 2

let () =
  match Array.to_list Sys.argv with
  | [ _; "compare"; bench; parent; change ] -> compare_runs bench parent change
  | _ :: args ->
    let rec parse acc = function
      | flag :: v :: rest when String.length flag > 2 && String.sub flag 0 2 = "--" ->
        parse ((String.sub flag 2 (String.length flag - 2), v) :: acc) rest
      | [] -> acc
      | _ -> usage ()
    in
    let opts = parse [] args in
    let get k = match List.assoc_opt k opts with Some v -> v | None -> usage () in
    let int k = match int_of_string_opt (get k) with Some v -> v | None -> usage () in
    if List.exists (fun (k, _) -> not (List.mem k [ "workload"; "seed"; "seconds"; "trace" ])) opts
    then usage ();
    let w =
      match List.find_opt (fun w -> w.name = get "workload") workloads with
      | Some w -> w
      | None -> usage ()
    in
    let seconds = int "seconds" in
    let traced = match int "trace" with 0 -> false | 1 -> true | _ -> usage () in
    if seconds < 1 then usage ();
    let bad, attempted, failed, metrics =
      run w ~seed:(int "seed") ~seconds:(float_of_int seconds) ~traced
    in
    print_endline
      (Json.to_string
         (Json.Obj
            [
              "correct", Json.Bool (bad = 0);
              "attempted", Json.Num (float_of_int attempted);
              "failed", Json.Num (float_of_int (failed + bad));
              "metrics", Json.Obj metrics;
            ]));
    if bad > 0 then exit 1
  | [] -> usage ()
