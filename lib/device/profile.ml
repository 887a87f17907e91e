type target =
  | Cpu
  | Gpu

type t = {
  name : string;
  soc : string;
  target : target;
  gflops : float;
  mem_bw_gbs : float;
  cache_bytes : int;
  launch_overhead_us : float;
  malloc_base_us : float;
  malloc_us_per_mb : float;
  shape_fn_us : float;
  reinit_shape_pass_us_per_op : float;
  reinit_tuning_us_per_op : float;
  cache_spill_penalty : float;
  pressure_coeff : float;
}

(* Calibration notes: the CPU/GPU throughput ratio, the enormous GPU
   allocation cost (Table 1 shows MNN spending 30.6 s in GPU Alloc for
   YOLO-V6 against 102 ms of inference — mobile GPU buffers are mapped,
   not merely reserved), and the per-op re-initialization costs are set so
   the overhead regimes of Table 1 reproduce. *)

let sd888_cpu = {
  name = "sd888-cpu";
  soc = "Snapdragon 888";
  target = Cpu;
  gflops = 30.0;
  mem_bw_gbs = 22.0;
  cache_bytes = 4 * 1024 * 1024;
  launch_overhead_us = 4.0;
  malloc_base_us = 2.0;
  malloc_us_per_mb = 55.0;
  shape_fn_us = 45.0;
  reinit_shape_pass_us_per_op = 115.0;
  reinit_tuning_us_per_op = 4500.0;
  cache_spill_penalty = 2.2;
  pressure_coeff = 0.15;
}

let sd888_gpu = {
  name = "sd888-gpu";
  soc = "Snapdragon 888";
  target = Gpu;
  gflops = 150.0;
  mem_bw_gbs = 28.0;
  cache_bytes = 2 * 1024 * 1024;
  launch_overhead_us = 30.0;
  malloc_base_us = 40.0;
  malloc_us_per_mb = 72000.0;
  shape_fn_us = 70.0;
  reinit_shape_pass_us_per_op = 2.0;
  reinit_tuning_us_per_op = 2800.0;
  cache_spill_penalty = 3.0;
  pressure_coeff = 0.48;
}

let sd835_cpu = {
  name = "sd835-cpu";
  soc = "Snapdragon 835";
  target = Cpu;
  gflops = 11.0;
  mem_bw_gbs = 9.0;
  cache_bytes = 2 * 1024 * 1024;
  launch_overhead_us = 7.0;
  malloc_base_us = 3.0;
  malloc_us_per_mb = 90.0;
  shape_fn_us = 85.0;
  reinit_shape_pass_us_per_op = 220.0;
  reinit_tuning_us_per_op = 8000.0;
  cache_spill_penalty = 2.8;
  pressure_coeff = 0.22;
}

let sd835_gpu = {
  name = "sd835-gpu";
  soc = "Snapdragon 835";
  target = Gpu;
  gflops = 48.0;
  mem_bw_gbs = 12.0;
  cache_bytes = 1024 * 1024;
  launch_overhead_us = 45.0;
  malloc_base_us = 60.0;
  malloc_us_per_mb = 110000.0;
  shape_fn_us = 120.0;
  reinit_shape_pass_us_per_op = 4.0;
  reinit_tuning_us_per_op = 5200.0;
  cache_spill_penalty = 3.6;
  pressure_coeff = 0.60;
}

let all = [ sd888_cpu; sd888_gpu; sd835_cpu; sd835_gpu ]

let by_name n = List.find_opt (fun p -> p.name = n) all

let pp ppf p =
  Format.fprintf ppf "%s (%s, %s, %.0f GFLOP/s, %.0f GB/s)" p.name p.soc
    (match p.target with Cpu -> "CPU" | Gpu -> "GPU")
    p.gflops p.mem_bw_gbs

(* ------------------------------------------------------------------ *)
(* Guarded-execution incident counters                                 *)
(* ------------------------------------------------------------------ *)

module Counters = struct
  (* (profile name, incident kind) -> occurrences.  Process-global so any
     monitoring surface (CLI, experiments harness) can read the fallback
     health of every device session without threading state through.
     Engine workers bump these concurrently from several domains, so every
     table access holds [lock] — a plain Hashtbl.replace race would lose
     increments (and can corrupt the table's bucket chains). *)
  let table : (string * string, int) Hashtbl.t = Hashtbl.create 16
  let lock = Mutex.create ()

  let add ~profile ~kind n =
    if n > 0 then begin
      let key = profile, kind in
      Mutex.lock lock;
      Hashtbl.replace table key (n + Option.value ~default:0 (Hashtbl.find_opt table key));
      Mutex.unlock lock
    end

  let record ~profile ~kind = add ~profile ~kind 1

  let count ~profile ~kind =
    Mutex.lock lock;
    let n = Option.value ~default:0 (Hashtbl.find_opt table (profile, kind)) in
    Mutex.unlock lock;
    n

  let by_kind () =
    Mutex.protect lock (fun () ->
        let agg = Hashtbl.create 8 in
        Hashtbl.iter
          (fun (_, kind) v ->
            Hashtbl.replace agg kind
              (v + Option.value ~default:0 (Hashtbl.find_opt agg kind)))
          table;
        Hashtbl.fold (fun k v acc -> (k, v) :: acc) agg []
        |> List.sort (fun (a, _) (b, _) -> String.compare a b))

  let total () = Mutex.protect lock (fun () -> Hashtbl.fold (fun _ v acc -> acc + v) table 0)

  let reset () = Mutex.protect lock (fun () -> Hashtbl.reset table)
end
