(* Memory budgets: the Fig. 11 scenario.  A mobile app gives the engine a
   fixed arena; an engine whose plan does not fit must rematerialize
   (recompute) intermediates, trading latency for memory.  SoD2's
   peak-first memory plan fits budgets a conservative engine cannot.

   The example prints SoD2's symbolic memory plan for RaNet, shows the
   per-inference arena it instantiates at several input sizes, and then
   compares against the TFLite-style engine under SoD2's own budget. *)

let () =
  let sp = Option.get (Zoo.by_name "ranet") in
  let g = sp.build () in
  let profile = Profile.sd888_cpu in
  let c = Sod2.Pipeline.compile profile g in

  Printf.printf "SoD2 memory plans for RaNet at three input sizes:\n";
  List.iter
    (fun hw ->
      let env = Env.of_list [ "H", hw; "W", hw ] in
      let mp = Sod2.Pipeline.instantiated_plan c env in
      let ok = match Sod2.Mem_plan.validate mp with Ok () -> "valid" | Error e -> e in
      Printf.printf "  %dx%d: arena %6.2f MB over %d allocations (%s), live peak %6.2f MB\n"
        hw hw
        (float_of_int mp.Sod2.Mem_plan.arena_bytes /. 1048576.0)
        (Array.length mp.Sod2.Mem_plan.allocs) ok
        (float_of_int (Sod2.Mem_plan.live_peak_bytes mp) /. 1048576.0))
    [ 224; 416; 640 ];

  let max_dims = Zoo.input_dims sp g (Zoo.max_env sp) in
  let sod2 = Framework.create Framework.Sod2_fw profile g ~max_dims in
  let tfl = Framework.create Framework.Tflite profile g ~max_dims in
  Printf.printf "\nunder SoD2's budget, the conservative engine must rematerialize:\n";
  List.iter
    (fun (sm : Workload.sample) ->
      let input_dims = Zoo.input_dims sp g sm.env in
      let s = Framework.run sod2 ~input_dims ~gate:sm.gate in
      let t =
        Framework.run_with_budget tfl ~budget_bytes:s.Framework.peak_bytes ~input_dims
          ~gate:sm.gate
      in
      Printf.printf "  %-18s budget %6.2f MB: SoD2 %7.1f ms, TFLite+remat %7.1f ms (%.2fx)\n"
        (String.concat " "
           (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) (Env.to_list sm.env)))
        (float_of_int s.Framework.peak_bytes /. 1048576.0)
        (s.Framework.latency_us /. 1000.0)
        (t.Framework.latency_us /. 1000.0)
        (t.Framework.latency_us /. s.Framework.latency_us))
    (Workload.ascending_sizes ~n:5 sp)
