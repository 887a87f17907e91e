(* Tests for guarded execution and graceful degradation.

   Clean runs: for every zoo model and randomized symbol bindings, the
   guarded executor must report zero incidents and bit-match the reference
   topological interpreter.

   Fault injection: corrupt one artifact at a time — arena offsets, alloc
   sizes, live ranges, RDP dimension predictions, the execution order, a
   fusion group's member list, a kernel — and require that (a) the guard
   catches it as an incident of the right kind, and (b) the degraded run's
   outputs still match the reference interpreter exactly. *)

let cpu = Profile.sd888_cpu
let spec name = Option.get (Zoo.by_name name)
let graph_of name = Sod2_experiments.Harness.graph_of (spec name)

(* seeds per model: the two slow real interpretations (dgnet runs at a
   fixed 224x224; the SD encoder is the widest graph) get one seed each *)
let seeds_for name =
  if name = "stable-diffusion-encoder" || name = "dgnet" then [ 0 ] else [ 0; 1; 2 ]

let tiny_env (sp : Zoo.spec) =
  List.fold_left
    (fun e (s, _) ->
      Env.bind s
        (if sp.input_desc = "Image" || sp.input_desc = "Text + Image" then 64 else 32)
      e)
    Env.empty sp.dim_choices

let randomized_env (sp : Zoo.spec) seed =
  (* small admissible extents, varied per seed: image dims must satisfy the
     stride structure, so draw from 32-aligned values *)
  let pick = [| 32; 64; 96 |] in
  List.fold_left
    (fun (e, i) (s, _) ->
      let v =
        if sp.input_desc = "Image" || sp.input_desc = "Text + Image" then
          pick.((seed + i) mod Array.length pick) |> max 64
        else pick.((seed + i) mod Array.length pick)
      in
      Env.bind s v e, i + 1)
    (Env.empty, 0) sp.dim_choices
  |> fst

let check_outputs name expected (r : Sod2_runtime.Guarded_exec.report) =
  List.iter2
    (fun (t1, v1) (t2, v2) ->
      Alcotest.(check int) (name ^ ": output id") t1 t2;
      if not (Tensor.approx_equal ~eps:1e-4 v1 v2) then
        Alcotest.failf "%s: guarded outputs diverge from the reference" name)
    expected r.Sod2_runtime.Guarded_exec.outputs

let kinds_of (r : Sod2_runtime.Guarded_exec.report) =
  List.map
    (fun (i : Sod2_runtime.Guarded_exec.incident) -> i.Sod2_runtime.Guarded_exec.kind)
    r.Sod2_runtime.Guarded_exec.incidents

let require_kind name kind r =
  if not (List.mem kind (kinds_of r)) then
    Alcotest.failf "%s: expected a %s incident, got [%s]" name
      (Sod2_runtime.Guarded_exec.fault_name kind)
      (String.concat ", "
         (List.map Sod2_runtime.Guarded_exec.fault_name (kinds_of r)))

(* --- clean runs ----------------------------------------------------- *)

let test_clean_matches_reference () =
  List.iter
    (fun (sp : Zoo.spec) ->
      let name = sp.Zoo.name in
      let g = graph_of name in
      let c = Sod2.Pipeline.compile cpu g in
      List.iter
        (fun seed ->
          let env = randomized_env sp seed in
          let inputs = Zoo.make_inputs sp g env (Rng.create (100 + seed)) in
          let expected = Sod2_runtime.Reference.run g ~inputs in
          let r = Sod2_runtime.Guarded_exec.run c ~env ~inputs in
          Alcotest.(check int)
            (name ^ ": clean run has no incidents")
            0
            (List.length r.Sod2_runtime.Guarded_exec.incidents);
          Alcotest.(check bool)
            (name ^ ": clean run uses the arena")
            true
            (r.Sod2_runtime.Guarded_exec.arena_resident > 0);
          check_outputs name expected r)
        (seeds_for name))
    Zoo.all

(* --- fault injection ------------------------------------------------- *)

(* One model exercises each fault kind; the guard logic is model-agnostic. *)
let fault_model = "ranet"

let compiled_with_reference () =
  let sp = spec fault_model in
  let g = graph_of fault_model in
  let c = Sod2.Pipeline.compile cpu g in
  let env = tiny_env sp in
  let inputs = Zoo.make_inputs sp g env (Rng.create 11) in
  let expected = Sod2_runtime.Reference.run g ~inputs in
  c, env, inputs, expected

let corrupt_alloc c env ~f =
  (* the evaluated plan with its middle slotted allocation rewritten *)
  let mp = Sod2.Pipeline.instantiated_plan c env in
  let allocs = mp.Sod2.Mem_plan.allocs in
  let slotted =
    List.filter
      (fun i -> Sod2.Mem_plan.has_slot ~elem:(Tensor.bytes_per_elem c.Sod2.Pipeline.fdtype) allocs.(i))
      (List.init (Array.length allocs) Fun.id)
  in
  let i = List.nth slotted (List.length slotted / 2) in
  allocs.(i) <- f allocs.(i);
  mp

let count kind = Profile.Counters.count ~profile:cpu.Profile.name ~kind

let run_fault name kind ?arena ?mem_plan ?kernel_hook c env inputs expected =
  Profile.Counters.reset ();
  let r = Sod2_runtime.Guarded_exec.run ?arena ?mem_plan ?kernel_hook c ~env ~inputs in
  require_kind name kind r;
  check_outputs name expected r;
  Alcotest.(check bool)
    (name ^ ": incident counted") true
    (count (Sod2_runtime.Guarded_exec.fault_name kind) > 0);
  r

(* Every fault test runs twice: over a fresh arena per call, and over a
   persistent one as an engine worker holds it. *)
let arena_modes () =
  [ None, ""; Some (Sod2_runtime.Arena.create ()), " (persistent arena)" ]

(* A vetting fault: the defective plan is not followed at all. *)
let run_vetting_fault name kind ~mem_plan c env inputs expected =
  List.iter
    (fun (arena, mode) ->
      let name = name ^ mode in
      ignore (run_fault name kind ?arena ~mem_plan c env inputs expected);
      Alcotest.(check bool)
        (name ^ ": ran boxed") true
        (count "arena-fallback-malloc" > 0))
    (arena_modes ())

let test_fault_arena_bounds () =
  let c, env, inputs, expected = compiled_with_reference () in
  let mp =
    corrupt_alloc c env ~f:(fun a ->
        { a with Sod2.Mem_plan.offset = a.Sod2.Mem_plan.offset + 1_000_000_000 })
  in
  run_vetting_fault "oob offset" Sod2_runtime.Guarded_exec.Arena_bounds ~mem_plan:mp
    c env inputs expected;
  let mp = corrupt_alloc c env ~f:(fun a -> { a with Sod2.Mem_plan.offset = -64 }) in
  run_vetting_fault "negative offset" Sod2_runtime.Guarded_exec.Arena_bounds
    ~mem_plan:mp c env inputs expected

let test_fault_plan_overlap () =
  let c, env, inputs, expected = compiled_with_reference () in
  (* force two long-lived allocations onto the same bytes *)
  let mp = Sod2.Pipeline.instantiated_plan c env in
  let allocs = Array.copy mp.Sod2.Mem_plan.allocs in
  if Array.length allocs < 2 then Alcotest.fail "plan too small to corrupt";
  let a0 = allocs.(0) in
  allocs.(1) <-
    { allocs.(1) with
      Sod2.Mem_plan.offset = a0.Sod2.Mem_plan.offset;
      first_step = a0.Sod2.Mem_plan.first_step;
      last_step = a0.Sod2.Mem_plan.last_step
    };
  let mp = { mp with Sod2.Mem_plan.allocs = allocs } in
  run_vetting_fault "overlapping allocs" Sod2_runtime.Guarded_exec.Plan_overlap
    ~mem_plan:mp c env inputs expected

let test_fault_wrong_size () =
  let c, env, inputs, expected = compiled_with_reference () in
  let mp =
    corrupt_alloc c env ~f:(fun a -> { a with Sod2.Mem_plan.size = a.Sod2.Mem_plan.size / 2 })
  in
  run_vetting_fault "undersized alloc" Sod2_runtime.Guarded_exec.Size_mismatch
    ~mem_plan:mp c env inputs expected

let test_fault_wrong_predicted_dims () =
  let c, env, inputs, expected = compiled_with_reference () in
  (* corrupt the RDP S-map entry of a materialized activation tensor *)
  let g = c.Sod2.Pipeline.graph in
  let shapes = Array.copy c.Sod2.Pipeline.rdp.Sod2.Rdp.shapes in
  let victim =
    Sod2.Fusion.materialized_tensors g c.Sod2.Pipeline.fusion_plan
    |> List.filter (fun tid ->
           match Shape.eval env shapes.(tid) with
           | Some dims -> List.length dims >= 2
           | None -> false)
    |> fun l -> List.nth l (List.length l / 2)
  in
  (match Shape.eval env shapes.(victim) with
  | Some dims ->
    shapes.(victim) <-
      Shape.of_dims (List.map (fun d -> Dim.of_int (d + 1)) dims)
  | None -> Alcotest.fail "victim tensor has no concrete predicted shape");
  let c' =
    { c with Sod2.Pipeline.rdp = { c.Sod2.Pipeline.rdp with Sod2.Rdp.shapes } }
  in
  (* instantiate the memory plan from the UNcorrupted facts so only the
     dim prediction is wrong, not the allocation sizes *)
  let mp = Sod2.Pipeline.instantiated_plan c env in
  List.iter
    (fun (arena, mode) ->
      let r =
        run_fault ("wrong RDP prediction" ^ mode) Sod2_runtime.Guarded_exec.Dim_mismatch
          ?arena ~mem_plan:mp c' env inputs expected
      in
      Alcotest.(check bool) "tensor was demoted to boxed storage" true
        (r.Sod2_runtime.Guarded_exec.incidents <> []))
    (arena_modes ())

let test_fault_truncated_order () =
  let c, env, inputs, expected = compiled_with_reference () in
  (* drop the second half of the execution order: the fallback sweep must
     pick up everything the plan no longer covers *)
  let order = c.Sod2.Pipeline.exec.Sod2.Exec_plan.order in
  let keep = List.filteri (fun i _ -> i < List.length order / 2) order in
  let c' =
    { c with Sod2.Pipeline.exec = { c.Sod2.Pipeline.exec with Sod2.Exec_plan.order = keep } }
  in
  List.iter
    (fun (arena, mode) ->
      let r =
        run_fault ("truncated order" ^ mode) Sod2_runtime.Guarded_exec.Truncated_plan
          ?arena c' env inputs expected
      in
      Alcotest.(check bool) "fallback executed nodes" true
        (r.Sod2_runtime.Guarded_exec.demoted_nodes > 0))
    (arena_modes ())

let test_fault_truncated_group () =
  let c, env, inputs, expected = compiled_with_reference () in
  (* amputate the members of one multi-node fusion group *)
  let groups = Array.copy c.Sod2.Pipeline.fusion_plan.Sod2.Fusion.groups in
  let gi =
    let found = ref (-1) in
    Array.iteri
      (fun i (grp : Sod2.Fusion.group) ->
        if !found < 0 && List.length grp.Sod2.Fusion.members > 1 then found := i)
      groups;
    if !found < 0 then Alcotest.fail "no multi-node fusion group to corrupt";
    !found
  in
  groups.(gi) <-
    { (groups.(gi)) with
      Sod2.Fusion.members = [ List.hd groups.(gi).Sod2.Fusion.members ]
    };
  let c' =
    { c with
      Sod2.Pipeline.fusion_plan =
        { c.Sod2.Pipeline.fusion_plan with Sod2.Fusion.groups = groups }
    }
  in
  List.iter
    (fun (arena, mode) ->
      let r =
        run_fault ("truncated group" ^ mode) Sod2_runtime.Guarded_exec.Truncated_plan
          ?arena c' env inputs expected
      in
      Alcotest.(check bool) "fallback executed the amputated nodes" true
        (r.Sod2_runtime.Guarded_exec.demoted_nodes > 0))
    (arena_modes ())

let test_fault_kernel_raises () =
  let c, env, inputs, expected = compiled_with_reference () in
  (* simulate one faulty specialized kernel version: the hook raises for a
     single node during planned execution; the fallback runs the reference
     kernel instead *)
  let victim =
    let found = ref (-1) in
    Array.iter
      (fun (nd : Graph.node) ->
        match nd.Graph.op with
        | Op.Switch _ | Op.Combine _ -> ()
        | _ -> if !found < 0 && nd.Graph.nid > 4 then found := nd.Graph.nid)
      (Graph.nodes c.Sod2.Pipeline.graph);
    !found
  in
  let kernel_hook ~gid:_ ~node =
    if node = victim then failwith "injected kernel fault"
  in
  List.iter
    (fun (arena, mode) ->
      let r =
        run_fault ("kernel fault" ^ mode) Sod2_runtime.Guarded_exec.Kernel_fault ?arena
          ~kernel_hook c env inputs expected
      in
      Alcotest.(check bool) "faulted node re-ran in fallback" true
        (r.Sod2_runtime.Guarded_exec.demoted_nodes > 0))
    (arena_modes ())

(* Guarded runs vet every plan they follow, with no verdict remembered
   between runs: a corrupted evaluation is caught on each run, and each
   answer still equals the reference. *)
let test_guarded_run_vets_evaluated_plan () =
  let c, env, inputs, expected = compiled_with_reference () in
  let arena = Sod2_runtime.Arena.create () in
  for run = 1 to 2 do
    let mp = corrupt_alloc c env ~f:(fun a -> { a with Sod2.Mem_plan.size = a.Sod2.Mem_plan.size * 2 }) in
    ignore
      (run_fault (Printf.sprintf "corrupted evaluation, run %d" run)
         Sod2_runtime.Guarded_exec.Size_mismatch ~arena ~mem_plan:mp c env inputs expected)
  done

let test_counters_aggregate () =
  Profile.Counters.reset ();
  Profile.Counters.record ~profile:"p1" ~kind:"dim-mismatch";
  Profile.Counters.record ~profile:"p1" ~kind:"dim-mismatch";
  Profile.Counters.record ~profile:"p2" ~kind:"arena-bounds";
  Alcotest.(check int) "per profile+kind" 2
    (Profile.Counters.count ~profile:"p1" ~kind:"dim-mismatch");
  Alcotest.(check int) "total" 3 (Profile.Counters.total ());
  Alcotest.(check (list (pair string int))) "by kind"
    [ "arena-bounds", 1; "dim-mismatch", 2 ]
    (Profile.Counters.by_kind ());
  Profile.Counters.reset ();
  Alcotest.(check int) "reset" 0 (Profile.Counters.total ())

let suite =
  [
    Alcotest.test_case "clean runs match reference" `Slow test_clean_matches_reference;
    Alcotest.test_case "fault: arena bounds" `Quick test_fault_arena_bounds;
    Alcotest.test_case "fault: plan overlap" `Quick test_fault_plan_overlap;
    Alcotest.test_case "fault: wrong alloc size" `Quick test_fault_wrong_size;
    Alcotest.test_case "fault: wrong predicted dims" `Quick test_fault_wrong_predicted_dims;
    Alcotest.test_case "fault: truncated order" `Quick test_fault_truncated_order;
    Alcotest.test_case "fault: truncated group" `Quick test_fault_truncated_group;
    Alcotest.test_case "fault: kernel raises" `Quick test_fault_kernel_raises;
    Alcotest.test_case "a guarded run vets the plan it evaluates" `Quick
      test_guarded_run_vets_evaluated_plan;
    Alcotest.test_case "incident counters" `Quick test_counters_aggregate;
  ]
