type fault_kind =
  | Arena_bounds
  | Plan_overlap
  | Size_mismatch
  | Dim_mismatch
  | Truncated_plan
  | Kernel_fault

let fault_name = function
  | Arena_bounds -> "arena-bounds"
  | Plan_overlap -> "plan-overlap"
  | Size_mismatch -> "size-mismatch"
  | Dim_mismatch -> "dim-mismatch"
  | Truncated_plan -> "truncated-plan"
  | Kernel_fault -> "kernel-fault"

type incident = {
  kind : fault_kind;
  detail : string;
}

type report = {
  outputs : (Graph.tensor_id * Tensor.t) list;
  incidents : incident list;
  planned_groups : int;
  demoted_nodes : int;
  arena_bytes : int;
  arena_resident : int;
  gate_outcomes : (Graph.tensor_id * int) list;
}

let kind_of_defect = function
  | Mem_plan.Out_of_arena _ -> Arena_bounds
  | Mem_plan.Wrong_size _ -> Size_mismatch
  | Mem_plan.Overlap _ -> Plan_overlap

(* Vet once, run the executor, else re-run Reference.  The plan attempt
   is the ordinary executor with the RDP cross-check on; whatever it
   leaves behind when it raises or comes up short is discarded, so no
   state from a failed attempt reaches the fallback answer. *)
let run ?(config = Executor.default_config) ?mem_plan ?arena ?kernel_hook ?backend
    ?outcomes (c : Pipeline.compiled) ~env ~inputs =
  let g = c.Pipeline.graph in
  let incidents = ref [] in
  let incident kind detail =
    incidents := { kind; detail } :: !incidents;
    Profile.Counters.record ~profile:c.Pipeline.profile.Profile.name
      ~kind:(fault_name kind)
  in
  let plan =
    match mem_plan with
    | Some p -> p, Pipeline.vet_plan c env p
    | None -> Pipeline.vetted_plan c env
  in
  List.iter (fun d -> incident (kind_of_defect d) (Mem_plan.defect_message d)) (snd plan);
  let arena = match arena with Some a -> a | None -> Arena.create () in
  let attempt =
    match
      Executor.run_real ~config:{ config with Executor.guarded = true } ~env ?backend
        ~memory:(Executor.Arena { arena; env })
        ?outcomes ~plan ?kernel_hook c ~inputs
    with
    | trace, outputs when List.length outputs = List.length (Graph.outputs g) ->
      Some (trace, outputs)
    | _, outputs ->
      incident Truncated_plan
        (Printf.sprintf "plan left %d of %d graph outputs unproduced"
           (List.length (Graph.outputs g) - List.length outputs)
           (List.length (Graph.outputs g)));
      None
    (* The guarded boundary cross-check raises [Shape_mismatch]. *)
    | exception Sod2_error.Error ({ cls = Sod2_error.Shape_mismatch; _ } as e) ->
      incident Dim_mismatch (Sod2_error.to_string e);
      None
    | exception ((Sod2_error.Error _ | Invalid_argument _ | Failure _) as e) ->
      incident Kernel_fault (Printexc.to_string e);
      None
  in
  let incidents = List.rev !incidents in
  match attempt with
  | Some (trace, outputs) ->
    {
      outputs;
      incidents;
      planned_groups = List.length trace.Executor.steps;
      demoted_nodes = 0;
      arena_bytes = trace.Executor.arena_bytes;
      arena_resident = trace.Executor.arena_resident;
      gate_outcomes = trace.Executor.gate_outcomes;
    }
  | None ->
    {
      outputs = Reference.run g ~inputs;
      incidents;
      planned_groups = 0;
      demoted_nodes = Graph.node_count g;
      arena_bytes = 0;
      arena_resident = 0;
      gate_outcomes = [];
    }
