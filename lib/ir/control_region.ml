type gate = {
  g_id : int;
  g_pred : Graph.tensor_id;
  g_branches : int;
  g_switches : Graph.node_id list;
  g_combines : Graph.node_id list;
}

type t = {
  gates : gate array;
  node_constraints : (int * int) list array;
}

let gate_count t = Array.length t.gates

(* Merge a constraint into a set.  Two different branches of the same gate
   on one node would mean the node is unreachable under every outcome; the
   zoo builders never produce that, but a hand-built graph could — keep
   both constraints so [live_node] reports the node dead under any single
   outcome, which is the sound answer. *)
let add_constraint cs c = if List.mem c cs then cs else c :: cs

let discover (g : Graph.t) =
  (* One gate per predicate tensor: every Switch (and its paired Combines)
     driven by the same predicate resolves together, as one gate. *)
  let by_pred = Hashtbl.create 8 in
  let order = ref [] in
  Array.iter
    (fun (nd : Graph.node) ->
      match nd.Graph.op with
      | Op.Switch { branches } -> (
        match List.rev nd.Graph.inputs with
        | pred :: _ ->
          (match Hashtbl.find_opt by_pred pred with
          | None ->
            Hashtbl.replace by_pred pred (branches, [ nd.Graph.nid ], []);
            order := pred :: !order
          | Some (b, sw, co) ->
            Hashtbl.replace by_pred pred (max b branches, nd.Graph.nid :: sw, co))
        | [] -> ())
      | Op.Combine _ -> (
        match List.rev nd.Graph.inputs with
        | pred :: _ -> (
          match Hashtbl.find_opt by_pred pred with
          | Some (b, sw, co) -> Hashtbl.replace by_pred pred (b, sw, nd.Graph.nid :: co)
          | None -> ())
        | [] -> ())
      | _ -> ())
    (Graph.nodes g);
  let gates =
    List.rev !order
    |> List.mapi (fun i pred ->
           let branches, switches, combines = Hashtbl.find by_pred pred in
           {
             g_id = i;
             g_pred = pred;
             g_branches = branches;
             g_switches = List.rev switches;
             g_combines = List.rev combines;
           })
    |> Array.of_list
  in
  let gate_of_switch = Hashtbl.create 8 in
  let gate_of_combine = Hashtbl.create 8 in
  Array.iter
    (fun gt ->
      List.iter (fun nid -> Hashtbl.replace gate_of_switch nid gt.g_id) gt.g_switches;
      List.iter (fun nid -> Hashtbl.replace gate_of_combine nid gt.g_id) gt.g_combines)
    gates;
  (* Forward constraint propagation over the (topological) node order.
     A node is constrained to (gate, branch) when its value only exists if
     that gate selects that branch.  Switch outputs introduce constraints;
     Combine outputs discharge their own gate's constraints (the merged
     value exists whichever branch ran). *)
  let tensor_cs : (int * int) list array = Array.make (Graph.tensor_count g) [] in
  let node_cs : (int * int) list array = Array.make (Graph.node_count g) [] in
  Array.iter
    (fun (nd : Graph.node) ->
      let inherited =
        List.fold_left
          (fun acc tid -> List.fold_left add_constraint acc tensor_cs.(tid))
          [] nd.Graph.inputs
      in
      match nd.Graph.op with
      | Op.Switch _ ->
        node_cs.(nd.Graph.nid) <- inherited;
        let gid = Hashtbl.find gate_of_switch nd.Graph.nid in
        List.iteri
          (fun i tid -> tensor_cs.(tid) <- add_constraint inherited (gid, i))
          nd.Graph.outputs
      | Op.Combine _ ->
        (* The Combine executes under every outcome of its own gate — it is
           the merge point — so its own gate's (contradictory) branch
           constraints, inherited once per branch input, are discharged for
           the node itself as well as for its outputs. *)
        let drop =
          match Hashtbl.find_opt gate_of_combine nd.Graph.nid with
          | Some gid -> List.filter (fun (gg, _) -> gg <> gid) inherited
          | None -> inherited
        in
        node_cs.(nd.Graph.nid) <- drop;
        List.iter (fun tid -> tensor_cs.(tid) <- drop) nd.Graph.outputs
      | _ ->
        node_cs.(nd.Graph.nid) <- inherited;
        List.iter (fun tid -> tensor_cs.(tid) <- inherited) nd.Graph.outputs)
    (Graph.nodes g);
  { gates; node_constraints = node_cs }

let constraints t nid = t.node_constraints.(nid)

(* [outcome.(gid) = -1] means the gate's branch is left open — nodes under
   it stay live. *)
let live_node t ~outcome (nid : Graph.node_id) =
  List.for_all
    (fun (gid, branch) ->
      gid >= Array.length outcome
      ||
      let o = outcome.(gid) in
      o < 0 || o = branch)
    t.node_constraints.(nid)

let gate_of_switch t nid =
  let found = ref None in
  Array.iter
    (fun gt -> if List.mem nid gt.g_switches then found := Some gt.g_id)
    t.gates;
  !found

let pp ppf t =
  Array.iter
    (fun gt ->
      Format.fprintf ppf "gate %d: pred t%d, %d branches, %d switch(es), %d combine(s)@."
        gt.g_id gt.g_pred gt.g_branches (List.length gt.g_switches)
        (List.length gt.g_combines))
    t.gates
