type strategy =
  | Topological
  | Greedy_memory
  | Optimal_small

type sg_kind =
  | All_known
  | Mixed of int
  | Has_nac

type subgraph = {
  sgid : int;
  sg_groups : int list;
  kind : sg_kind;
}

type t = {
  subgraphs : subgraph array;
  order : int list;
  strategy : strategy;
}

let exhaustive_limit = 16

(* Fallback size for a tensor whose extent is execution determined: a
   conservative planning estimate (the runtime allocates such tensors
   dynamically anyway). *)
let nac_fallback_bytes = 262144

let tensor_bytes g rdp env tid =
  ignore g;
  match Shape.eval env (Rdp.shape rdp tid) with
  | Some dims -> 4 * List.fold_left (fun a d -> a * max 1 d) 1 dims
  | None -> nac_fallback_bytes

(* --- group-level view of the fused graph --- *)

type gview = {
  n_groups : int;
  outputs_of : Graph.tensor_id list array;  (** materialized outputs per group *)
  inputs_of : Graph.tensor_id list array;  (** group-external activation inputs *)
  preds_of : int list array;  (** predecessor groups *)
  group_consumers : int list array;  (** per tensor: consuming groups *)
}

let build_view (g : Graph.t) (fplan : Fusion.plan) : gview =
  let n_groups = Array.length fplan.groups in
  let internal = Hashtbl.create 64 in
  Array.iter
    (fun (grp : Fusion.group) ->
      List.iter (fun tid -> Hashtbl.replace internal tid ()) grp.internal)
    fplan.groups;
  let outputs_of = Array.make n_groups [] in
  let inputs_of = Array.make n_groups [] in
  let preds_of = Array.make n_groups [] in
  let group_consumers = Array.make (Graph.tensor_count g) [] in
  Array.iter
    (fun (grp : Fusion.group) ->
      let outs = ref [] and ins = ref [] and preds = ref [] in
      List.iter
        (fun nid ->
          let nd = Graph.node g nid in
          List.iter
            (fun tid ->
              if not (Hashtbl.mem internal tid) then outs := tid :: !outs)
            nd.outputs;
          List.iter
            (fun tid ->
              match (Graph.tensor g tid).kind with
              | Graph.Activation when not (Hashtbl.mem internal tid) ->
                let producer_group =
                  match Graph.producer g tid with
                  | Some p -> Some fplan.group_of.(p.nid)
                  | None -> None
                in
                (match producer_group with
                | Some pg when pg <> grp.gid ->
                  if not (List.mem tid !ins) then ins := tid :: !ins;
                  if not (List.mem pg !preds) then preds := pg :: !preds
                | _ -> ())
              | _ -> ())
            nd.inputs)
        grp.members;
      outputs_of.(grp.gid) <- List.rev !outs;
      inputs_of.(grp.gid) <- List.rev !ins;
      preds_of.(grp.gid) <- List.rev !preds)
    fplan.groups;
  Array.iteri
    (fun gid ins ->
      List.iter
        (fun tid -> group_consumers.(tid) <- gid :: group_consumers.(tid))
        ins)
    inputs_of;
  { n_groups; outputs_of; inputs_of; preds_of; group_consumers }

(* --- peak-memory simulation over a full group order --- *)

let simulate_peak_bytes g rdp fplan ~env ~order =
  let view = build_view g fplan in
  let size tid = tensor_bytes g rdp env tid in
  let remaining = Array.make (Graph.tensor_count g) 0 in
  Array.iteri (fun tid cons -> remaining.(tid) <- List.length cons) view.group_consumers;
  let cur = ref 0 and peak = ref 0 in
  List.iter
    (fun gid ->
      List.iter (fun tid -> cur := !cur + size tid) view.outputs_of.(gid);
      if !cur > !peak then peak := !cur;
      List.iter
        (fun tid ->
          remaining.(tid) <- remaining.(tid) - 1;
          if remaining.(tid) = 0 && not (List.mem tid (Graph.outputs g)) then
            cur := !cur - size tid)
        view.inputs_of.(gid))
    order;
  !peak

(* --- partitioning --- *)

let group_has_nac (g : Graph.t) rdp (grp : Fusion.group) =
  List.exists
    (fun nid ->
      let nd = Graph.node g nid in
      Op.is_control_flow nd.op
      || List.exists
           (fun tid ->
             match Rdp.shape rdp tid with
             | Shape.Nac -> true
             | Shape.Ranked d -> Array.exists (fun x -> x = Dim.nac) d
             | Shape.Undef -> true)
           nd.outputs)
    grp.members

let group_all_known (g : Graph.t) rdp (grp : Fusion.group) =
  List.for_all
    (fun nid ->
      let nd = Graph.node g nid in
      List.for_all (fun tid -> Shape.is_fully_known (Rdp.shape rdp tid)) nd.outputs)
    grp.members

let partition (g : Graph.t) rdp (fplan : Fusion.plan) =
  (* Walk groups in topological order; nac (and control-flow) groups are
     the barriers that close the running sub-graph and stand alone —
     exactly the partitioning opportunity §4.3 describes. *)
  let subgraphs = ref [] in
  let current = ref [] in
  let flush () =
    if !current <> [] then begin
      subgraphs := List.rev !current :: !subgraphs;
      current := []
    end
  in
  Array.iter
    (fun (grp : Fusion.group) ->
      if group_has_nac g rdp grp then begin
        flush ();
        subgraphs := [ grp.gid ] :: !subgraphs
      end
      else current := grp.gid :: !current)
    fplan.groups;
  flush ();
  List.rev !subgraphs

(* Classification is about shape knowledge only: a <Switch, Combine> pair
   is a partition *barrier* (its execution is input dependent) but its
   tensor shapes are typically known, so it does not make a sub-graph
   unplannable. *)
let group_shape_nac (g : Graph.t) rdp (grp : Fusion.group) =
  List.exists
    (fun nid ->
      let nd = Graph.node g nid in
      List.exists
        (fun tid ->
          match Rdp.shape rdp tid with
          | Shape.Nac | Shape.Undef -> true
          | Shape.Ranked d -> Array.exists (fun x -> x = Dim.nac) d)
        nd.outputs)
    grp.members

let classify_subgraph (g : Graph.t) rdp (fplan : Fusion.plan) gids =
  let grps = List.map (fun gid -> fplan.groups.(gid)) gids in
  if List.exists (group_shape_nac g rdp) grps then Has_nac
  else if List.for_all (group_all_known g rdp) grps then All_known
  else
    let versions = List.fold_left (fun acc grp -> max acc grp.Fusion.versions) 1 grps in
    Mixed versions

(* --- ordering within a sub-graph --- *)

(* Memory state restricted to the sub-graph: tensors produced inside it,
   freed once all their in-sub-graph consumers have run. *)
let order_subgraph (view : gview) ~size ~strategy gids =
  match gids with
  | [] | [ _ ] -> gids
  | _ ->
    let members = Array.of_list gids in
    let k = Array.length members in
    let index_of = Hashtbl.create 16 in
    Array.iteri (fun i gid -> Hashtbl.replace index_of gid i) members;
    let in_sg gid = Hashtbl.mem index_of gid in
    (* Per local group: produced tensors with their sizes and local consumers. *)
    let produces =
      Array.map
        (fun gid ->
          List.map
            (fun tid ->
              let local_consumers =
                List.filter_map
                  (fun cg -> Hashtbl.find_opt index_of cg)
                  view.group_consumers.(tid)
              in
              tid, size tid, local_consumers)
            view.outputs_of.(gid))
        members
    in
    let local_preds =
      Array.map
        (fun gid ->
          List.filter_map (fun pg -> Hashtbl.find_opt index_of pg) view.preds_of.(gid)
          |> List.sort_uniq compare)
        members
    in
    ignore in_sg;
    let subset_mem mask =
      (* Live bytes after executing exactly the groups in [mask]. *)
      let total = ref 0 in
      Array.iteri
        (fun i prods ->
          if mask land (1 lsl i) <> 0 then
            List.iter
              (fun (_, sz, consumers) ->
                let all_consumed =
                  consumers <> []
                  && List.for_all (fun c -> mask land (1 lsl c) <> 0) consumers
                in
                if not all_consumed then total := !total + sz)
              prods)
        produces;
      !total
    in
    let frontier mask =
      let out = ref [] in
      for i = k - 1 downto 0 do
        if mask land (1 lsl i) = 0
           && List.for_all (fun p -> mask land (1 lsl p) <> 0) local_preds.(i)
        then out := i :: !out
      done;
      !out
    in
    let out_bytes i = List.fold_left (fun acc (_, sz, _) -> acc + sz) 0 produces.(i) in
    let exact () =
      let full = (1 lsl k) - 1 in
      let dp = Array.make (full + 1) max_int in
      let via = Array.make (full + 1) (-1) in
      dp.(0) <- 0;
      (* Masks in increasing popcount order is implied by numeric order for
         this DP because transitions only add bits. *)
      for mask = 0 to full - 1 do
        if dp.(mask) < max_int then begin
          let base = subset_mem mask in
          List.iter
            (fun i ->
              let step_peak = base + out_bytes i in
              let cand = max dp.(mask) step_peak in
              let m' = mask lor (1 lsl i) in
              if cand < dp.(m') then begin
                dp.(m') <- cand;
                via.(m') <- i
              end)
            (frontier mask)
        end
      done;
      let rec rebuild mask acc =
        if mask = 0 then acc
        else
          let i = via.(mask) in
          rebuild (mask lxor (1 lsl i)) (members.(i) :: acc)
      in
      rebuild full []
    in
    let greedy () =
      let mask = ref 0 in
      let order = ref [] in
      for _ = 1 to k do
        match frontier !mask with
        | [] -> ()
        | candidates ->
          let score i =
            let m' = !mask lor (1 lsl i) in
            (* Primary: live memory after the step; secondary: transient peak. *)
            subset_mem m', subset_mem !mask + out_bytes i
          in
          let best =
            List.fold_left
              (fun best i ->
                match best with
                | None -> Some (i, score i)
                | Some (_, bs) ->
                  let s = score i in
                  if s < bs then Some (i, s) else best)
              None candidates
          in
          (match best with
          | Some (i, _) ->
            mask := !mask lor (1 lsl i);
            order := members.(i) :: !order
          | None -> ())
      done;
      List.rev !order
    in
    let breadth_first () =
      (* Kahn's algorithm with a FIFO queue: the eager, serialization-like
         order a planning-oblivious executor follows.  It interleaves
         parallel branches, keeping many intermediates live at once. *)
      let indeg = Array.map List.length local_preds in
      let succs = Array.make k [] in
      Array.iteri
        (fun i preds -> List.iter (fun p -> succs.(p) <- i :: succs.(p)) preds)
        local_preds;
      let q = Queue.create () in
      Array.iteri (fun i d -> if d = 0 then Queue.add i q) indeg;
      let order = ref [] in
      while not (Queue.is_empty q) do
        let i = Queue.pop q in
        order := members.(i) :: !order;
        List.iter
          (fun s ->
            indeg.(s) <- indeg.(s) - 1;
            if indeg.(s) = 0 then Queue.add s q)
          (List.rev succs.(i))
      done;
      List.rev !order
    in
    let lazy_dfs () =
      (* Demand-ordered postorder (Sethi–Ullman flavour): every group runs
         as late as its consumers permit, and at a join the memory-hungrier
         operand subtree is evaluated first so its big tensors die before
         the cheap operands materialize. *)
      let visited = Array.make k false in
      let order = ref [] in
      let rec visit i =
        if not visited.(i) then begin
          visited.(i) <- true;
          let preds =
            List.sort (fun a b -> compare (out_bytes b) (out_bytes a)) local_preds.(i)
          in
          List.iter visit preds;
          order := i :: !order
        end
      in
      let has_succ = Array.make k false in
      Array.iter (fun preds -> List.iter (fun p -> has_succ.(p) <- true) preds) local_preds;
      Array.iteri (fun i _ -> if not has_succ.(i) then visit i) members;
      Array.iteri (fun i _ -> if not visited.(i) then visit i) members;
      List.rev_map (fun i -> members.(i)) !order
    in
    let eval_order gid_order =
      (* Peak of within-sub-graph live bytes for this order (mask-free, so
         it works for arbitrarily large sub-graphs). *)
      let idx_of gid = Hashtbl.find index_of gid in
      let remaining =
        Array.map (List.map (fun (_, sz, consumers) -> sz, ref (List.length consumers))) produces
      in
      (* per consumer group: the produced tensors it releases *)
      let releases = Array.make k [] in
      Array.iteri
        (fun i prods ->
          List.iteri
            (fun j (_, _, consumers) ->
              List.iter
                (fun cidx ->
                  releases.(cidx) <- (i, j) :: releases.(cidx))
                consumers)
            prods)
        produces;
      let live = ref 0 and peak = ref 0 in
      List.iter
        (fun gid ->
          let i = idx_of gid in
          live := !live + out_bytes i;
          if !live > !peak then peak := !live;
          List.iter
            (fun (pi, pj) ->
              let sz, rem = List.nth remaining.(pi) pj in
              decr rem;
              if !rem = 0 then live := !live - sz)
            releases.(i))
        gid_order;
      !peak
    in
    let best_of candidates =
      match candidates with
      | [] -> gids
      | first :: rest ->
        List.fold_left
          (fun best cand -> if eval_order cand < eval_order best then cand else best)
          first rest
    in
    (match strategy with
    | Topological -> breadth_first ()
    | Greedy_memory -> if k <= 62 then greedy () else lazy_dfs ()
    | Optimal_small ->
      if k <= exhaustive_limit then best_of [ exact (); breadth_first () ]
      else if k <= 62 then best_of [ lazy_dfs (); greedy (); breadth_first () ]
      else best_of [ lazy_dfs (); breadth_first () ])

let plan ?(strategy = Optimal_small) (g : Graph.t) rdp (fplan : Fusion.plan) ~env =
  let view = build_view g fplan in
  let size tid = tensor_bytes g rdp env tid in
  let parts = partition g rdp fplan in
  let make strat =
    let subgraphs =
      List.mapi
        (fun sgid gids ->
          let ordered = order_subgraph view ~size ~strategy:strat gids in
          { sgid; sg_groups = ordered; kind = classify_subgraph g rdp fplan gids })
        parts
    in
    let order = List.concat_map (fun sg -> sg.sg_groups) subgraphs in
    subgraphs, order
  in
  let subgraphs, order =
    match strategy with
    | Topological | Greedy_memory -> make strategy
    | Optimal_small ->
      (* Per-sub-graph decisions can interact across boundaries; evaluate
         the planned and the naive variants globally and never return a
         plan that loses to the naive order. *)
      let planned = make Optimal_small in
      let naive = make Topological in
      let peak (_, order) = simulate_peak_bytes g rdp fplan ~env ~order in
      if peak planned <= peak naive then planned else naive
  in
  { subgraphs = Array.of_list subgraphs; order; strategy }

let subgraph_kind_counts t =
  let all = ref 0 and m1 = ref 0 and m24 = ref 0 and m58 = ref 0 and nac = ref 0 in
  Array.iter
    (fun sg ->
      match sg.kind with
      | All_known -> incr all
      | Mixed v when v <= 1 -> incr m1
      | Mixed v when v <= 4 -> incr m24
      | Mixed _ -> incr m58
      | Has_nac -> incr nac)
    t.subgraphs;
  [
    "all-known", !all;
    "mixed-1", !m1;
    "mixed-2-4", !m24;
    "mixed-5-8", !m58;
    "nac", !nac;
  ]

let pp ppf t =
  Format.fprintf ppf "execution plan: %d sub-graphs, %d groups@."
    (Array.length t.subgraphs) (List.length t.order);
  Array.iter
    (fun sg ->
      Format.fprintf ppf "  sg%d [%s]: %d groups@." sg.sgid
        (match sg.kind with
        | All_known -> "known"
        | Mixed v -> Printf.sprintf "mixed/%d" v
        | Has_nac -> "nac")
        (List.length sg.sg_groups))
    t.subgraphs
