(* Tests for the RDP-enabled optimizations: fusion, execution planning,
   memory planning, the auto-tuner and multi-version selection, and the
   end-to-end pipeline. *)

let cpu = Profile.sd888_cpu

let graph_of name = Sod2_experiments.Harness.graph_of (Option.get (Zoo.by_name name))

(* ------------------------------------------------------------------ *)
(* Fusion                                                              *)
(* ------------------------------------------------------------------ *)

let test_fusion_structure () =
  let g = graph_of "codebert" in
  let rdp = Sod2.Rdp.analyze g in
  let plan = Sod2.Fusion.plan g rdp in
  Alcotest.(check bool) "fewer groups than nodes" true
    (Sod2.Fusion.layer_count plan < Graph.node_count g);
  (* structural invariants *)
  Array.iter
    (fun (grp : Sod2.Fusion.group) ->
      let heavies =
        List.filter (fun nid -> Op.is_heavy (Graph.node g nid).Graph.op) grp.members
      in
      if List.length heavies > 1 then Alcotest.fail "two heavy ops in one group";
      (* group ids ascend with terminal node id: a topological order *)
      List.iter
        (fun nid ->
          if Op.is_control_flow (Graph.node g nid).Graph.op && List.length grp.members > 1
          then Alcotest.fail "control flow fused")
        grp.members;
      (* internal tensors really are internal *)
      List.iter
        (fun tid ->
          List.iter
            (fun cnid ->
              if plan.Sod2.Fusion.group_of.(cnid) <> grp.gid then
                Alcotest.fail "internal tensor escapes its group")
            (Graph.consumers g tid);
          if List.mem tid (Graph.outputs g) then Alcotest.fail "graph output fused away")
        grp.internal)
    plan.Sod2.Fusion.groups;
  (* gid order is a valid topological order of the group DAG *)
  Array.iter
    (fun (nd : Graph.node) ->
      List.iter
        (fun tid ->
          match Graph.producer g tid with
          | Some p ->
            let gp = plan.Sod2.Fusion.group_of.(p.Graph.nid) in
            let gc = plan.Sod2.Fusion.group_of.(nd.Graph.nid) in
            if gp <> gc && gp > gc then Alcotest.fail "group ids not topological"
          | None -> ())
        nd.Graph.inputs)
    (Graph.nodes g)

let test_fusion_modes_monotone () =
  List.iter
    (fun name ->
      let g = graph_of name in
      let rdp = Sod2.Rdp.analyze g in
      let original = Sod2.Fusion.layer_count (Sod2.Fusion.identity_plan g) in
      let static = Sod2.Fusion.layer_count (Sod2.Fusion.plan ~mode:Sod2.Fusion.Static_only g rdp) in
      let light = Sod2.Fusion.layer_count (Sod2.Fusion.plan ~mode:Sod2.Fusion.Light g rdp) in
      let full = Sod2.Fusion.layer_count (Sod2.Fusion.plan ~mode:Sod2.Fusion.Rdp_based g rdp) in
      if not (full <= light && light <= static && static <= original) then
        Alcotest.failf "%s: fusion modes not monotone (%d/%d/%d/%d)" name original
          static light full)
    [ "codebert"; "yolov6"; "skipnet" ]

let test_fusion_fig4_scenario () =
  (* Sigmoid + Add with RDP-provable equal shapes fuses into one group *)
  let b = Graph.Builder.create () in
  let shape3 = Shape.of_dims [ Dim.of_sym "I"; Dim.of_sym "J"; Dim.of_sym "K" ] in
  let a = Graph.Builder.input b ~name:"a" shape3 in
  let bb = Graph.Builder.input b ~name:"b" shape3 in
  let s = Graph.Builder.node1 b (Op.Unary Op.Sigmoid) [ a ] in
  let c = Graph.Builder.node1 b (Op.Binary Op.Add) [ s; bb ] in
  Graph.Builder.set_outputs b [ c ];
  let g = Graph.Builder.finish b in
  let rdp = Sod2.Rdp.analyze g in
  let plan = Sod2.Fusion.plan g rdp in
  Alcotest.(check int) "single fused group" 1 (Sod2.Fusion.layer_count plan);
  Alcotest.(check int) "single version" 1 plan.Sod2.Fusion.groups.(0).Sod2.Fusion.versions;
  (* without RDP facts the same pair does not fuse statically *)
  let static = Sod2.Fusion.plan ~mode:Sod2.Fusion.Static_only g rdp in
  Alcotest.(check int) "static cannot fuse symbolic shapes" 2
    (Sod2.Fusion.layer_count static)

let test_fusion_version_cap () =
  (* unrelated symbolic operands: every dim pair is ambiguous -> 8 versions
     needed for 3 dims, which is exactly the cap *)
  let b = Graph.Builder.create () in
  let a =
    Graph.Builder.input b ~name:"a"
      (Shape.of_dims [ Dim.of_sym "I"; Dim.of_sym "J"; Dim.of_sym "K" ])
  in
  let bb =
    Graph.Builder.input b ~name:"b"
      (Shape.of_dims [ Dim.of_sym "X"; Dim.of_sym "Y"; Dim.of_sym "Z" ])
  in
  let s = Graph.Builder.node1 b (Op.Unary Op.Sigmoid) [ a ] in
  let c = Graph.Builder.node1 b (Op.Binary Op.Add) [ s; bb ] in
  Graph.Builder.set_outputs b [ c ];
  let g = Graph.Builder.finish b in
  let rdp = Sod2.Rdp.analyze g in
  let plan = Sod2.Fusion.plan g rdp in
  (* the fused group needs 2^3 = 8 versions, at the cap, so it may fuse *)
  let fused = Sod2.Fusion.layer_count plan = 1 in
  if fused then
    Alcotest.(check int) "8 versions" 8 plan.Sod2.Fusion.groups.(0).Sod2.Fusion.versions
  else Alcotest.fail "should fuse at the version cap"

let test_intermediate_bytes () =
  let g = graph_of "codebert" in
  let rdp = Sod2.Rdp.analyze g in
  let env = Env.of_list [ "S", 64 ] in
  let unfused = Sod2.Fusion.intermediate_bytes g (Sod2.Fusion.identity_plan g) env rdp in
  let fused = Sod2.Fusion.intermediate_bytes g (Sod2.Fusion.plan g rdp) env rdp in
  Alcotest.(check bool) "fusion reduces IR bytes" true (fused < unfused)

(* ------------------------------------------------------------------ *)
(* Execution planning                                                  *)
(* ------------------------------------------------------------------ *)

(* A wide synthetic graph with real ordering slack: [branches] parallel
   conv towers of very different widths merged pairwise by adds.  A
   breadth-first executor keeps every tower's output alive at once; a
   planned order can retire the big towers before materializing the small
   ones. *)
let wide_graph () =
  let b = Graph.Builder.create () in
  let rng = Rng.create 9 in
  let x =
    Graph.Builder.input b ~name:"x"
      (Shape.of_dims [ Dim.of_int 1; Dim.of_int 4; Dim.of_sym "H"; Dim.of_sym "H" ])
  in
  let tower cout =
    let w1 = Graph.Builder.const b ~name:(Printf.sprintf "w%d" cout)
        (Tensor.rand_normal rng [ cout; 4; 1; 1 ])
    in
    let y =
      Graph.Builder.node1 b
        (Op.Conv { stride = (1, 1); pads = (0, 0, 0, 0); dilation = (1, 1); groups = 1 })
        [ x; w1 ]
    in
    (* reduce back to 4 channels so towers can be summed *)
    let w2 = Graph.Builder.const b ~name:(Printf.sprintf "v%d" cout)
        (Tensor.rand_normal rng [ 4; cout; 1; 1 ])
    in
    Graph.Builder.node1 b
      (Op.Conv { stride = (1, 1); pads = (0, 0, 0, 0); dilation = (1, 1); groups = 1 })
      [ y; w2 ]
  in
  let towers = List.map tower [ 64; 48; 32; 16; 8; 4 ] in
  let sum =
    List.fold_left
      (fun acc t -> Graph.Builder.node1 b (Op.Binary Op.Add) [ acc; t ])
      (List.hd towers) (List.tl towers)
  in
  Graph.Builder.set_outputs b [ sum ];
  Graph.Builder.finish b

let test_exec_plan_improves_wide_graph () =
  let g = wide_graph () in
  let rdp = Sod2.Rdp.analyze g in
  let fp = Sod2.Fusion.plan g rdp in
  let env = Env.of_list [ "H", 32 ] in
  let peak strategy =
    let ep = Sod2.Exec_plan.plan ~strategy g rdp fp ~env in
    Sod2.Exec_plan.simulate_peak_bytes g rdp fp ~env ~order:ep.Sod2.Exec_plan.order
  in
  let bfs = peak Sod2.Exec_plan.Topological in
  let planned = peak Sod2.Exec_plan.Optimal_small in
  Alcotest.(check bool)
    (Printf.sprintf "planned (%d) strictly beats breadth-first (%d)" planned bfs)
    true (planned < bfs)

let test_exec_plan_orders_valid () =
  List.iter
    (fun name ->
      let g = graph_of name in
      let rdp = Sod2.Rdp.analyze g in
      let fp = Sod2.Fusion.plan g rdp in
      let env =
        List.fold_left (fun e s -> Env.bind s 64 e) Env.empty (Graph.free_syms g)
      in
      List.iter
        (fun strategy ->
          let ep = Sod2.Exec_plan.plan ~strategy g rdp fp ~env in
          (* every group appears exactly once *)
          let order = ep.Sod2.Exec_plan.order in
          Alcotest.(check int) "covers all groups"
            (Array.length fp.Sod2.Fusion.groups)
            (List.length (List.sort_uniq compare order));
          (* producers precede consumers *)
          let pos = Hashtbl.create 64 in
          List.iteri (fun i gid -> Hashtbl.replace pos gid i) order;
          Array.iter
            (fun (nd : Graph.node) ->
              List.iter
                (fun tid ->
                  match Graph.producer g tid with
                  | Some p ->
                    let gp = fp.Sod2.Fusion.group_of.(p.Graph.nid) in
                    let gc = fp.Sod2.Fusion.group_of.(nd.Graph.nid) in
                    if gp <> gc && Hashtbl.find pos gp > Hashtbl.find pos gc then
                      Alcotest.failf "%s: invalid order" name
                  | None -> ())
                nd.Graph.inputs)
            (Graph.nodes g))
        [ Sod2.Exec_plan.Topological; Sod2.Exec_plan.Greedy_memory; Sod2.Exec_plan.Optimal_small ])
    [ "codebert"; "yolov6"; "ranet"; "skipnet" ]

let test_partition_at_control_flow () =
  let g = graph_of "skipnet" in
  let rdp = Sod2.Rdp.analyze g in
  let fp = Sod2.Fusion.plan g rdp in
  let ep = Sod2.Exec_plan.plan g rdp fp ~env:(Env.of_list [ "H", 64; "W", 64 ]) in
  Alcotest.(check bool) "control flow partitions the graph" true
    (Array.length ep.Sod2.Exec_plan.subgraphs > Zoo.gate_count g);
  let counts = Sod2.Exec_plan.subgraph_kind_counts ep in
  let total = List.fold_left (fun a (_, v) -> a + v) 0 counts in
  Alcotest.(check int) "counts cover subgraphs" (Array.length ep.Sod2.Exec_plan.subgraphs) total

(* Random small DAGs of 1×1 convolutions (each node's channel count sets
   its tensor size; convolutions never fuse with each other, so groups are
   nodes) — the subset-DP's answer must equal the brute-force minimum over
   every topological order. *)
let random_dag_graph rng ~k =
  let b = Graph.Builder.create () in
  let x =
    Graph.Builder.input b ~name:"x" (Shape.of_ints [ 1; 2; 8; 8 ])
  in
  let conv cin cout src =
    Graph.Builder.node1 b
      (Op.Conv { stride = (1, 1); pads = (0, 0, 0, 0); dilation = (1, 1); groups = 1 })
      [ src;
        Graph.Builder.const b
          ~name:(Printf.sprintf "w%d" (Rng.int rng 1000000))
          (Tensor.rand_normal rng [ cout; cin; 1; 1 ]) ]
  in
  let tensors = ref [ x, 2 ] in
  for _ = 1 to k do
    let src, cin = List.nth !tensors (Rng.int rng (List.length !tensors)) in
    let cout = 1 + Rng.int rng 8 in
    let y = conv cin cout src in
    tensors := (y, cout) :: !tensors
  done;
  let outs =
    List.filter_map (fun (tid, _) -> if tid = x then None else Some tid) !tensors
  in
  Graph.Builder.set_outputs b [ List.hd outs ];
  Graph.Builder.finish b

let all_topo_orders preds k =
  (* enumerate every topological order of a DAG given per-node predecessor
     lists over 0..k-1 *)
  let orders = ref [] in
  let rec go placed remaining =
    if remaining = [] then orders := List.rev placed :: !orders
    else
      List.iter
        (fun n ->
          if List.for_all (fun p -> List.mem p placed) preds.(n) then
            go (n :: placed) (List.filter (( <> ) n) remaining))
        remaining
  in
  go [] (List.init k Fun.id);
  !orders

let prop_exec_plan_optimal =
  QCheck2.Test.make ~name:"subset-DP order matches brute-force optimum" ~count:25
    QCheck2.Gen.(tup2 (int_range 3 6) (int_range 0 10000))
    (fun (k, seed) ->
      let rng = Rng.create (seed + 31) in
      let g = random_dag_graph rng ~k in
      let rdp = Sod2.Rdp.analyze g in
      let fp = Sod2.Fusion.plan g rdp in
      let env = Env.empty in
      let ep = Sod2.Exec_plan.plan ~strategy:Sod2.Exec_plan.Optimal_small g rdp fp ~env in
      let dp_peak =
        Sod2.Exec_plan.simulate_peak_bytes g rdp fp ~env ~order:ep.Sod2.Exec_plan.order
      in
      (* group-level predecessor lists *)
      let n = Array.length fp.Sod2.Fusion.groups in
      let preds = Array.make n [] in
      Array.iter
        (fun (nd : Graph.node) ->
          List.iter
            (fun tid ->
              match Graph.producer g tid with
              | Some p ->
                let gp = fp.Sod2.Fusion.group_of.(p.Graph.nid) in
                let gc = fp.Sod2.Fusion.group_of.(nd.Graph.nid) in
                if gp <> gc && not (List.mem gp preds.(gc)) then
                  preds.(gc) <- gp :: preds.(gc)
              | None -> ())
            nd.Graph.inputs)
        (Graph.nodes g);
      let best =
        List.fold_left
          (fun acc order ->
            min acc (Sod2.Exec_plan.simulate_peak_bytes g rdp fp ~env ~order))
          max_int (all_topo_orders preds n)
      in
      dp_peak = best)

let test_partition_at_nac () =
  (* a NonZero in the middle splits planning into independent sub-graphs *)
  let b = Graph.Builder.create () in
  let x = Graph.Builder.input b ~name:"x" (Shape.of_dims [ Dim.of_sym "N" ]) in
  let y = Graph.Builder.node1 b (Op.Unary Op.Relu) [ x ] in
  let nz = Graph.Builder.node1 b Op.NonZero [ y ] in
  let z = Graph.Builder.node1 b (Op.Cast Tensor.F32) [ nz ] in
  let w = Graph.Builder.node1 b (Op.Unary Op.Sigmoid) [ z ] in
  Graph.Builder.set_outputs b [ w ];
  let g = Graph.Builder.finish b in
  let rdp = Sod2.Rdp.analyze g in
  let fp = Sod2.Fusion.plan g rdp in
  let ep = Sod2.Exec_plan.plan g rdp fp ~env:(Env.of_list [ "N", 16 ]) in
  Alcotest.(check bool) "at least 3 sub-graphs" true
    (Array.length ep.Sod2.Exec_plan.subgraphs >= 3);
  Alcotest.(check bool) "one has nac" true
    (Array.exists
       (fun (sg : Sod2.Exec_plan.subgraph) -> sg.Sod2.Exec_plan.kind = Sod2.Exec_plan.Has_nac)
       ep.Sod2.Exec_plan.subgraphs)

(* ------------------------------------------------------------------ *)
(* Memory planning                                                     *)
(* ------------------------------------------------------------------ *)

let lifetime_gen =
  QCheck2.Gen.(
    list_size (int_range 1 24)
      (tup3 (int_range 1 4096) (int_range 0 20) (int_range 0 10)))

let normalize_lifetimes l = List.map (fun (sz, f, len) -> sz * 16, f, f + len) l

let prop_memplan_no_overlap_and_bound =
  QCheck2.Test.make ~name:"placements are overlap-free and peak-first <= greedy" ~count:200
    lifetime_gen
    (fun raw ->
      let lts = normalize_lifetimes raw in
      let pf = Sod2.Mem_plan.arena_for Sod2.Mem_plan.Peak_first ~lifetimes:lts in
      let gr = Sod2.Mem_plan.arena_for Sod2.Mem_plan.Greedy_first_fit ~lifetimes:lts in
      (* lower bound: max live bytes *)
      let last = List.fold_left (fun a (_, _, l) -> max a l) 0 lts in
      let lb = ref 0 in
      for s = 0 to last do
        let v = List.fold_left (fun a (b, f, l) -> if f <= s && s <= l then a + b else a) 0 lts in
        if v > !lb then lb := v
      done;
      pf <= gr && pf >= !lb && gr >= !lb)

let prop_memplan_optimal_small =
  QCheck2.Test.make ~name:"exhaustive search bounds both heuristics" ~count:40
    QCheck2.Gen.(list_size (int_range 1 7) (tup3 (int_range 1 64) (int_range 0 6) (int_range 0 4)))
    (fun raw ->
      let lts = normalize_lifetimes raw in
      let opt = Sod2.Mem_plan.arena_for Sod2.Mem_plan.Optimal_search ~lifetimes:lts in
      let pf = Sod2.Mem_plan.arena_for Sod2.Mem_plan.Peak_first ~lifetimes:lts in
      let gr = Sod2.Mem_plan.arena_for Sod2.Mem_plan.Greedy_first_fit ~lifetimes:lts in
      opt <= pf && opt <= gr)

(* Every strategy's placement must pass the no-overlap invariant checker —
   the property the arena executor's correctness rests on. *)
let prop_memplan_validate_heuristics =
  QCheck2.Test.make ~name:"heuristic placements always validate" ~count:200 lifetime_gen
    (fun raw ->
      let lts = normalize_lifetimes raw in
      List.for_all
        (fun s -> Sod2.Mem_plan.validate (Sod2.Mem_plan.plan_raw s ~lifetimes:lts) = Ok ())
        [ Sod2.Mem_plan.Greedy_first_fit; Sod2.Mem_plan.Peak_first ])

let prop_memplan_validate_optimal =
  QCheck2.Test.make ~name:"optimal-search placements always validate" ~count:40
    QCheck2.Gen.(list_size (int_range 1 7) (tup3 (int_range 1 64) (int_range 0 6) (int_range 0 4)))
    (fun raw ->
      let lts = normalize_lifetimes raw in
      Sod2.Mem_plan.validate
        (Sod2.Mem_plan.plan_raw Sod2.Mem_plan.Optimal_search ~lifetimes:lts)
      = Ok ())

(* The plan is placed once, at compile time; each binding only evaluates
   it.  Over the serving grids (Conformer's lengths, SkipNet's image
   sizes) and lengths beyond them, the evaluated plan must be well formed,
   each entry's affine element count must equal the product of its
   evaluated dims, and the stacked offsets may cost at most 10% of arena
   over a full re-placement at that binding. *)
let test_evaluated_plan () =
  List.iter
    (fun (name, envs) ->
      let c = Sod2.Pipeline.compile cpu (graph_of name) in
      let sym = c.Sod2.Pipeline.mem_symbolic in
      List.iter
        (fun env ->
          let at = Format.asprintf "%s at %a" name Env.pp env in
          let mp = Sod2.Pipeline.instantiated_plan c env in
          (match Sod2.Mem_plan.validate mp with
          | Ok () -> ()
          | Error e -> Alcotest.failf "%s: %s" at e);
          Array.iter
            (fun (e : Sod2.Mem_plan.sym_entry) ->
              match Shape.eval env e.se_shape, e.se_numel with
              | Some dims, Some n when Env.eval env n = Some (List.fold_left ( * ) 1 dims) -> ()
              | _ -> Alcotest.failf "%s: t%d's element count disagrees with its dims" at e.se_tid)
            sym.Sod2.Mem_plan.sym_entries;
          let ratio =
            float_of_int mp.Sod2.Mem_plan.arena_bytes
            /. float_of_int (Oracle.replanned c env).Sod2.Mem_plan.arena_bytes
          in
          if ratio > 1.10 then Alcotest.failf "%s: arena %.3fx the re-plan" at ratio)
        envs)
    [
      ( "conformer",
        List.map (fun t -> Env.of_list [ "T", t ]) (16 :: 512 :: List.init 7 (fun i -> 32 + (16 * i))) );
      ( "skipnet",
        List.concat_map
          (fun h -> List.map (fun w -> Env.of_list [ "H", h; "W", w ]) [ 96; 128 ])
          [ 96; 128 ] );
    ]

let test_memplan_on_model () =
  let g = graph_of "yolov6" in
  let c = Sod2.Pipeline.compile cpu g in
  List.iter
    (fun hw ->
      let env = Env.of_list [ "H", hw; "W", hw ] in
      let mp = Sod2.Pipeline.instantiated_plan c env in
      (match Sod2.Mem_plan.validate mp with
      | Ok () -> ()
      | Error e -> Alcotest.failf "invalid plan at %d: %s" hw e);
      Alcotest.(check bool) "arena >= live peak" true
        (mp.Sod2.Mem_plan.arena_bytes >= Sod2.Mem_plan.live_peak_bytes mp);
      Alcotest.(check (list int)) "no dynamic tensors in yolov6" []
        mp.Sod2.Mem_plan.dynamic)
    [ 224; 416 ]

let test_memplan_validate_catches_overlap () =
  let g = graph_of "yolov6" in
  let c = Sod2.Pipeline.compile cpu g in
  let mp = Sod2.Pipeline.instantiated_plan c (Env.of_list [ "H", 224; "W", 224 ]) in
  (* corrupt: force every offset to zero *)
  let corrupted =
    {
      mp with
      Sod2.Mem_plan.allocs =
        Array.map (fun a -> { a with Sod2.Mem_plan.offset = 0 }) mp.Sod2.Mem_plan.allocs;
    }
  in
  match Sod2.Mem_plan.validate corrupted with
  | Ok () -> Alcotest.fail "overlap not detected"
  | Error _ -> ()

(* Best-fit must pick the tightest hole, not the lowest one.  The crafted
   sequence leaves a 20-byte hole at offset 0 and a 15-byte hole at 25;
   first-fit drops the 15-byte block into the 20-byte hole and has to grow
   the arena for the following 20-byte block, best-fit does not. *)
let test_memplan_best_fit_tightest () =
  let lifetimes =
    [ 20, 0, 0; 5, 0, 10; 15, 0, 0; 100, 0, 10; 15, 1, 10; 20, 1, 10 ]
  in
  let check_valid name offsets arena =
    let placed = List.combine offsets lifetimes in
    List.iteri
      (fun i (o1, (s1, f1, l1)) ->
        Alcotest.(check bool) (name ^ ": inside arena") true (o1 >= 0 && o1 + s1 <= arena);
        List.iteri
          (fun j (o2, (s2, f2, l2)) ->
            if i < j && f1 <= l2 && f2 <= l1 && o1 < o2 + s2 && o2 < o1 + s1 then
              Alcotest.failf "%s: live allocations %d and %d overlap" name i j)
          placed)
      placed
  in
  let ff_offsets, ff = Sod2.Mem_plan.pack `First_fit ~lifetimes in
  let bf_offsets, bf = Sod2.Mem_plan.pack `Best_fit ~lifetimes in
  check_valid "first-fit" ff_offsets ff;
  check_valid "best-fit" bf_offsets bf;
  Alcotest.(check int) "first-fit grows the arena" 160 ff;
  Alcotest.(check int) "best-fit reuses the tight hole" 140 bf;
  (* the 15-byte block goes into the 15-byte hole at 25, not the hole at 0 *)
  Alcotest.(check int) "best-fit offset of the 15-byte block" 25 (List.nth bf_offsets 4)

(* ------------------------------------------------------------------ *)
(* Rematerialization                                                   *)
(* ------------------------------------------------------------------ *)

let test_remat_basic () =
  (* three tensors held across step 2 with very different recompute costs:
     the planner must evict the cheap big one first *)
  let t bytes alloc free cost =
    { Sod2.Remat.rt_bytes = bytes; rt_alloc = alloc; rt_free = free; rt_recompute_us = cost }
  in
  let tensors = [ t 1000 0 6 10.0; t 1000 1 4 1000.0; t 500 2 3 5.0 ] in
  let base = Sod2.Remat.peak_of tensors in
  Alcotest.(check int) "baseline peak" 2500 base;
  let p = Sod2.Remat.plan ~budget_bytes:1600 tensors in
  Alcotest.(check bool) "feasible" true p.Sod2.Remat.feasible;
  Alcotest.(check bool) "under budget" true (p.Sod2.Remat.peak_bytes <= 1600);
  Alcotest.(check (list int)) "evicts the cheap tensor" [ 0 ] p.Sod2.Remat.evicted;
  Alcotest.(check (float 0.01)) "pays its recompute cost" 10.0 p.Sod2.Remat.extra_us;
  (* impossible budget: best effort, flagged infeasible *)
  let p = Sod2.Remat.plan ~budget_bytes:100 tensors in
  Alcotest.(check bool) "infeasible flagged" false p.Sod2.Remat.feasible

let remat_gen =
  QCheck2.Gen.(
    list_size (int_range 1 20)
      (tup4 (int_range 1 256) (int_range 0 12) (int_range 0 8) (int_range 1 100)))

let prop_remat_sound =
  QCheck2.Test.make ~name:"remat never raises the peak and pays non-negative time" ~count:200
    QCheck2.Gen.(tup2 remat_gen (int_range 1 2048))
    (fun (raw, budget) ->
      let tensors =
        List.map
          (fun (b, a, len, c) ->
            { Sod2.Remat.rt_bytes = b * 4; rt_alloc = a; rt_free = a + len;
              rt_recompute_us = float_of_int c })
          raw
      in
      let base = Sod2.Remat.peak_of tensors in
      let p = Sod2.Remat.plan ~budget_bytes:budget tensors in
      p.Sod2.Remat.peak_bytes <= base
      && p.Sod2.Remat.extra_us >= 0.0
      && ((not p.Sod2.Remat.feasible) || p.Sod2.Remat.peak_bytes <= budget))

let prop_remat_monotone =
  QCheck2.Test.make ~name:"tighter budgets cost at least as much recompute" ~count:100
    remat_gen
    (fun raw ->
      let tensors =
        List.map
          (fun (b, a, len, c) ->
            { Sod2.Remat.rt_bytes = b * 4; rt_alloc = a; rt_free = a + len;
              rt_recompute_us = float_of_int c })
          raw
      in
      let base = Sod2.Remat.peak_of tensors in
      let loose = Sod2.Remat.plan ~budget_bytes:(base / 2) tensors in
      let tight = Sod2.Remat.plan ~budget_bytes:(base / 4) tensors in
      tight.Sod2.Remat.extra_us >= loose.Sod2.Remat.extra_us -. 1e-9)

(* ------------------------------------------------------------------ *)
(* Auto-tuner and multi-version codegen                                *)
(* ------------------------------------------------------------------ *)

let test_autotune_improves () =
  let rng = Rng.create 11 in
  let cases = [ 512, 512, 256; 4, 512, 256; 96, 96, 96 ] in
  List.iter
    (fun (m, n, k) ->
      let _, tuned = Sod2.Autotune.tune cpu rng ~m ~n ~k in
      let base = Sod2.Autotune.efficiency cpu Sod2.Autotune.default_config ~m ~n ~k in
      Alcotest.(check bool)
        (Printf.sprintf "tuned >= default for %dx%dx%d" m n k)
        true (tuned >= base);
      Alcotest.(check bool) "within range" true (tuned >= 0.05 && tuned <= 0.95))
    cases

let prop_never_worse_than_default =
  QCheck2.Test.make ~name:"tune: winner never scores worse than default_config" ~count:30
    QCheck2.Gen.(tup4 (int_range 8 96) (int_range 8 96) (int_range 8 96) (int_range 0 10_000))
    (fun (m, n, k, seed) ->
      let best, _ =
        Sod2.Autotune.tune ~generations:4 ~population:6 cpu (Rng.create seed) ~m ~n ~k
      in
      Sod2.Autotune.efficiency cpu best ~m ~n ~k
      >= Sod2.Autotune.efficiency cpu Sod2.Autotune.default_config ~m ~n ~k -. 1e-9)

let test_autotune_deterministic () =
  let t1 = Sod2.Autotune.tune cpu (Rng.create 5) ~m:128 ~n:128 ~k:128 in
  let t2 = Sod2.Autotune.tune cpu (Rng.create 5) ~m:128 ~n:128 ~k:128 in
  Alcotest.(check bool) "same seed, same result" true (t1 = t2)

let test_multi_version_selection () =
  Alcotest.(check bool) "skinny" true (Sod2.Multi_version.classify ~m:4 ~n:512 = Sod2.Multi_version.Skinny);
  Alcotest.(check bool) "fat" true (Sod2.Multi_version.classify ~m:512 ~n:512 = Sod2.Multi_version.Fat);
  Alcotest.(check bool) "regular" true (Sod2.Multi_version.classify ~m:64 ~n:64 = Sod2.Multi_version.Regular);
  let table = Sod2.Multi_version.build cpu in
  let single = Sod2.Multi_version.single_version cpu in
  (* the multi-version table can only help *)
  List.iter
    (fun (m, n, k) ->
      let multi = Sod2.Multi_version.efficiency_for cpu table ~m ~n ~k in
      let one = Sod2.Multi_version.efficiency_for cpu single ~m ~n ~k in
      Alcotest.(check bool)
        (Printf.sprintf "multi >= 0.9*single at %dx%dx%d" m n k)
        true (multi >= one *. 0.9))
    [ 512, 512, 256; 4, 512, 256; 96, 96, 96 ]

let test_classify_gemm_tiny () =
  let open Sod2.Multi_version in
  Alcotest.(check string) "16^3 is tiny" "tiny" (class_name (classify_gemm ~m:16 ~n:16 ~k:16));
  Alcotest.(check string) "1x1x1 is tiny" "tiny" (class_name (classify_gemm ~m:1 ~n:1 ~k:1));
  Alcotest.(check string) "just above the cutoff" "regular"
    (class_name (classify_gemm ~m:16 ~n:16 ~k:17));
  Alcotest.(check string) "skinny beats tiny when large" "skinny"
    (class_name (classify_gemm ~m:4 ~n:512 ~k:256));
  Alcotest.(check string) "fat with shallow k" "fat"
    (class_name (classify_gemm ~m:512 ~n:512 ~k:1));
  (* the 2-argument classifier is unchanged: no tiny class without k *)
  Alcotest.(check string) "classify without k" "regular" (class_name (classify ~m:16 ~n:16))

let test_gemm_dims_of_op () =
  let conv = Op.Conv { stride = (1, 1); pads = (0, 0, 0, 0); dilation = (1, 1); groups = 1 } in
  Alcotest.(check (option (triple int int int))) "conv as implicit gemm"
    (Some (8, 100, 27))
    (Sod2.Multi_version.gemm_dims_of_op conv
       ~in_dims:[ [ 1; 3; 12; 12 ]; [ 8; 3; 3; 3 ] ]
       ~out_dims:[ [ 1; 8; 10; 10 ] ]);
  Alcotest.(check (option (triple int int int))) "matmul"
    (Some (32, 128, 64))
    (Sod2.Multi_version.gemm_dims_of_op Op.MatMul ~in_dims:[ [ 32; 64 ]; [ 64; 128 ] ]
       ~out_dims:[ [ 32; 128 ] ]);
  Alcotest.(check (option (triple int int int))) "relu has none" None
    (Sod2.Multi_version.gemm_dims_of_op (Op.Unary Op.Relu) ~in_dims:[ [ 4 ] ]
       ~out_dims:[ [ 4 ] ])

(* ------------------------------------------------------------------ *)
(* Cost model                                                          *)
(* ------------------------------------------------------------------ *)

let test_cost_model () =
  let conv = Op.Conv { stride = (1, 1); pads = (1, 1, 1, 1); dilation = (1, 1); groups = 1 } in
  let small =
    Cost_model.op_time_us cpu conv
      ~in_dims:[ [ 1; 16; 32; 32 ]; [ 16; 16; 3; 3 ] ]
      ~out_dims:[ [ 1; 16; 32; 32 ] ]
  in
  let large =
    Cost_model.op_time_us cpu conv
      ~in_dims:[ [ 1; 16; 64; 64 ]; [ 16; 16; 3; 3 ] ]
      ~out_dims:[ [ 1; 16; 64; 64 ] ]
  in
  Alcotest.(check bool) "bigger problem costs more" true (large > small);
  let tuned =
    Cost_model.op_time_us cpu ~efficiency:0.9 conv
      ~in_dims:[ [ 1; 16; 64; 64 ]; [ 16; 16; 3; 3 ] ]
      ~out_dims:[ [ 1; 16; 64; 64 ] ]
  in
  Alcotest.(check bool) "higher efficiency is faster" true (tuned <= large);
  Alcotest.(check bool) "malloc grows with size" true
    (Cost_model.malloc_time_us cpu ~bytes:(1 lsl 24)
    > Cost_model.malloc_time_us cpu ~bytes:1024);
  (* fusion pays: one launch, less traffic *)
  let ops = [ conv, [ [ 1; 16; 64; 64 ]; [ 16; 16; 3; 3 ] ], [ [ 1; 16; 64; 64 ] ];
              Op.Unary Op.Relu, [ [ 1; 16; 64; 64 ] ], [ [ 1; 16; 64; 64 ] ] ]
  in
  let fused = Cost_model.group_time_us cpu ops ~external_bytes:(2 * 4 * 16 * 64 * 64) in
  let separate =
    large
    +. Cost_model.op_time_us cpu (Op.Unary Op.Relu) ~in_dims:[ [ 1; 16; 64; 64 ] ]
         ~out_dims:[ [ 1; 16; 64; 64 ] ]
  in
  Alcotest.(check bool) "fused cheaper than separate" true (fused < separate)

(* ------------------------------------------------------------------ *)
(* Pipeline                                                            *)
(* ------------------------------------------------------------------ *)

let test_pipeline_flags () =
  let g = graph_of "codebert" in
  let all = Sod2.Pipeline.compile cpu g in
  let none = Sod2.Pipeline.compile ~flags:Sod2.Pipeline.no_opts cpu g in
  Alcotest.(check bool) "RDP fusion fuses more" true
    (Array.length all.Sod2.Pipeline.fusion_plan.Sod2.Fusion.groups
    < Array.length none.Sod2.Pipeline.fusion_plan.Sod2.Fusion.groups);
  Alcotest.(check bool) "plan env binds model syms" true
    (Env.lookup (Sod2.Pipeline.plan_env all 7) "S" = Some 7)

let suite =
  [
    Alcotest.test_case "fusion: structural invariants" `Quick test_fusion_structure;
    Alcotest.test_case "fusion: modes are monotone" `Quick test_fusion_modes_monotone;
    Alcotest.test_case "fusion: Fig 4 scenario" `Quick test_fusion_fig4_scenario;
    Alcotest.test_case "fusion: version cap" `Quick test_fusion_version_cap;
    Alcotest.test_case "fusion: IR bytes shrink" `Quick test_intermediate_bytes;
    Alcotest.test_case "exec plan: wide graph improves" `Quick test_exec_plan_improves_wide_graph;
    Alcotest.test_case "exec plan: orders valid on zoo" `Quick test_exec_plan_orders_valid;
    Alcotest.test_case "exec plan: partition at control flow" `Quick test_partition_at_control_flow;
    Alcotest.test_case "exec plan: partition at nac" `Quick test_partition_at_nac;
    Alcotest.test_case "mem plan: valid on model" `Quick test_memplan_on_model;
    Alcotest.test_case "mem plan: validator catches overlap" `Quick test_memplan_validate_catches_overlap;
    Alcotest.test_case "mem plan: best-fit picks tightest hole" `Quick test_memplan_best_fit_tightest;
    Alcotest.test_case "remat planner basics" `Quick test_remat_basic;
    Alcotest.test_case "autotune improves on default" `Quick test_autotune_improves;
    Alcotest.test_case "autotune deterministic" `Quick test_autotune_deterministic;
    QCheck_alcotest.to_alcotest prop_never_worse_than_default;
    Alcotest.test_case "multi-version selection" `Quick test_multi_version_selection;
    Alcotest.test_case "classify_gemm: tiny cutoff" `Quick test_classify_gemm_tiny;
    Alcotest.test_case "implicit gemm extraction" `Quick test_gemm_dims_of_op;
    Alcotest.test_case "cost model sanity" `Quick test_cost_model;
    Alcotest.test_case "pipeline flags" `Quick test_pipeline_flags;
    QCheck_alcotest.to_alcotest prop_memplan_no_overlap_and_bound;
    QCheck_alcotest.to_alcotest prop_memplan_optimal_small;
    QCheck_alcotest.to_alcotest prop_memplan_validate_heuristics;
    QCheck_alcotest.to_alcotest prop_memplan_validate_optimal;
    Alcotest.test_case "evaluated plan: valid, numel = dims, arena <= 1.10x re-plan" `Quick
      test_evaluated_plan;
    QCheck_alcotest.to_alcotest prop_remat_sound;
    QCheck_alcotest.to_alcotest prop_remat_monotone;
    QCheck_alcotest.to_alcotest prop_exec_plan_optimal;
  ]
