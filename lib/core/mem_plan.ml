type strategy =
  | Greedy_first_fit
  | Peak_first
  | Optimal_search

type alloc = {
  tid : Graph.tensor_id;
  offset : int;
  size : int;
  first_step : int;
  last_step : int;
  elem : int;
}

type t = {
  allocs : alloc array;
  dynamic : Graph.tensor_id list;
  arena_bytes : int;
  strategy : strategy;
}

(* Lifetime of every materialized activation tensor in terms of execution
   steps (positions in the group order). *)
type lifetime = {
  lt_tid : Graph.tensor_id;
  lt_size : int;
  lt_first : int;
  lt_last : int;
  lt_elem : int;
}

(* One symbolic lifetime: the tensor's RDP shape (dims as affine [Expr]s
   over the shape variables), its affine element count and its
   execution-step live range, all env-independent, plus the earlier
   entries (positions in [sym_entries]) whose lifetimes overlap it: the
   slots it is stacked above at every binding. *)
type sym_entry = {
  se_tid : Graph.tensor_id;
  se_shape : Shape.t;
  se_numel : Expr.t option;
  se_first : int;
  se_last : int;
  se_elem : int option;
  se_preds : int array;
}

type symbolic = {
  sym_entries : sym_entry array;  (** by (offset at the compile binding, tid) *)
  sym_dynamic : sym_entry list;  (** unresolved at the compile binding *)
  sym_alias : (Graph.tensor_id * Graph.tensor_id) list;
  sym_out_shared : bool array;
  sym_strategy : strategy;
  sym_elem : int;  (** bytes per element of the float dtype planned for *)
}

(* The inputs whose storage a node's outputs share: a view's data input,
   a Switch's routed data, every branch a Combine may forward. *)
let aliased (nd : Graph.node) =
  match nd.op, nd.inputs with
  | Op.Switch _, data :: _ -> [ data ]
  | op, data :: _ when Op.is_view op -> [ data ]
  | Op.Combine _, ins -> List.filteri (fun i _ -> i < List.length ins - 1) ins
  | _ -> []

(* The env-independent part of lifetime analysis: which tensors
   materialize, their symbolic shapes and their step ranges.  Every float
   activation gets an entry, group internals included: a group that runs
   op by op (on a naive backend, or when its template is withheld or its
   fused kernel refused) writes them, each live for its group's step.  Aliases get no
   entry; each of their roots (the non-alias tensors whose storage they
   share, through alias chains) lives on until the aliases' last
   consumer.  {!concretize} turns the result into placeable lifetimes by
   affine evaluation alone. *)
let symbolic_lifetimes (g : Graph.t) rdp (fplan : Fusion.plan) ~order ~elem_of =
  let n_steps = List.length order in
  let step_of_group = Hashtbl.create 64 in
  List.iteri (fun i gid -> Hashtbl.replace step_of_group gid i) order;
  let step_of_node nid = Hashtbl.find_opt step_of_group fplan.group_of.(nid) in
  let outs = Graph.outputs g in
  let aliases tid = Option.fold ~none:[] ~some:aliased (Graph.producer g tid) in
  let roots_memo = Hashtbl.create 64 in
  let rec roots tid =
    match Hashtbl.find_opt roots_memo tid, aliases tid with
    | Some r, _ -> r
    | None, [] -> [ tid ]
    | None, srcs ->
      let r = List.sort_uniq compare (List.concat_map roots srcs) in
      Hashtbl.replace roots_memo tid r;
      r
  in
  let last_use tid first =
    List.fold_left
      (fun acc cnid -> match step_of_node cnid with Some s -> max acc s | None -> acc)
      first (Graph.consumers g tid)
  in
  let extended = Hashtbl.create 64 and entries = ref [] and alias = ref [] in
  for tid = Graph.tensor_count g - 1 downto 0 do
    match (Graph.tensor g tid).kind, Graph.producer g tid with
    | Graph.Activation, Some p ->
      let first = Option.value (step_of_node p.nid) ~default:0 in
      if aliases tid <> [] then begin
        let until = last_use tid first in
        let rs = roots tid in
        List.iter
          (fun r ->
            let prev = Option.value (Hashtbl.find_opt extended r) ~default:until in
            Hashtbl.replace extended r (max until prev))
          rs;
        match rs with
        | [ r ] when (Graph.tensor g r).kind = Graph.Activation -> alias := (tid, r) :: !alias
        | _ -> ()
      end
      else
        let shape = Rdp.shape rdp tid in
        entries :=
          {
            se_tid = tid;
            se_shape = shape;
            se_numel = Shape.numel shape;
            se_first = first;
            se_last = (if List.mem tid outs then n_steps - 1 else last_use tid first);
            se_elem = elem_of tid;
            se_preds = [||];
          }
          :: !entries
    | _ -> ()
  done;
  ( List.map
      (fun e ->
        match Hashtbl.find_opt extended e.se_tid with
        | Some until -> { e with se_last = max e.se_last until }
        | None -> e)
      !entries,
    !alias )

(* Slot bytes for an entry whose element size may differ from the plan's
   float dtype ([plan_elem]).  Same-dtype entries keep the exact product;
   dtype-override entries (I64 value tensors, int8 payloads) are padded to
   an 8-byte multiple so every hole boundary stays aligned to the float
   grid the arena buffer is addressed in. *)
let slot_bytes ~plan_elem ~elem numel =
  let raw = elem * numel in
  if elem = plan_elem then raw else (raw + 7) / 8 * 8

(* An entry's slot, its element count evaluated by [count]: its bytes and
   element size, or [None] when its shape stays unresolved
   (execution-determined, left to runtime malloc).  The element size is
   the plan's float dtype's unless the entry carries its own (a non-float
   value tensor, sized truthfully instead of as if it held floats).  A
   degenerate binding can drive a dim to zero or below; such a tensor
   holds nothing and gets an empty slot. *)
let entry_slot ~elem count e =
  Option.map
    (fun numel ->
      let eelem = Option.value e.se_elem ~default:elem in
      slot_bytes ~plan_elem:elem ~elem:eelem (max 0 numel), eelem)
    (Option.bind e.se_numel count)

(* The entries' lifetimes under [env], and the tensors left dynamic. *)
let concretize ~elem ~env entries =
  let static = ref [] and dynamic = ref [] in
  List.iter
    (fun e ->
      match entry_slot ~elem (Env.eval env) e with
      | Some (size, eelem) ->
        static :=
          {
            lt_tid = e.se_tid;
            lt_size = size;
            lt_first = e.se_first;
            lt_last = e.se_last;
            lt_elem = eelem;
          }
          :: !static
      | None -> dynamic := e.se_tid :: !dynamic)
    entries;
  List.rev !static, List.rev !dynamic

let overlap a b = a.lt_first <= b.lt_last && b.lt_first <= a.lt_last

(* Lowest offset at which [lt] fits below/between already-placed conflicting
   allocations. *)
let first_fit placed lt =
  let conflicts =
    List.filter (fun (plt, _off) -> overlap plt lt) placed
    |> List.map (fun (plt, off) -> off, off + plt.lt_size)
    |> List.sort compare
  in
  let rec scan candidate = function
    | [] -> candidate
    | (lo, hi) :: rest ->
      if candidate + lt.lt_size <= lo then candidate else scan (max candidate hi) rest
  in
  scan 0 conflicts

let place_in_order lts =
  let placed =
    List.fold_left (fun placed lt -> (lt, first_fit placed lt) :: placed) [] lts
  in
  List.rev placed

let arena_of placed =
  List.fold_left (fun acc (lt, off) -> max acc (off + lt.lt_size)) 0 placed

(* The first step with the most live bytes, and those bytes. *)
let peak lts =
  let max_step = List.fold_left (fun acc lt -> max acc lt.lt_last) 0 lts in
  let best = ref (0, -1) in
  for s = 0 to max_step do
    let live =
      List.fold_left
        (fun acc lt -> if lt.lt_first <= s && s <= lt.lt_last then acc + lt.lt_size else acc)
        0 lts
    in
    if live > snd !best then best := s, live
  done;
  !best

let order_for strategy lts =
  match strategy with
  | Greedy_first_fit | Optimal_search ->
    (* Allocation order = execution order of the producing step. *)
    List.stable_sort (fun a b -> compare (a.lt_first, a.lt_tid) (b.lt_first, b.lt_tid)) lts
  | Peak_first ->
    let p = fst (peak lts) in
    let dist lt =
      if lt.lt_first <= p && p <= lt.lt_last then 0
      else min (abs (lt.lt_first - p)) (abs (lt.lt_last - p))
    in
    List.stable_sort
      (fun a b -> compare (dist a, -a.lt_size, a.lt_tid) (dist b, -b.lt_size, b.lt_tid))
      lts

let rec permutations = function
  | [] -> [ [] ]
  | l ->
    List.concat_map
      (fun x ->
        let rest = List.filter (fun y -> y.lt_tid <> x.lt_tid) l in
        List.map (fun p -> x :: p) (permutations rest))
      l

(* Best-fit placement: among the holes between conflicting allocations
   (including the gap below the lowest one), pick the hole with minimal
   slack that still fits; ties go to the lower offset.  When no bounded
   hole is adequate the block goes on top of the conflicts — the same
   offset first-fit would choose, so best-fit never grows the arena. *)
let best_fit placed lt =
  let conflicts =
    List.filter (fun (plt, _off) -> overlap plt lt) placed
    |> List.map (fun (plt, off) -> off, off + plt.lt_size)
    |> List.sort compare
  in
  (* Merge into disjoint occupied intervals so holes are well-defined even
     when conflicting blocks themselves overlap in space (they may: their
     lifetimes need not pairwise overlap). *)
  let merged =
    List.fold_left
      (fun acc (lo, hi) ->
        match acc with
        | (mlo, mhi) :: rest when lo <= mhi -> (mlo, max mhi hi) :: rest
        | _ -> (lo, hi) :: acc)
      [] conflicts
    |> List.rev
  in
  let rec scan hole_lo best = function
    | [] -> (
      (* the hole above all conflicts is unbounded: only take it when no
         bounded hole fit *)
      match best with Some (off, _slack) -> off | None -> hole_lo)
    | (lo, hi) :: rest ->
      let gap = lo - hole_lo in
      let best =
        if gap >= lt.lt_size then begin
          let slack = gap - lt.lt_size in
          match best with Some (_, s) when s <= slack -> best | _ -> Some (hole_lo, slack)
        end
        else best
      in
      scan hi best rest
  in
  scan 0 None merged

let place_best_fit lts =
  List.rev
    (List.fold_left (fun placed lt -> (lt, best_fit placed lt) :: placed) [] lts)

(* The peak-first plan is computed statically, so it can afford to evaluate
   several placement schedules — peak-outward, allocation order, largest
   first, and best-fit variants — and keep whichever packs tightest; it
   therefore never loses to the greedy baseline. *)
let place_peak_first lts =
  let size_desc =
    List.stable_sort (fun a b -> compare (-a.lt_size, a.lt_tid) (-b.lt_size, b.lt_tid)) lts
  in
  let candidates =
    [
      place_in_order (order_for Peak_first lts);
      place_in_order (order_for Greedy_first_fit lts);
      place_in_order size_desc;
      place_best_fit (order_for Peak_first lts);
      place_best_fit size_desc;
    ]
  in
  match candidates with
  | first :: rest ->
    List.fold_left (fun best c -> if arena_of c < arena_of best then c else best) first rest
  | [] -> []

let place strategy lts =
  match strategy with
  | Peak_first -> place_peak_first lts
  | Greedy_first_fit -> place_in_order (order_for strategy lts)
  | Optimal_search ->
    if List.length lts > 9 then place_in_order (order_for Greedy_first_fit lts)
    else
      let best = ref None in
      List.iter
        (fun perm ->
          let placed = place_in_order perm in
          let arena = arena_of placed in
          match !best with
          | Some (_, a) when a <= arena -> ()
          | _ -> best := Some (placed, arena))
        (permutations lts);
      (match !best with Some (p, _) -> p | None -> [])

let plan_of_lifetimes strategy lts ~dynamic =
  let placed = place strategy lts in
  let allocs =
    placed
    |> List.map (fun (lt, off) ->
           {
             tid = lt.lt_tid;
             offset = off;
             size = lt.lt_size;
             first_step = lt.lt_first;
             last_step = lt.lt_last;
             elem = lt.lt_elem;
           })
    |> List.sort (fun a b -> compare a.tid b.tid)
    |> Array.of_list
  in
  { allocs; dynamic; arena_bytes = arena_of placed; strategy }

(* Raw [(bytes, first_step, last_step)] lifetimes, ids by position. *)
let of_raw lifetimes =
  List.mapi
    (fun i (size, first, last) ->
      { lt_tid = i; lt_size = size; lt_first = first; lt_last = last; lt_elem = 1 })
    lifetimes

let of_allocs t =
  Array.to_list t.allocs
  |> List.map (fun a ->
         { lt_tid = a.tid; lt_size = a.size; lt_first = a.first_step; lt_last = a.last_step;
           lt_elem = a.elem })

let plan_raw strategy ~lifetimes = plan_of_lifetimes strategy (of_raw lifetimes) ~dynamic:[]

let plan ?(strategy = Peak_first) ?(elem = Tensor.bytes_per_elem Tensor.F32)
    ?(elem_of = fun _ -> None) (g : Graph.t) rdp fplan ~order ~env =
  let entries, _ = symbolic_lifetimes g rdp fplan ~order ~elem_of in
  let lts, dynamic = concretize ~elem ~env entries in
  plan_of_lifetimes strategy lts ~dynamic

(* Place once at the compile binding, then turn the placement into an
   order: entries sorted by (offset there, tid), each remembering every
   earlier entry whose lifetime overlaps its own.  Every overlapping pair
   is ordered, so stacking each entry on top of its predecessors keeps
   live slots apart at any binding, whatever the sizes.  At the compile
   binding the placement itself satisfies every edge, so the stacked
   offsets are no higher than the placed ones there.  Entries with equal
   element counts share one expression, so {!instantiate} evaluates each
   distinct count once. *)
let plan_symbolic ?(strategy = Peak_first) ?(elem = Tensor.bytes_per_elem Tensor.F32)
    ?(elem_of = fun _ -> None) (g : Graph.t) rdp fplan ~order ~env =
  let entries, sym_alias = symbolic_lifetimes g rdp fplan ~order ~elem_of in
  let lts, unresolved = concretize ~elem ~env entries in
  let counts = Hashtbl.create 16 and entry = Hashtbl.create 64 in
  let shared n =
    match Hashtbl.find_opt counts n with
    | Some n -> n
    | None -> Hashtbl.add counts n n; n
  in
  List.iter
    (fun e -> Hashtbl.replace entry e.se_tid { e with se_numel = Option.map shared e.se_numel })
    entries;
  let placed =
    place strategy lts
    |> List.sort (fun (a, oa) (b, ob) -> compare (oa, a.lt_tid) (ob, b.lt_tid))
    |> Array.of_list
  in
  let sym_entries =
    Array.mapi
      (fun i (lt, _) ->
        let preds = List.filter (fun j -> overlap (fst placed.(j)) lt) (List.init i Fun.id) in
        { (Hashtbl.find entry lt.lt_tid) with se_preds = Array.of_list preds })
      placed
  in
  let sym_out_shared = Array.make (Graph.tensor_count g) false in
  let rec mark tid =
    if not sym_out_shared.(tid) then begin
      sym_out_shared.(tid) <- true;
      Option.iter (fun nd -> List.iter mark (aliased nd)) (Graph.producer g tid)
    end
  in
  List.iter mark (Graph.outputs g);
  {
    sym_entries;
    sym_dynamic = List.map (Hashtbl.find entry) unresolved;
    sym_alias;
    sym_out_shared;
    sym_strategy = strategy;
    sym_elem = elem;
  }

(* One pass in placement order: each entry's offset is the top of its
   highest predecessor.  An entry unresolved under [env] keeps an empty
   slot in the order and joins the dynamic list.  Element counts are
   evaluated once per shared expression. *)
let instantiate sym ~env =
  let n = Array.length sym.sym_entries in
  let tops = Array.make n 0 in
  let counts = ref [] in
  let count e =
    match List.assq_opt e !counts with
    | Some v -> v
    | None ->
      let v = Env.eval env e in
      counts := (e, v) :: !counts;
      v
  in
  let allocs = ref [] and arena = ref 0 in
  let dynamic = ref (List.map (fun e -> e.se_tid) sym.sym_dynamic) in
  Array.iteri
    (fun i e ->
      let offset = Array.fold_left (fun acc p -> max acc tops.(p)) 0 e.se_preds in
      match entry_slot ~elem:sym.sym_elem count e with
      | None ->
        tops.(i) <- offset;
        dynamic := e.se_tid :: !dynamic
      | Some (size, elem) ->
        tops.(i) <- offset + size;
        arena := max !arena tops.(i);
        allocs :=
          { tid = e.se_tid; offset; size; first_step = e.se_first; last_step = e.se_last; elem }
          :: !allocs)
    sym.sym_entries;
  { allocs = Array.of_list (List.rev !allocs); dynamic = !dynamic; arena_bytes = !arena;
    strategy = sym.sym_strategy }

let live_peak_bytes t = snd (peak (of_allocs t))

type defect =
  | Out_of_arena of alloc
  | Wrong_size of alloc * int list
  | Overlap of alloc * alloc

let has_slot ~elem a = a.size > 0 && a.elem = elem

(* The one well-formedness rule for instantiated plans.  Only allocations
   an executor would give a slot are vetted (all non-empty ones when no
   [elem] is given); overlap is checked pairwise among the in-bounds ones,
   O(n²), so it guards injected plans and tests, not every request. *)
let vet ?elem ?(predicted = fun _ -> None) t =
  let grid = Option.value elem ~default:1 in
  let slotted =
    Array.to_list t.allocs
    |> List.filter (fun a ->
           match elem with Some elem -> has_slot ~elem a | None -> a.size > 0)
  in
  let in_arena a =
    a.offset >= 0 && a.offset + a.size <= t.arena_bytes
    && a.offset mod grid = 0 && a.size mod grid = 0
  in
  let placed, stray = List.partition in_arena slotted in
  let wrong_size a =
    match predicted a.tid with
    | Some dims when a.size <> a.elem * List.fold_left ( * ) 1 dims ->
      Some (Wrong_size (a, dims))
    | _ -> None
  in
  let rec overlaps acc = function
    | [] -> List.rev acc
    | a :: rest ->
      let clash b =
        a.first_step <= b.last_step && b.first_step <= a.last_step
        && a.offset < b.offset + b.size && b.offset < a.offset + a.size
      in
      let found = List.filter_map (fun b -> if clash b then Some (Overlap (a, b)) else None) rest in
      overlaps (List.rev_append found acc) rest
  in
  List.map (fun a -> Out_of_arena a) stray
  @ List.filter_map wrong_size slotted
  @ overlaps [] placed

let defect_message = function
  | Out_of_arena a ->
    Printf.sprintf "tensor %d: allocation [%d, %d) outside the arena or off its element grid"
      a.tid a.offset (a.offset + a.size)
  | Wrong_size (a, dims) ->
    Printf.sprintf "tensor %d: planned %d bytes, RDP predicts %s" a.tid a.size
      (String.concat "x" (List.map string_of_int dims))
  | Overlap (a, b) ->
    Printf.sprintf "tensors %d and %d overlap in the arena while both live" a.tid b.tid

let validate t =
  match vet t with
  | [] -> Ok ()
  | d :: _ -> Error (defect_message d)

let arena_for strategy ~lifetimes =
  arena_of (place strategy (List.filter (fun lt -> lt.lt_size > 0) (of_raw lifetimes)))

let pack fit ~lifetimes =
  let place = match fit with `First_fit -> first_fit | `Best_fit -> best_fit in
  let placed =
    List.rev (List.fold_left (fun acc lt -> (lt, place acc lt) :: acc) [] (of_raw lifetimes))
  in
  List.map snd placed, arena_of placed

let strategy_name = function
  | Greedy_first_fit -> "greedy"
  | Peak_first -> "peak-first"
  | Optimal_search -> "optimal"

let pp ppf t =
  Format.fprintf ppf "memory plan (%s): %d static allocs, %d dynamic, arena %d bytes@."
    (strategy_name t.strategy)
    (Array.length t.allocs) (List.length t.dynamic) t.arena_bytes

let pp_symbolic ppf sym =
  Format.fprintf ppf "symbolic memory plan (%s): %d placed entries, %d dynamic@."
    (strategy_name sym.sym_strategy)
    (Array.length sym.sym_entries) (List.length sym.sym_dynamic);
  Array.iter
    (fun e ->
      Format.fprintf ppf "  t%d: %s elems, steps [%d, %d], above %d@." e.se_tid
        (match e.se_numel with
        | Some n -> Expr.to_string n
        | None -> "?")
        e.se_first e.se_last (Array.length e.se_preds))
    sym.sym_entries
