type item = {
  binding : int;
  env : Env.t;
  inputs : (Graph.tensor_id * Tensor.t) list;
}

let bindings grid =
  List.fold_right
    (fun (sym, values) envs ->
      List.concat_map (fun v -> List.map (fun env -> Env.bind sym v env) envs) values)
    grid [ Env.empty ]

(* Inputs come from one generator seeded by the run's seed, drawn binding
   by binding in grid order, so the same seed always yields the same pool
   and the program under test never chooses its own inputs. *)
let pool ~seed (spec : Zoo.spec) g envs ~per_binding =
  let rng = Rng.create seed in
  List.concat
    (List.mapi
       (fun b env ->
         List.init per_binding (fun _ ->
             { binding = b; env; inputs = Zoo.make_inputs spec g env rng }))
       envs)
  |> Array.of_list

(* Requests walk the bindings in shuffled rounds, each visiting every
   binding once, and each binding's inputs take turns in a seeded order.
   So a run's binding mix does not depend on its seed or length, and an
   open-loop slice that holds one round holds every binding once. *)
let order ~seed (pool : item array) ~n =
  let rng = Rng.create (seed lxor 0x5eed) in
  let nb = 1 + Array.fold_left (fun m it -> max m it.binding) (-1) pool in
  let inputs =
    Array.init nb (fun b ->
        let xs = List.filter (fun i -> pool.(i).binding = b) (List.init (Array.length pool) Fun.id) in
        let xs = Array.of_list xs in
        Rng.shuffle rng xs;
        xs)
  in
  let turn = Array.make nb 0 and round = Array.init nb Fun.id and out = Array.make n 0 in
  let next = ref 0 in
  while !next < n do
    Rng.shuffle rng round;
    Array.iter
      (fun b ->
        if !next < n then begin
          out.(!next) <- inputs.(b).(turn.(b) mod Array.length inputs.(b));
          turn.(b) <- turn.(b) + 1;
          incr next
        end)
      round
  done;
  out

(* Open-loop arrivals with a Poisson process's exponential gaps, stratified
   so that every slice offers the same load and the same bursts: a slice of
   [rate x slice_s] arrivals takes as its gaps the exponential distribution's
   quantiles at the midpoints of that many equal-probability strata, scaled
   to fill the slice, in a seeded order.  A run's bursts then fall on
   seeded requests, but no run draws more or tighter bursts than another. *)
let arrivals ~seed ~rate ~slice_s ~slices =
  let rng = Rng.create (seed lxor 0xa11) in
  let per_slice = max 1 (int_of_float (Float.round (rate *. slice_s))) in
  let q = Array.init per_slice (fun k -> -.log (1.0 -. ((float_of_int k +. 0.5) /. float_of_int per_slice))) in
  let total = Array.fold_left ( +. ) 0.0 q in
  let gaps = Array.map (fun g -> g *. slice_s /. total) q in
  Array.concat
    (List.init slices (fun j ->
         Rng.shuffle rng gaps;
         let t = ref (slice_s *. float_of_int j) in
         Array.map
           (fun g ->
             let a = !t in
             t := !t +. g;
             a)
           gaps))
