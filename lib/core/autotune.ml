type config = {
  tile_m : int;
  tile_n : int;
  tile_k : int;
  unroll : int;
  threads : int;
  vectorize : bool;
}

let tile_choices = [ 4; 8; 16; 32; 64; 128 ]
let unroll_choices = [ 1; 2; 4; 8 ]
let thread_choices = [ 1; 2; 4; 8 ]

let default_config =
  { tile_m = 32; tile_n = 32; tile_k = 32; unroll = 1; threads = 4; vectorize = false }

(* Analytical proxy for kernel quality: utilization of the thread pool,
   tile reuse in cache, edge waste when tiles overhang the problem, and a
   vectorization bonus.  Deterministic so experiments are reproducible. *)
let efficiency (p : Profile.t) c ~m ~n ~k =
  let m = max 1 m and n = max 1 n and k = max 1 k in
  let ceil_div a b = (a + b - 1) / b in
  let blocks = ceil_div m c.tile_m * ceil_div n c.tile_n in
  (* Enough blocks to keep every thread busy several times over. *)
  let parallelism =
    let per_thread = float_of_int blocks /. float_of_int c.threads in
    Float.min 1.0 (per_thread /. 4.0) *. Float.min 1.0 (float_of_int c.threads /. 8.0 *. 2.0)
  in
  (* Tile working set must fit in cache for reuse. *)
  let tile_bytes = 4 * ((c.tile_m * c.tile_k) + (c.tile_k * c.tile_n) + (c.tile_m * c.tile_n)) in
  let cache_fit =
    if tile_bytes * c.threads <= p.cache_bytes then 1.0
    else if tile_bytes <= p.cache_bytes then 0.75
    else 0.45
  in
  (* Tiles overhanging the problem edge waste lanes. *)
  let edge_waste =
    let frac total tile =
      let rounded = ceil_div total tile * tile in
      float_of_int total /. float_of_int rounded
    in
    frac m c.tile_m *. frac n c.tile_n
  in
  let unroll_bonus =
    if k >= c.unroll * c.tile_k then 1.0 +. (0.04 *. log (float_of_int c.unroll) /. log 2.0)
    else 0.92
  in
  let vector_bonus = if c.vectorize then (if n mod 8 = 0 then 1.25 else 1.05) else 1.0 in
  let raw = 0.62 *. parallelism *. cache_fit *. edge_waste *. unroll_bonus *. vector_bonus in
  Float.max 0.05 (Float.min 0.95 raw)

let random_config rng =
  {
    tile_m = Rng.pick rng tile_choices;
    tile_n = Rng.pick rng tile_choices;
    tile_k = Rng.pick rng tile_choices;
    unroll = Rng.pick rng unroll_choices;
    threads = Rng.pick rng thread_choices;
    vectorize = Rng.bool rng 0.5;
  }

let mutate rng c =
  match Rng.int rng 6 with
  | 0 -> { c with tile_m = Rng.pick rng tile_choices }
  | 1 -> { c with tile_n = Rng.pick rng tile_choices }
  | 2 -> { c with tile_k = Rng.pick rng tile_choices }
  | 3 -> { c with unroll = Rng.pick rng unroll_choices }
  | 4 -> { c with threads = Rng.pick rng thread_choices }
  | _ -> { c with vectorize = not c.vectorize }

let crossover rng a b =
  {
    tile_m = (if Rng.bool rng 0.5 then a.tile_m else b.tile_m);
    tile_n = (if Rng.bool rng 0.5 then a.tile_n else b.tile_n);
    tile_k = (if Rng.bool rng 0.5 then a.tile_k else b.tile_k);
    unroll = (if Rng.bool rng 0.5 then a.unroll else b.unroll);
    threads = (if Rng.bool rng 0.5 then a.threads else b.threads);
    vectorize = (if Rng.bool rng 0.5 then a.vectorize else b.vectorize);
  }

(* GA over the analytical score (higher is better).  [default_config]
   seeds the incumbent, so the search can never return a config that
   scores worse than the untuned default. *)
let tune ?(generations = 12) ?(population = 16) p rng ~m ~n ~k =
  let score c = efficiency p c ~m ~n ~k in
  let pop = ref (Array.init population (fun _ -> random_config rng)) in
  let best = ref (default_config, score default_config) in
  for _gen = 1 to generations do
    let scored = Array.map (fun c -> c, score c) !pop in
    Array.sort (fun (_, a) (_, b) -> compare b a) scored;
    if snd scored.(0) > snd !best then best := scored.(0);
    let elite = Array.sub scored 0 (max 2 (population / 4)) in
    let next =
      Array.init population (fun i ->
          if i < Array.length elite then fst elite.(i)
          else
            let a = fst elite.(Rng.int rng (Array.length elite)) in
            let b = fst elite.(Rng.int rng (Array.length elite)) in
            let child = crossover rng a b in
            if Rng.bool rng 0.4 then mutate rng child else child)
    in
    pop := next
  done;
  !best

let random_search ?(trials = 192) p rng ~m ~n ~k =
  let best = ref (default_config, efficiency p default_config ~m ~n ~k) in
  for _ = 1 to trials do
    let c = random_config rng in
    let s = efficiency p c ~m ~n ~k in
    if s > snd !best then best := (c, s)
  done;
  !best

let pp_config ppf c =
  Format.fprintf ppf "tile=%dx%dx%d unroll=%d threads=%d vec=%b" c.tile_m c.tile_n
    c.tile_k c.unroll c.threads c.vectorize
