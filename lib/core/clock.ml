(* [Unix.gettimeofday] monotonized: wall time can step backwards under
   clock adjustment, which would produce negative samples that min-of-
   rounds then believes and deadlines that expire early.  Clamping to the
   last observed instant keeps the clock non-decreasing; the ref race
   across domains is benign (a stale [last] only weakens the clamp). *)
let last_us = ref 0.0

let now_us () =
  let t = Unix.gettimeofday () *. 1e6 in
  if t > !last_us then last_us := t;
  !last_us

(* Min-of-rounds with warmup: one untimed run pages the buffers in, one
   timed run calibrates a repeat count so each round spans >= ~200 µs
   (sub-µs kernels would otherwise measure the clock, not the kernel),
   then the minimum over [rounds] batches is the sample — the classic
   noise-robust estimator for deterministic kernels. *)
let time_us ~rounds f =
  f ();
  let t0 = now_us () in
  f ();
  let once = now_us () -. t0 in
  let reps =
    if once < 200.0 then min 1000 (max 1 (int_of_float (200.0 /. Float.max 0.2 once)))
    else 1
  in
  let best = ref Float.infinity in
  for _ = 1 to max 1 rounds do
    let t0 = now_us () in
    for _ = 1 to reps do
      f ()
    done;
    let per_run = (now_us () -. t0) /. float_of_int reps in
    if per_run < !best then best := per_run
  done;
  Float.max 0.001 !best
