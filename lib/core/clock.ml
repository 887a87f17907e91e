(* [Unix.gettimeofday] monotonized: wall time can step backwards under
   clock adjustment, which would produce negative durations and deadlines
   that expire early.  Clamping to the last observed instant keeps the
   clock non-decreasing; the ref race across domains is benign (a stale
   [last] only weakens the clamp). *)
let last_us = ref 0.0

let now_us () =
  let t = Unix.gettimeofday () *. 1e6 in
  if t > !last_us then last_us := t;
  !last_us
