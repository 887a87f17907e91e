let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let nonempty fn a =
  if Array.length a = 0 then invalid_arg (Printf.sprintf "Stats.%s: no samples" fn)

let median xs =
  let a = sorted xs in
  nonempty "median" a;
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let mean xs =
  nonempty "mean" (Array.of_list xs);
  List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

(* Python's [statistics.quantiles xs ~n:4] with its default "exclusive"
   method, index clamping included, so spreads computed here agree with
   the ones a Python-side reader of the result lines computes. *)
let quartiles xs =
  let a = sorted xs in
  nonempty "quartiles" a;
  let ld = Array.length a in
  if ld = 1 then a.(0), a.(0), a.(0)
  else
    let m = ld + 1 in
    let q i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.0
    in
    q 1, q 2, q 3

let spread xs =
  let q1, q2, q3 = quartiles xs in
  if q2 = 0.0 then if q3 = q1 then 0.0 else infinity else (q3 -. q1) /. Float.abs q2

let rank ~n p = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n))

let percentile xs p =
  let a = sorted xs in
  nonempty "percentile" a;
  let n = Array.length a in
  a.(max 0 (min (n - 1) (rank ~n p - 1)))

let samples_beyond ~n p = n - max 1 (min n (rank ~n p))

let tail_supported ~n p = samples_beyond ~n p >= 10

type better = Lower | Higher

let better_of_string = function
  | "lower" -> Some Lower
  | "higher" -> Some Higher
  | _ -> None

let improves better ~base x =
  match better with
  | Lower -> x < base
  | Higher -> x > base

type gain = { wins : int; pairs : int; claimed : bool }

let pair_win better ~parent ~change =
  if List.length parent <> List.length change || parent = [] then
    invalid_arg "Stats.pair_win: needs equally many parent and change runs";
  let wins =
    List.fold_left2
      (fun acc p c -> if improves better ~base:p c then acc + 1 else acc)
      0 parent change
  in
  let pairs = List.length parent in
  let q1, _, q3 = quartiles parent in
  let gap =
    match better with
    | Lower -> median parent -. median change
    | Higher -> median change -. median parent
  in
  { wins; pairs; claimed = 10 * wins >= 9 * pairs && gap > q3 -. q1 }

type verdict = Within | Regressed | Unresolved

let verdict_name = function
  | Within -> "within bound"
  | Regressed -> "REGRESSED"
  | Unresolved -> "unresolved"

let worse_by better ~parent ~change =
  let mp = median parent and mc = median change in
  let d = match better with Lower -> mc -. mp | Higher -> mp -. mc in
  if mp = 0.0 then if d > 0.0 then infinity else 0.0 else d /. Float.abs mp

let regression better ~bound ~parent ~change =
  let all_better =
    List.for_all (fun c -> List.for_all (fun p -> improves better ~base:p c) parent) change
  in
  if spread parent > bound || spread change > bound then
    if all_better then Within else Unresolved
  else if worse_by better ~parent ~change > bound then Regressed
  else Within
