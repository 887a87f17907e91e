(* The bench harness: a suite is a name, a doc line, its gates as data and
   a run function.  Every suite shares the runner below, one output
   comparison and one JSON record shape. *)

module Json = Perfbench.Json
module Stats = Perfbench.Stats

type direction = At_least | At_most

type gate = { gate : string; bound : float; dir : direction }

(* ms; [per_round] holds each round's fastest sample, in round order *)
type timing = { best : float; q1 : float; median : float; q3 : float; per_round : float list }

type row = { label : string; timings : (string * timing) list; fields : (string * float) list }

(* A suite's rows and the measured value of each of its gates. *)
type result = { rows : row list; values : (gate * float) list }

type suite = {
  name : string;
  doc : string;
  rounds : int;
  gates : gate list;
  run : rounds:int -> result;
}

let host_cores = Domain.recommended_domain_count ()

(* --- the runner ------------------------------------------------------ *)

(* Times the sides of a comparison.  After a warm-up call per side, each
   of [rounds] rounds calls every side's [prepare] for fresh state
   (operands, buffers) and times the calls they return [calls] times
   each, interleaved call by call with the lead rotating, so all sides
   meet the same phases of the host's load: timed in windows of several
   calls per side, three copies of one kernel read up to 20% apart on a
   shared 2-vCPU host.  Each sample follows a full collection, so no side
   is billed for another's garbage, and averages enough back-to-back
   repeats to span >= 200 µs.  A side's score is its minimum sample:
   noise only ever adds time. *)
let time ?(calls = 1) ~rounds (sides : (unit -> unit -> unit) list) =
  let span f = let t0 = Sod2.Clock.now_us () in f (); Sod2.Clock.now_us () -. t0 in
  let sides = Array.of_list sides in
  let n = Array.length sides in
  let reps =
    Array.map
      (fun prepare ->
        let f = prepare () in
        (* a cold first call that already spans 200 µs is warm-up enough *)
        let t = span f in
        let t = if t < 200.0 then span f else t in
        max 1 (min 1000 (int_of_float (200.0 /. Float.max 0.2 t))))
      sides
  in
  let samples = Array.make n [] and round_best = Array.make_matrix n rounds infinity in
  for r = 0 to rounds - 1 do
    let fs = Array.map (fun prepare -> prepare ()) sides in
    for c = 0 to calls - 1 do
      for j = 0 to n - 1 do
        let i = ((r * calls) + c + j) mod n in
        Gc.full_major ();
        let us = span (fun () -> for _ = 1 to reps.(i) do fs.(i) () done) in
        let ms = us /. float_of_int reps.(i) /. 1e3 in
        samples.(i) <- ms :: samples.(i);
        round_best.(i).(r) <- Float.min round_best.(i).(r) ms
      done
    done
  done;
  Array.to_list
    (Array.mapi
       (fun i xs ->
         let q1, median, q3 = Stats.quartiles xs in
         { best = List.fold_left Float.min infinity xs; q1; median; q3;
           per_round = Array.to_list round_best.(i) })
       samples)

let row ?(fields = []) label timings = { label; timings; fields }

(* The quartiles of the paired per-round ratios [a / b] as the fields
   [name_q1], [name_median] and [name_q3]: the spread behind a best-of
   ratio, which host noise widens and a regression moves. *)
let paired name (a : timing) (b : timing) =
  let q1, median, q3 = Stats.quartiles (List.map2 ( /. ) a.per_round b.per_round) in
  [ name ^ "_q1", q1; name ^ "_median", median; name ^ "_q3", q3 ]

let pair = function [ a; b ] -> a, b | _ -> invalid_arg "pair"

let geomean = function
  | [] -> 1.0
  | xs -> exp (List.fold_left (fun a x -> a +. log x) 0.0 xs /. float_of_int (List.length xs))

(* --- the output comparison ------------------------------------------- *)

type tolerance = Exact | Within of float

(* How many output tensors disagree with [want]: [Exact] demands bit
   identity, [Within eps] a relative error of at most [eps]. *)
let mismatches tol outs want =
  let agree (ta, va) (tb, vb) =
    ta = tb
    && match tol with Exact -> Tensor.equal va vb | Within eps -> Tensor.approx_equal ~eps va vb
  in
  if List.length outs <> List.length want then max 1 (List.length want)
  else List.length (List.filter not (List.map2 agree outs want))

(* --- the record and the entry point ------------------------------------ *)

let print_row r =
  Printf.printf "  %-34s" r.label;
  List.iter (fun (k, t) -> Printf.printf "  %s %.3f ms" k t.best) r.timings;
  List.iter (fun (k, v) -> Printf.printf "  %s %.4g" k v) r.fields;
  print_newline ()

let row_json r =
  let num x = Json.Num x in
  let timing (k, t) =
    [ k ^ "_ms", num t.best; k ^ "_median_ms", num t.median; k ^ "_q1_ms", num t.q1;
      k ^ "_q3_ms", num t.q3 ]
  in
  Json.Obj
    ((("label", Json.Str r.label) :: List.concat_map timing r.timings)
    @ List.map (fun (k, v) -> k, num v) r.fields)

(* Runs one suite, prints its rows and gates, writes BENCH_<suite>.json
   and says whether every gate held.  A gate the suite did not report
   reads NaN and fails; so does a suite that raises. *)
let run_suite s =
  Printf.printf "\n=== %s: %s ===\n%!" s.name s.doc;
  match s.run ~rounds:s.rounds with
  | exception e ->
    Printf.printf "  raised %s\n" (Printexc.to_string e);
    false
  | r ->
    List.iter print_row r.rows;
    let gate g =
      let v = Option.value ~default:nan (List.assq_opt g r.values) in
      let ok = match g.dir with At_least -> v >= g.bound | At_most -> v <= g.bound in
      Printf.printf "  %-4s %10.4g %s %-5g %s\n" (if ok then "ok" else "FAIL") v
        (match g.dir with At_least -> ">=" | At_most -> "<=") g.bound g.gate;
      ok, Json.Obj
            [ "name", Json.Str g.gate; "value", Json.Num v; "bound", Json.Num g.bound;
              "pass", Json.Bool ok ]
    in
    let gates = List.map gate s.gates in
    let file = Printf.sprintf "BENCH_%s.json" s.name in
    Out_channel.with_open_text file (fun oc ->
        Json.Obj
          [ "suite", Json.Str s.name; "host_cores", Json.Num (float_of_int host_cores);
            "rounds", Json.Num (float_of_int s.rounds); "rows", Json.Arr (List.map row_json r.rows);
            "gates", Json.Arr (List.map snd gates) ]
        |> Json.to_string |> output_string oc;
        output_char oc '\n');
    Printf.printf "  wrote %s\n" file;
    List.for_all fst gates

(* The executable's whole command line: suite names, none meaning all.
   Every requested suite runs even after one fails; the exit code is 1 if
   any failed and 2 for an unknown name. *)
let main suites =
  let names = List.tl (Array.to_list Sys.argv) in
  let find n = List.find_opt (fun s -> s.name = n) suites in
  (match List.filter (fun n -> find n = None) names with
  | [] -> ()
  | unknown ->
    Printf.eprintf "unknown suite(s) %s; the suites are:\n" (String.concat ", " unknown);
    List.iter (fun s -> Printf.eprintf "  %-9s %s\n" s.name s.doc) suites;
    exit 2);
  let chosen = if names = [] then suites else List.filter_map find names in
  let verdicts = List.map (fun s -> s.name, run_suite s) chosen in
  print_newline ();
  List.iter (fun (name, ok) -> Printf.printf "%s %s\n" (if ok then "PASS" else "FAIL") name) verdicts;
  exit (if List.for_all snd verdicts then 0 else 1)
