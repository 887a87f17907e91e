open Perfbench

let close = Alcotest.float 1e-9
let ints n = List.init n (fun i -> float_of_int (i + 1))
let triple = Alcotest.(triple (float 1e-9) (float 1e-9) (float 1e-9))

(* Expected values are what Python's statistics.quantiles(xs, n=4) prints. *)
let quartiles () =
  Alcotest.check triple "1..10" (2.75, 5.5, 8.25) (Stats.quartiles (ints 10));
  Alcotest.check triple "1..4" (1.25, 2.5, 3.75) (Stats.quartiles (ints 4));
  Alcotest.check triple "unsorted odd" (1.0, 2.0, 3.0) (Stats.quartiles [ 3.0; 1.0; 2.0 ]);
  Alcotest.check triple "two points extrapolate" (-0.5, 4.0, 8.5) (Stats.quartiles [ 7.0; 1.0 ]);
  Alcotest.check close "median even" 2.5 (Stats.median (ints 4));
  Alcotest.check close "spread" ((8.25 -. 2.75) /. 5.5) (Stats.spread (ints 10))

let tail_rule () =
  Alcotest.check close "p50 of 1..10" 5.0 (Stats.percentile (ints 10) 50.0);
  Alcotest.check close "p90 of 1..10" 9.0 (Stats.percentile (ints 10) 90.0);
  Alcotest.check close "p100 is the max" 10.0 (Stats.percentile (ints 10) 100.0);
  Alcotest.(check int) "beyond p90 of 100" 10 (Stats.samples_beyond ~n:100 90.0);
  Alcotest.(check bool) "p90 needs 100 samples" true (Stats.tail_supported ~n:100 90.0);
  Alcotest.(check bool) "p90 of 99 leaves 9 beyond" false (Stats.tail_supported ~n:99 90.0);
  Alcotest.(check bool) "p75 of 40" true (Stats.tail_supported ~n:40 75.0);
  Alcotest.(check bool) "p75 of 39" false (Stats.tail_supported ~n:39 75.0);
  Alcotest.(check bool) "ten samples support nothing" false (Stats.tail_supported ~n:10 0.0)

let pair_win () =
  let parent = List.init 10 (fun i -> 100.0 +. float_of_int i) in
  let shift d = List.map (fun x -> x -. d) parent in
  let g = Stats.pair_win Stats.Lower ~parent ~change:(shift 20.0) in
  Alcotest.(check (pair int bool)) "all pairs won, gap beyond spread" (10, true) (g.Stats.wins, g.Stats.claimed);
  let nine = List.mapi (fun i x -> if i = 0 then x +. 50.0 else x) (shift 20.0) in
  let g = Stats.pair_win Stats.Lower ~parent ~change:nine in
  Alcotest.(check (pair int bool)) "nine of ten is enough" (9, true) (g.Stats.wins, g.Stats.claimed);
  let ties = List.mapi (fun i x -> if i < 2 then List.nth parent i else x) (shift 20.0) in
  let g = Stats.pair_win Stats.Lower ~parent ~change:ties in
  Alcotest.(check (pair int bool)) "ties count for neither side" (8, false) (g.Stats.wins, g.Stats.claimed);
  let g = Stats.pair_win Stats.Lower ~parent ~change:(shift 1.0) in
  Alcotest.(check (pair int bool)) "gap inside the parent's spread" (10, false) (g.Stats.wins, g.Stats.claimed);
  let g = Stats.pair_win Stats.Higher ~parent ~change:(shift 20.0) in
  Alcotest.(check bool) "direction matters" false g.Stats.claimed

let regression () =
  let around m = List.init 10 (fun i -> m +. (0.001 *. m *. float_of_int (i - 5))) in
  let parent = around 100.0 in
  let v change better = Stats.regression better ~bound:0.1 ~parent ~change in
  let verdict = Alcotest.testable (Fmt.of_to_string Stats.verdict_name) ( = ) in
  Alcotest.check verdict "15% slower" Stats.Regressed (v (around 115.0) Stats.Lower);
  Alcotest.check verdict "5% slower" Stats.Within (v (around 105.0) Stats.Lower);
  Alcotest.check verdict "15% lower, higher is better" Stats.Regressed (v (around 85.0) Stats.Higher);
  let wide = List.init 10 (fun i -> 60.0 +. (10.0 *. float_of_int i)) in
  Alcotest.check verdict "spread wider than the bound" Stats.Unresolved (v wide Stats.Lower);
  Alcotest.check verdict "wide but every run better" Stats.Within
    (Stats.regression Stats.Lower ~bound:0.1 ~parent:wide ~change:(around 10.0));
  Alcotest.check close "worse_by" 0.15 (Stats.worse_by Stats.Lower ~parent ~change:(around 115.0))

let generation () =
  let spec = Option.get (Zoo.by_name "segment-anything") in
  let g = spec.Zoo.build () in
  let envs = Gen.bindings [ "H", [ 64; 96 ]; "W", [ 64; 96 ] ] in
  Alcotest.(check int) "grid product" 4 (List.length envs);
  let pool seed = Gen.pool ~seed spec g envs ~per_binding:2 in
  let same a b =
    Array.length a = Array.length b
    && Array.for_all2
         (fun (x : Gen.item) (y : Gen.item) ->
           x.Gen.binding = y.Gen.binding
           && List.for_all2 (fun (i, t) (j, u) -> i = j && Tensor.equal t u) x.Gen.inputs y.Gen.inputs)
         a b
  in
  Alcotest.(check bool) "same seed, same pool" true (same (pool 7) (pool 7));
  Alcotest.(check bool) "another seed, other inputs" false (same (pool 7) (pool 8));
  Alcotest.(check (array int)) "same seed, same order"
    (Gen.order ~seed:3 (pool 7) ~n:50) (Gen.order ~seed:3 (pool 7) ~n:50);
  let a = Gen.arrivals ~seed:3 ~rate:5.0 ~slice_s:2.0 ~slices:10 in
  Alcotest.(check (array (float 0.0))) "same seed, same schedule" a
    (Gen.arrivals ~seed:3 ~rate:5.0 ~slice_s:2.0 ~slices:10);
  Alcotest.(check bool) "ascending within the window" true
    (Array.for_all (fun t -> t >= 0.0 && t < 20.0) a
    && Array.for_all Fun.id (Array.init (Array.length a - 1) (fun i -> a.(i) <= a.(i + 1))));
  Alcotest.(check (list int)) "rate x slice arrivals in every slice" (List.init 10 (fun _ -> 10))
    (List.init 10 (fun j ->
         Array.fold_left
           (fun n t -> if t >= 2.0 *. float_of_int j && t < 2.0 *. float_of_int (j + 1) then n + 1 else n)
           0 a));
  let gaps j =
    let g = Array.init 10 (fun i -> a.((10 * j) + i + 1) -. a.((10 * j) + i)) in
    Array.sort compare g;
    g
  in
  Alcotest.(check bool) "every slice offers the same gaps" true
    (Array.for_all2 (fun x y -> Float.abs (x -. y) < 1e-9) (gaps 0) (gaps 4));
  let p = pool 7 in
  let o = Gen.order ~seed:3 p ~n:50 in
  let sorted a = Array.sort compare a; a in
  Alcotest.(check (array int)) "every round visits each binding once" [| 0; 1; 2; 3 |]
    (sorted (Array.map (fun i -> p.(i).Gen.binding) (Array.sub o 4 4)));
  Alcotest.(check (array int)) "a binding's inputs take turns" (Array.init 8 Fun.id)
    (sorted (Array.sub o 0 8))

let json () =
  let v =
    Json.Obj
      [ "correct", Json.Bool true; "n", Json.Num 12.0; "x", Json.Num 0.125;
        "s", Json.Str "a\"b\\c\n"; "l", Json.Arr [ Json.Null; Json.Num (-3.5e-7) ] ]
  in
  Alcotest.(check bool) "round trip" true (Json.parse (Json.to_string v) = v);
  Alcotest.(check bool) "malformed input is refused" true
    (match Json.parse "{\"a\": }" with _ -> false | exception Json.Parse_error _ -> true)

let () =
  Alcotest.run "perfbench"
    [
      ( "stats",
        [
          Alcotest.test_case "quartiles match Python" `Quick quartiles;
          Alcotest.test_case "tail-percentile rule" `Quick tail_rule;
          Alcotest.test_case "pair-win rule" `Quick pair_win;
          Alcotest.test_case "regression-bound check" `Quick regression;
        ] );
      "gen", [ Alcotest.test_case "deterministic for a seed" `Quick generation ];
      "json", [ Alcotest.test_case "round trip" `Quick json ];
    ]
