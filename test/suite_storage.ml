(* Storage-layer truth: the dtype a tensor claims is the dtype its bytes
   occupy.  Covers the accounting invariant [byte_size = numel ×
   bytes_per_elem] for every kind, f32 stores rounding to single
   precision, saturating float→int casts, ravel bounds checking,
   bit-identity of blocked / parallel / fused / arena execution against
   the naive reference per float kind, and byte conservation — planned
   slot bytes = executed tensor bytes = arena bytes reserved — across
   all three memory-plan strategies under f32 and f64. *)

module RT = Sod2_runtime
module MP = Sod2.Mem_plan

let cpu = Profile.sd888_cpu

let all_dtypes = [ Tensor.F32; Tensor.F64; Tensor.I8; Tensor.I64 ]

(* ------------------------------------------------------------------ *)
(* Byte accounting                                                     *)
(* ------------------------------------------------------------------ *)

let prop_byte_size =
  QCheck2.Test.make ~name:"byte_size = numel × bytes_per_elem for every dtype"
    ~count:100
    QCheck2.Gen.(pair (list_size (int_range 0 4) (int_range 1 5)) (int_range 0 3))
    (fun (dims, ki) ->
      let dt = List.nth all_dtypes ki in
      let t = Tensor.zeros dt dims in
      let n = List.fold_left ( * ) 1 dims in
      Tensor.dtype t = dt
      && Tensor.numel t = n
      && Tensor.byte_size t = n * Tensor.bytes_per_elem dt
      && (not (Tensor.is_float_dtype dt)
         || Tensor.fbuf_len (Tensor.storage_f t) = n))

(* Whatever goes into an F32 tensor comes back out rounded to single
   precision — no more, no less — while F64 stores are exact.  (Both
   sides of each comparison are NaN-tolerant: Float.equal nan nan.) *)
let prop_f32_roundtrip =
  QCheck2.Test.make ~name:"f32 round-trips lose exactly single-precision bits"
    ~count:200 QCheck2.Gen.float
    (fun v ->
      let r32 = Tensor.get_f (Tensor.of_floats Tensor.F32 [] [| v |]) [||] in
      let r64 = Tensor.get_f (Tensor.of_floats Tensor.F64 [] [| v |]) [||] in
      Float.equal r32 (Tensor.round_f32 v)
      && Float.equal r64 v
      && Float.equal (Tensor.round_f32 r32) r32)

(* ------------------------------------------------------------------ *)
(* Saturating float→int casts                                          *)
(* ------------------------------------------------------------------ *)

let test_saturating_cast () =
  let c64 v dt =
    Tensor.get_i (Tensor.cast (Tensor.of_floats Tensor.F64 [] [| v |]) dt) [||]
  in
  Alcotest.(check int) "NaN → 0" 0 (c64 Float.nan Tensor.I64);
  Alcotest.(check int) "+huge clamps to max_int" max_int (c64 1e300 Tensor.I64);
  Alcotest.(check int) "-huge clamps to min_int" min_int (c64 (-1e300) Tensor.I64);
  Alcotest.(check int) "+inf clamps" max_int (c64 Float.infinity Tensor.I64);
  Alcotest.(check int) "-inf clamps" min_int (c64 Float.neg_infinity Tensor.I64);
  Alcotest.(check int) "truncates toward zero (+)" 3 (c64 3.9 Tensor.I64);
  Alcotest.(check int) "truncates toward zero (-)" (-3) (c64 (-3.9) Tensor.I64);
  Alcotest.(check int) "i8 clamps high" 127 (c64 300.0 Tensor.I8);
  Alcotest.(check int) "i8 clamps low" (-128) (c64 (-300.0) Tensor.I8);
  (* the same contract holds from F32 storage *)
  let c32 v dt =
    Tensor.get_i (Tensor.cast (Tensor.of_floats Tensor.F32 [] [| v |]) dt) [||]
  in
  Alcotest.(check int) "f32 NaN → 0" 0 (c32 Float.nan Tensor.I64);
  Alcotest.(check int) "f32 huge clamps" max_int (c32 1e38 Tensor.I64);
  Alcotest.(check int) "f32 in-range truncates" 41 (c32 41.75 Tensor.I64)

(* ------------------------------------------------------------------ *)
(* Ravel bounds checking                                               *)
(* ------------------------------------------------------------------ *)

let test_ravel_bounds () =
  Alcotest.(check int) "in-range index ravels row-major" 7
    (Tensor.ravel [| 3; 4 |] [| 1; 3 |]);
  let expect_shape_error name f =
    match f () with
    | (_ : int) -> Alcotest.failf "%s: expected Shape_mismatch" name
    | exception Sod2_error.Error e ->
      Alcotest.(check bool)
        (name ^ ": error class is Shape_mismatch")
        true
        (e.Sod2_error.cls = Sod2_error.Shape_mismatch)
  in
  expect_shape_error "axis overflow" (fun () -> Tensor.ravel [| 3; 4 |] [| 1; 4 |]);
  expect_shape_error "negative index" (fun () -> Tensor.ravel [| 3; 4 |] [| -1; 0 |]);
  expect_shape_error "rank mismatch" (fun () -> Tensor.ravel [| 3; 4 |] [| 1 |])

(* ------------------------------------------------------------------ *)
(* Per-kind bit-identity across executors                              *)
(* ------------------------------------------------------------------ *)

(* A GEMM anchor with a pointwise epilogue plus a second branch, so the
   plan holds several overlapping lifetimes.  Consts are cast to the
   artifact dtype so the whole run stays in one kind. *)
let mixed_graph dt =
  let rng = Rng.create 97 in
  let cast t = Tensor.cast t dt in
  let b = Graph.Builder.create () in
  let x = Graph.Builder.input b ~name:"x" (Shape.of_ints [ 12; 16 ]) in
  let w = Graph.Builder.const b ~name:"w" (cast (Tensor.rand_uniform rng [ 16; 8 ])) in
  let w2 = Graph.Builder.const b ~name:"w2" (cast (Tensor.rand_uniform rng [ 16; 8 ])) in
  let bias = Graph.Builder.const b ~name:"bias" (cast (Tensor.rand_uniform rng [ 8 ])) in
  let mm = Graph.Builder.node1 b Op.MatMul [ x; w ] in
  let mm2 = Graph.Builder.node1 b Op.MatMul [ x; w2 ] in
  let ad = Graph.Builder.node1 b (Op.Binary Op.Add) [ mm; bias ] in
  let s = Graph.Builder.node1 b (Op.Unary Op.Sigmoid) [ ad ] in
  let m = Graph.Builder.node1 b (Op.Binary Op.Mul) [ s; mm2 ] in
  let r = Graph.Builder.node1 b (Op.Unary Op.Relu) [ m ] in
  Graph.Builder.set_outputs b [ r ];
  x, Graph.Builder.finish b

(* Pointwise-only chain: fused groups must reproduce op-by-op stores
   bit-for-bit in either kind. *)
let pointwise_graph dt =
  let rng = Rng.create 59 in
  let b = Graph.Builder.create () in
  let x = Graph.Builder.input b ~name:"x" (Shape.of_ints [ 9; 32 ]) in
  let row = Graph.Builder.const b ~name:"row" (Tensor.cast (Tensor.rand_uniform rng [ 32 ]) dt) in
  let s = Graph.Builder.node1 b (Op.Unary Op.Sigmoid) [ x ] in
  let a = Graph.Builder.node1 b (Op.Binary Op.Add) [ s; row ] in
  let ge = Graph.Builder.node1 b (Op.Unary Op.Gelu) [ a ] in
  let cl = Graph.Builder.node1 b (Op.Clip (-0.9, 0.9)) [ ge ] in
  Graph.Builder.set_outputs b [ cl ];
  x, Graph.Builder.finish b

let check_bitwise name want got =
  List.iter2
    (fun (tid, w) (tid', g) ->
      Alcotest.(check int) (name ^ ": output id") tid tid';
      Alcotest.(check (list int)) (name ^ ": dims") (Tensor.dims w) (Tensor.dims g);
      Alcotest.(check string)
        (name ^ ": dtype")
        (Tensor.dtype_name (Tensor.dtype w))
        (Tensor.dtype_name (Tensor.dtype g));
      let dw = Tensor.data_f w and dg = Tensor.data_f g in
      Array.iteri
        (fun i v ->
          if not (Float.equal v dg.(i)) then
            Alcotest.failf "%s: t%d element %d: %h <> %h" name tid i v dg.(i))
        dw)
    want got

(* Compile for one float kind. *)
let compile_in dt g =
  Sod2.Pipeline.compile ~opts:{ Sod2.Compile_opts.default with float_dtype = dt } cpu g

(* One arena run with the RDP cross-check on; the trace carries the arena
   figures. *)
let run_arena ?(arena = RT.Arena.create ()) c ~inputs =
  RT.Executor.run_real
    ~config:{ RT.Executor.default_config with guarded = true }
    ~env:Env.empty
    ~memory:(RT.Executor.Arena { arena; env = Env.empty })
    c ~inputs

let input_for seed dt = Tensor.cast (Tensor.rand_uniform (Rng.create seed) [ 12; 16 ]) dt

let test_backends_bit_identical () =
  List.iter
    (fun dt ->
      let kn = Tensor.dtype_name dt in
      let x, g = mixed_graph dt in
      let c = compile_in dt g in
      let inputs = [ x, input_for 11 dt ] in
      let want = RT.Reference.run c.Sod2.Pipeline.graph ~inputs in
      List.iter
        (fun (_, t) ->
          Alcotest.(check string) (kn ^ ": reference output dtype") kn
            (Tensor.dtype_name (Tensor.dtype t)))
        want;
      let _, got = RT.Executor.run_real c ~inputs in
      check_bitwise (Printf.sprintf "naive executor, %s" kn) want got;
      (* blocked kernels op by op, on one domain and on the host's pool *)
      let op_by_op = { c with fused = Array.map (fun _ -> None) c.fused } in
      List.iter
        (fun (threads, bn) ->
          let be = RT.Backend.create ?threads RT.Backend.Blocked in
          Fun.protect
            ~finally:(fun () -> RT.Backend.shutdown be)
            (fun () ->
              let _, got = RT.Executor.run_real ~backend:be op_by_op ~inputs in
              check_bitwise (Printf.sprintf "%s backend, %s" bn kn) want got))
        [ Some 1, "blocked"; None, "parallel" ];
      (* arena execution: planned slots, destination-passing stores *)
      let tr, got = run_arena c ~inputs in
      check_bitwise (Printf.sprintf "arena, %s" kn) want got;
      Alcotest.(check bool) (kn ^ ": tensors lived in the arena") true
        (tr.RT.Executor.arena_resident > 0))
    [ Tensor.F32; Tensor.F64 ]

let test_fused_bit_identical () =
  List.iter
    (fun dt ->
      let kn = Tensor.dtype_name dt in
      let x, g = pointwise_graph dt in
      let c = compile_in dt g in
      let inputs = [ x, Tensor.cast (Tensor.rand_uniform (Rng.create 13) [ 9; 32 ]) dt ] in
      let want = RT.Reference.run c.Sod2.Pipeline.graph ~inputs in
      let be = RT.Backend.for_compiled RT.Backend.Blocked c in
      Fun.protect
        ~finally:(fun () -> RT.Backend.shutdown be)
        (fun () ->
          let _, got = RT.Executor.run_real ~backend:be c ~inputs in
          check_bitwise (Printf.sprintf "fused backend, %s" kn) want got))
    [ Tensor.F32; Tensor.F64 ]

(* ------------------------------------------------------------------ *)
(* Byte conservation across plan strategies and kinds                  *)
(* ------------------------------------------------------------------ *)

let strategies =
  [ MP.Greedy_first_fit, "greedy"; MP.Peak_first, "peak-first"; MP.Optimal_search, "optimal" ]

(* For every placement strategy × float kind: every planned slot's bytes
   equal the bytes the executor actually materializes for that tensor
   (trace events are dtype-derived), every offset and size is a whole
   number of elements, the placements validate, the strategies agree on
   total slot bytes (they may only differ in placement), and the arena
   reserves exactly the planned bytes in the artifact's kind.  A 4-vs-8
   confusion anywhere breaks at least one of these equalities. *)
let test_byte_conservation () =
  List.iter
    (fun dt ->
      let elem = Tensor.bytes_per_elem dt in
      let kn = Tensor.dtype_name dt in
      let x, g = mixed_graph dt in
      let c = compile_in dt g in
      let inputs = [ x, input_for 23 dt ] in
      let trace, _ = RT.Executor.run_real c ~inputs in
      let executed_bytes tid =
        List.find_opt
          (fun e -> e.RT.Executor.te_tid = tid)
          trace.RT.Executor.events
        |> Option.map (fun e -> e.RT.Executor.te_bytes)
      in
      let slot_bytes =
        List.map
          (fun (strategy, sn) ->
            let name = Printf.sprintf "%s/%s" sn kn in
            let plan =
              MP.plan ~strategy ~elem g c.Sod2.Pipeline.rdp
                c.Sod2.Pipeline.fusion_plan
                ~order:c.Sod2.Pipeline.exec.Sod2.Exec_plan.order ~env:Env.empty
            in
            (match MP.validate plan with
            | Ok () -> ()
            | Error m -> Alcotest.failf "%s: invalid plan: %s" name m);
            Alcotest.(check bool) (name ^ ": plan has slots") true
              (Array.length plan.MP.allocs > 0);
            Array.iter
              (fun a ->
                if a.MP.offset mod elem <> 0 then
                  Alcotest.failf "%s: t%d offset %d is not %d-aligned" name
                    a.MP.tid a.MP.offset elem;
                if a.MP.size mod elem <> 0 || a.MP.size = 0 then
                  Alcotest.failf "%s: t%d size %d is not a whole number of %d-byte elements"
                    name a.MP.tid a.MP.size elem;
                if a.MP.offset + a.MP.size > plan.MP.arena_bytes then
                  Alcotest.failf "%s: t%d spills past the arena" name a.MP.tid;
                match executed_bytes a.MP.tid with
                | Some b when b <> a.MP.size ->
                  Alcotest.failf
                    "%s: t%d planned %d bytes but the executor materialized %d"
                    name a.MP.tid a.MP.size b
                | _ -> ())
              plan.MP.allocs;
            Array.fold_left (fun acc a -> acc + a.MP.size) 0 plan.MP.allocs)
          strategies
      in
      (match slot_bytes with
      | b :: rest ->
        List.iter
          (fun b' ->
            Alcotest.(check int) (kn ^ ": strategies agree on total slot bytes") b b')
          rest
      | [] -> assert false);
      (* the arena run reserves exactly the instantiated plan's bytes,
         rounded up to a whole element of the artifact's kind *)
      let arena = RT.Arena.create () in
      let tr, _ = run_arena ~arena c ~inputs in
      let plan = Sod2.Pipeline.instantiated_plan c Env.empty in
      Alcotest.(check int)
        (kn ^ ": trace reports the instantiated plan size")
        plan.MP.arena_bytes tr.RT.Executor.arena_bytes;
      let cap = RT.Arena.capacity_bytes arena in
      let want_cap = max 1 ((plan.MP.arena_bytes + elem - 1) / elem) * elem in
      Alcotest.(check int) (kn ^ ": arena reserves exactly the planned bytes")
        want_cap cap;
      let buf = RT.Arena.ensure arena dt 1 in
      Alcotest.(check string) (kn ^ ": arena buffer is the artifact's kind") kn
        (Tensor.dtype_name (Tensor.fbuf_dtype buf));
      Alcotest.(check int)
        (kn ^ ": capacity is the buffer's length in kind-sized elements")
        cap
        (Tensor.fbuf_len buf * elem))
    [ Tensor.F32; Tensor.F64 ]

let suite =
  [
    QCheck_alcotest.to_alcotest prop_byte_size;
    QCheck_alcotest.to_alcotest prop_f32_roundtrip;
    Alcotest.test_case "cast saturates float→int" `Quick test_saturating_cast;
    Alcotest.test_case "ravel bounds-checks every axis" `Quick test_ravel_bounds;
    Alcotest.test_case "blocked/parallel/arena bit-identical per kind" `Quick
      test_backends_bit_identical;
    Alcotest.test_case "fused pointwise bit-identical per kind" `Quick
      test_fused_bit_identical;
    Alcotest.test_case "byte conservation: plan = trace = arena, every strategy"
      `Quick test_byte_conservation;
  ]
