(* Int8 quantization: fixed-point requantization primitives, bit-exact
   equivalence of the fused packed kernels against the independent scalar
   reference in {!Reference}, scheme round-trips, and the saturating cast
   boundaries.

   The load-bearing property: [Blocked.gemm_i8]'s SWAR micro-kernel +
   row/column-sum zero-point correction + fused requantize epilogue must
   agree bit-for-bit with [Reference.gemm_i8_acc] + [Reference.requantize]
   — two independent transcriptions of the same integer math — across
   random shapes, scales and zero points. *)

module RT = Sod2_runtime

let i8_gen = QCheck2.Gen.int_range (-128) 127

let i8_tensor_gen dims =
  let n = max 1 (List.fold_left ( * ) 1 dims) in
  QCheck2.Gen.map
    (fun l -> Tensor.of_ints Tensor.I8 dims (Array.of_list l))
    (QCheck2.Gen.list_size (QCheck2.Gen.return n) i8_gen)

(* A positive multiplier spanning both shift directions of
   quantize_multiplier (requant multipliers below AND above 1). *)
let multiplier_gen = QCheck2.Gen.(map (fun x -> Float.exp x) (float_range (-6.0) 3.0))

(* ------------------------------------------------------------------ *)
(* Fixed-point primitives                                              *)

let test_srdhm_corners () =
  let i32min = -0x80000000 and i32max = 0x7FFFFFFF in
  Alcotest.(check int) "int32_min * int32_min saturates" i32max (Quant.srdhm i32min i32min);
  Alcotest.(check int) "zero" 0 (Quant.srdhm 0 i32max);
  Alcotest.(check int) "identity-ish: a * 2^30 halves" (1 lsl 20)
    (Quant.srdhm (1 lsl 21) (1 lsl 30));
  (* 3 * 2^29 doubled-high-mul: 2·(3·2^29·x)/2^32 *)
  Alcotest.(check int) "rounding, positive" 3 (Quant.srdhm (1 lsl 31 / 2 * 3) (1 lsl 1));
  Alcotest.(check int) "negative operand" (-(1 lsl 20))
    (Quant.srdhm (-(1 lsl 21)) (1 lsl 30))

let test_rdbpot () =
  Alcotest.(check int) "exact" 5 (Quant.rounding_divide_by_pot 20 2);
  Alcotest.(check int) "round up at half" 3 (Quant.rounding_divide_by_pot 10 2);
  Alcotest.(check int) "round down below half" 2 (Quant.rounding_divide_by_pot 9 2);
  Alcotest.(check int) "negative tie rounds away from zero" (-3)
    (Quant.rounding_divide_by_pot (-10) 2);
  Alcotest.(check int) "negative round toward zero below tie" (-2)
    (Quant.rounding_divide_by_pot (-9) 2);
  Alcotest.(check int) "negative round" (-3) (Quant.rounding_divide_by_pot (-11) 2);
  Alcotest.(check int) "zero exponent" 7 (Quant.rounding_divide_by_pot 7 0)

let prop_quantize_multiplier_reconstructs =
  QCheck2.Test.make ~name:"quantize_multiplier reconstructs the real multiplier"
    ~count:500 multiplier_gen (fun m ->
      let qm, shift = Quant.quantize_multiplier m in
      qm >= 1 lsl 30
      && qm < 1 lsl 31
      &&
      let recon = float_of_int qm *. Float.ldexp 1.0 (shift - 31) in
      Float.abs (recon -. m) <= m *. 1e-9 +. Float.ldexp 1.0 (shift - 31))

let prop_requantize_matches_reference =
  (* The two independent transcriptions of the gemmlowp spec must agree
     on every (multiplier, zero point, accumulator). *)
  QCheck2.Test.make ~name:"Quant.requantize_one == Reference.requantize" ~count:2000
    QCheck2.Gen.(
      tup3 multiplier_gen (int_range (-128) 127) (int_range (-(1 lsl 24)) (1 lsl 24)))
    (fun (m, zp, acc) ->
      let rq = Quant.requant_of_multiplier ~multiplier:m ~zp in
      Quant.requantize_one rq acc
      = RT.Reference.requantize ~qm:rq.Quant.qm ~shift:rq.Quant.shift ~zp acc)

(* ------------------------------------------------------------------ *)
(* Fused int8 GEMM vs scalar reference                                 *)

let requant_gemm_case ~m ~n ~k ~za ~zb ~mult ~zp_out a b =
  (* fused: packed kernel + requantize epilogue in the write-back *)
  let rq = Quant.requant_of_multiplier ~multiplier:mult ~zp:zp_out in
  let c = Bigarray.Array1.create Bigarray.int8_signed Bigarray.c_layout (m * n) in
  Blocked.gemm_i8 ~za ~zb
    ~epilogue:(fun _ acc -> Quant.requantize_one rq acc)
    ~m ~n ~k ~a:(Tensor.storage_i8 a) ~ao:0 ~b:(Tensor.storage_i8 b) ~bo:0 ~c ~co:0 ();
  (* reference: direct loops + independent scalar requantizer *)
  let accs = RT.Reference.gemm_i8_acc ~za ~zb ~m ~n ~k a b in
  let ok = ref true in
  for i = 0 to (m * n) - 1 do
    let expect =
      RT.Reference.requantize ~qm:rq.Quant.qm ~shift:rq.Quant.shift ~zp:zp_out accs.(i)
    in
    if Bigarray.Array1.get c i <> expect then ok := false
  done;
  !ok

let prop_gemm_i8_bit_exact =
  QCheck2.Test.make
    ~name:"fused int8 gemm+requantize bit-exact vs scalar reference" ~count:120
    QCheck2.Gen.(
      tup6 (int_range 1 40) (int_range 1 40) (int_range 1 60)
        (tup2 i8_gen i8_gen) multiplier_gen (int_range (-128) 127))
    (fun (m, n, k, (za, zb), mult, zp_out) ->
      let seed = (m * 7919) + (n * 104729) + k in
      let rng = QCheck2.Gen.generate1 ~rand:(Random.State.make [| seed |]) in
      let a = rng (i8_tensor_gen [ m; k ]) and b = rng (i8_tensor_gen [ k; n ]) in
      requant_gemm_case ~m ~n ~k ~za ~zb ~mult ~zp_out a b)

let prop_gemm_i8_matches_naive =
  (* Third derivation: the Tiny-class scalar kernel in Linalg subtracts
     zero points inline instead of using the sum correction. *)
  QCheck2.Test.make ~name:"packed int8 gemm matches inline-zp naive kernel" ~count:80
    QCheck2.Gen.(tup4 (int_range 1 33) (int_range 1 33) (int_range 1 48) (tup2 i8_gen i8_gen))
    (fun (m, n, k, (za, zb)) ->
      let rng = QCheck2.Gen.generate1 ~rand:(Random.State.make [| m + (n * 977) + k |]) in
      let a = rng (i8_tensor_gen [ m; k ]) and b = rng (i8_tensor_gen [ k; n ]) in
      let rq = Quant.requant_of_multiplier ~multiplier:0.05 ~zp:3 in
      let ep _ acc = Quant.requantize_one rq acc in
      let c1 = Bigarray.Array1.create Bigarray.int8_signed Bigarray.c_layout (m * n) in
      let c2 = Bigarray.Array1.create Bigarray.int8_signed Bigarray.c_layout (m * n) in
      Blocked.gemm_i8 ~za ~zb ~epilogue:ep ~m ~n ~k ~a:(Tensor.storage_i8 a) ~ao:0
        ~b:(Tensor.storage_i8 b) ~bo:0 ~c:c1 ~co:0 ();
      Linalg.gemm_i8_naive ~za ~zb ~epilogue:ep ~m ~n ~k ~a:(Tensor.storage_i8 a)
        ~ao:0 ~b:(Tensor.storage_i8 b) ~bo:0 ~c:c2 ~co:0 ();
      let ok = ref true in
      for i = 0 to (m * n) - 1 do
        if Bigarray.Array1.get c1 i <> Bigarray.Array1.get c2 i then ok := false
      done;
      !ok)

let prop_gemm_i8_per_channel =
  (* Per-channel requantization: one multiplier/zero-point per output row
     (the conv output-channel layout), applied through the epilogue's
     destination-relative index. *)
  QCheck2.Test.make ~name:"per-channel requant epilogue bit-exact" ~count:80
    QCheck2.Gen.(tup4 (int_range 1 24) (int_range 1 24) (int_range 1 48) (tup2 i8_gen i8_gen))
    (fun (m, n, k, (za, zb)) ->
      let st = Random.State.make [| (m * 31) + n + (k * 1009) |] in
      let rng = QCheck2.Gen.generate1 ~rand:st in
      let a = rng (i8_tensor_gen [ m; k ]) and b = rng (i8_tensor_gen [ k; n ]) in
      let rqs =
        Array.init m (fun _ ->
            Quant.requant_of_multiplier
              ~multiplier:(Float.exp (Random.State.float st 6.0 -. 4.0))
              ~zp:(Random.State.int st 255 - 128))
      in
      let c = Bigarray.Array1.create Bigarray.int8_signed Bigarray.c_layout (m * n) in
      Blocked.gemm_i8 ~za ~zb
        ~epilogue:(fun ei acc -> Quant.requantize_one rqs.(ei / n) acc)
        ~m ~n ~k ~a:(Tensor.storage_i8 a) ~ao:0 ~b:(Tensor.storage_i8 b) ~bo:0 ~c
        ~co:0 ();
      let accs = RT.Reference.gemm_i8_acc ~za ~zb ~m ~n ~k a b in
      let ok = ref true in
      for i = 0 to (m * n) - 1 do
        let rq = rqs.(i / n) in
        let expect =
          RT.Reference.requantize ~qm:rq.Quant.qm ~shift:rq.Quant.shift
            ~zp:rq.Quant.zp accs.(i)
        in
        if Bigarray.Array1.get c i <> expect then ok := false
      done;
      !ok)

let test_saturation_rails () =
  (* A huge multiplier drives every nonzero accumulator into a rail; both
     rails must actually be hit (and nothing may escape them). *)
  let m = 4 and n = 6 and k = 8 in
  let a =
    (* row parity decides the accumulator's sign, so both rails appear *)
    Tensor.of_ints Tensor.I8 [ m; k ]
      (Array.init (m * k) (fun i -> if i / k mod 2 = 0 then 127 else -128))
  in
  let b = Tensor.of_ints Tensor.I8 [ k; n ] (Array.make (k * n) 127) in
  let rq = Quant.requant_of_multiplier ~multiplier:1000.0 ~zp:0 in
  let c = Bigarray.Array1.create Bigarray.int8_signed Bigarray.c_layout (m * n) in
  Blocked.gemm_i8 ~za:0 ~zb:0
    ~epilogue:(fun _ acc -> Quant.requantize_one rq acc)
    ~m ~n ~k ~a:(Tensor.storage_i8 a) ~ao:0 ~b:(Tensor.storage_i8 b) ~bo:0 ~c ~co:0 ();
  let hi = ref false and lo = ref false in
  for i = 0 to (m * n) - 1 do
    let v = Bigarray.Array1.get c i in
    if v = 127 then hi := true;
    if v = -128 then lo := true;
    if v <> 127 && v <> -128 then
      Alcotest.failf "element %d escaped the rails: %d" i v
  done;
  Alcotest.(check bool) "positive rail hit" true !hi;
  Alcotest.(check bool) "negative rail hit" true !lo

(* ------------------------------------------------------------------ *)
(* Quantized conv vs scalar reference                                  *)

let conv_i8_case ~stride ~pad ~dilation ~groups ~zx ~zw xdims wdims seed =
  let rng = QCheck2.Gen.generate1 ~rand:(Random.State.make [| seed |]) in
  let x = rng (i8_tensor_gen xdims) and w = rng (i8_tensor_gen wdims) in
  let accs, odims =
    RT.Reference.conv2d_i8_acc ~zx ~zw ~stride ~pad ~dilation ~groups x w
  in
  let out_n = List.fold_left ( * ) 1 odims in
  let rq = Quant.requant_of_multiplier ~multiplier:0.02 ~zp:(-5) in
  let c = Bigarray.Array1.create Bigarray.int8_signed Bigarray.c_layout out_n in
  let odims' =
    Blocked.conv2d_i8_into ~zx ~zw
      ~epilogue:(fun _ acc -> Quant.requantize_one rq acc)
      ~stride ~pad ~dilation ~groups ~x:(Tensor.storage_i8 x) ~xoff:0
      ~xdims:(Tensor.dims_arr x) ~w:(Tensor.storage_i8 w) ~woff:0
      ~wdims:(Tensor.dims_arr w) ~c ~co:0 ()
  in
  Alcotest.(check (list int)) "output dims" odims odims';
  for i = 0 to out_n - 1 do
    let expect =
      RT.Reference.requantize ~qm:rq.Quant.qm ~shift:rq.Quant.shift ~zp:rq.Quant.zp
        accs.(i)
    in
    if Bigarray.Array1.get c i <> expect then
      Alcotest.failf "conv element %d: fused %d vs reference %d" i
        (Bigarray.Array1.get c i) expect
  done

let test_conv_i8_basic () =
  conv_i8_case ~stride:(1, 1) ~pad:(1, 1, 1, 1) ~dilation:(1, 1) ~groups:1 ~zx:7
    ~zw:0 [ 2; 3; 9; 9 ] [ 4; 3; 3; 3 ] 42

let test_conv_i8_strided_grouped () =
  conv_i8_case ~stride:(2, 2) ~pad:(0, 1, 0, 1) ~dilation:(1, 1) ~groups:2 ~zx:(-3)
    ~zw:2 [ 1; 4; 11; 13 ] [ 6; 2; 3; 2 ] 7

let test_conv_i8_dilated () =
  conv_i8_case ~stride:(1, 1) ~pad:(2, 2, 2, 2) ~dilation:(2, 2) ~groups:1 ~zx:11
    ~zw:(-1) [ 1; 2; 12; 12 ] [ 3; 2; 3; 3 ] 99

let test_gemm_i8_dequant () =
  (* The float write-back variant: the store dequantizes with a plain
     float scale (and the bias [-0.0], which adds nothing); exactness
     holds because each acc is an integer and the reference applies the
     identical float op. *)
  let m = 9 and n = 14 and k = 21 in
  let rng = QCheck2.Gen.generate1 ~rand:(Random.State.make [| 5 |]) in
  let a = rng (i8_tensor_gen [ m; k ]) and b = rng (i8_tensor_gen [ k; n ]) in
  let za = 4 and zb = -9 in
  let scale = 0.0125 in
  let c = Tensor.fbuf_create Tensor.F32 (m * n) in
  Blocked.gemm_i8_dequant ~za ~zb
    ~scale:[| scale |] ~bias:[| -0.0 |] ~m ~n ~k ~a:(Tensor.storage_i8 a) ~ao:0 ~b:(Tensor.storage_i8 b) ~bo:0 ~c ~co:0 ();
  let accs = RT.Reference.gemm_i8_acc ~za ~zb ~m ~n ~k a b in
  for i = 0 to (m * n) - 1 do
    let expect = Tensor.round_f32 (float_of_int accs.(i) *. scale) in
    if Tensor.fbuf_get c i <> expect then
      Alcotest.failf "dequant element %d: %h vs %h" i (Tensor.fbuf_get c i) expect
  done

(* ------------------------------------------------------------------ *)
(* Schemes and casts                                                   *)

let test_scheme_round_trip () =
  let rng = Rng.create 11 in
  let t = Tensor.rand_uniform rng [ 5; 7 ] in
  let s = Quant.choose_per_tensor t in
  let qt = Quant.quantize t s in
  Alcotest.(check bool) "payload is i8" true (Tensor.dtype qt.Quant.q = Tensor.I8);
  let back = Quant.dequantize qt in
  let scale = Quant.scale_of s in
  Array.iteri
    (fun i v ->
      let r = (Tensor.data_f back).(i) in
      if Float.abs (v -. r) > (scale /. 2.0) +. 1e-6 then
        Alcotest.failf "round-trip error at %d: %g vs %g (scale %g)" i v r scale)
    (Tensor.data_f t)

let test_scheme_per_channel () =
  (* Per-channel on a tensor whose channels differ by orders of magnitude:
     per-tensor would crush the small channel to zero, per-channel must
     keep its round-trip error at its own scale. *)
  let t =
    Tensor.init_f [ 2; 4 ] (fun ix -> if ix.(0) = 0 then 100.0 else 0.01 *. float_of_int (1 + ix.(1)))
  in
  let s = Quant.choose_per_channel ~axis:0 t in
  let scales = Quant.channel_scales s in
  Alcotest.(check int) "two channels" 2 (Array.length scales);
  let back = Quant.dequantize (Quant.quantize t s) in
  Array.iteri
    (fun i v ->
      let r = (Tensor.data_f back).(i) in
      let sc = scales.(i / 4) in
      if Float.abs (v -. r) > (sc /. 2.0) +. 1e-9 then
        Alcotest.failf "per-channel round-trip at %d: %g vs %g" i v r)
    (Tensor.data_f t)

let test_cast_boundaries () =
  (* The saturating cast satellite: i8 → float → i8 round-trips exactly
     at the rails, NaN lands on 0, out-of-range floats clamp, i8 → i64
     widens losslessly and i64 → i8 saturates. *)
  let i8 = Tensor.of_ints Tensor.I8 [ 4 ] [| -128; -1; 0; 127 |] in
  let there = Tensor.cast i8 Tensor.F32 in
  Alcotest.(check bool) "i8→f32→i8 round-trip" true
    (Tensor.equal i8 (Tensor.cast there Tensor.I8));
  let wide = Tensor.cast i8 Tensor.I64 in
  Alcotest.(check bool) "i8→i64 widens" true
    (Tensor.to_int_list wide = [ -128; -1; 0; 127 ]);
  Alcotest.(check bool) "i8→i64→i8 round-trip" true
    (Tensor.equal i8 (Tensor.cast wide Tensor.I8));
  let f = Tensor.create_f [ 5 ] [| Float.nan; 200.0; -300.0; 126.6; -128.9 |] in
  Alcotest.(check bool) "f32→i8 saturates (NaN→0, clamps, truncates)" true
    (Tensor.to_int_list (Tensor.cast (Tensor.cast f Tensor.I8) Tensor.I64)
    = [ 0; 127; -128; 126; -128 ]);
  let big = Tensor.create_i [ 3 ] [| 1000; -1000; 12 |] in
  Alcotest.(check bool) "i64→i8 saturates" true
    (Tensor.to_int_list (Tensor.cast big Tensor.I8) = [ 127; -128; 12 ])

(* ------------------------------------------------------------------ *)
(* End-to-end: quantized execution through the compiled artifact        *)

let cpu = Profile.sd888_cpu

let counter_count kind =
  Option.value ~default:0 (List.assoc_opt kind (Profile.Counters.by_kind ()))

(* Dynamic-range int8 is lossy by design, so the end-to-end checks bound
   the deviation from the float artifact rather than demanding equality:
   per element, within a few percent of the output's dynamic range. *)
let check_close ~what ~tol expect got =
  let de = Tensor.data_f expect and dg = Tensor.data_f got in
  Alcotest.(check int) (what ^ ": same numel") (Array.length de) (Array.length dg);
  let maxab = Array.fold_left (fun m v -> Float.max m (Float.abs v)) 1e-6 de in
  Array.iteri
    (fun i v ->
      if Float.abs (v -. dg.(i)) > tol *. maxab then
        Alcotest.failf "%s: element %d deviates %g vs %g (range %g)" what i v dg.(i)
          maxab)
    de

let matmul_relu_graph rng ~m ~k ~n =
  let b = Graph.Builder.create () in
  let x =
    Graph.Builder.input b ~name:"x" (Shape.of_dims [ Dim.of_int m; Dim.of_int k ])
  in
  let w = Graph.Builder.const b ~name:"w" (Tensor.rand_normal rng [ k; n ]) in
  let y = Graph.Builder.node1 b Op.MatMul [ x; w ] in
  let r = Graph.Builder.node1 b (Op.Unary Op.Relu) [ y ] in
  Graph.Builder.set_outputs b [ r ];
  x, Graph.Builder.finish b

(* The compile options of a quantized artifact: int8 is a property of the
   artifact, and every non-naive backend then runs its int8 kernels. *)
let int8 = { Sod2.Compile_opts.default with Sod2.Compile_opts.quant = true }

let test_pipeline_quant_matmul () =
  let rng = Rng.create 42 in
  let m, k, n = 7, 33, 12 in
  let x, g = matmul_relu_graph rng ~m ~k ~n in
  let c = Sod2.Pipeline.compile ~opts:int8 cpu g in
  Alcotest.(check int) "one weight quantized at compile" 1
    (Hashtbl.length c.Sod2.Pipeline.quant_weights);
  Alcotest.(check bool) "artifact is flagged" true c.Sod2.Pipeline.quant;
  let inputs = [ x, Tensor.rand_uniform rng [ m; k ] ] in
  (* Same artifact on the naive backend: bit-exact float semantics for the
     baseline. *)
  let _, float_outs = RT.Executor.run_real c ~inputs in
  Profile.Counters.reset ();
  let cfg = { RT.Executor.default_config with backend = RT.Backend.Blocked } in
  let _, q_outs = RT.Executor.run_real ~config:cfg c ~inputs in
  Alcotest.(check bool) "int8 kernel engaged" true (counter_count "quant-kernel" > 0);
  List.iter2
    (fun (_, ft) (_, qt) -> check_close ~what:"matmul+relu" ~tol:0.05 ft qt)
    float_outs q_outs

let test_pipeline_quant_conv_arena () =
  let rng = Rng.create 43 in
  let b = Graph.Builder.create () in
  let x =
    Graph.Builder.input b ~name:"x"
      (Shape.of_dims [ Dim.of_int 1; Dim.of_int 4; Dim.of_int 8; Dim.of_int 8 ])
  in
  let w = Graph.Builder.const b ~name:"w" (Tensor.rand_normal rng [ 6; 4; 3; 3 ]) in
  let bias = Graph.Builder.const b ~name:"b" (Tensor.rand_normal rng [ 6 ]) in
  let y =
    Graph.Builder.node1 b
      (Op.Conv { stride = (1, 1); pads = (1, 1, 1, 1); dilation = (1, 1); groups = 1 })
      [ x; w; bias ]
  in
  let r = Graph.Builder.node1 b (Op.Unary Op.Relu) [ y ] in
  Graph.Builder.set_outputs b [ r ];
  let g = Graph.Builder.finish b in
  let c = Sod2.Pipeline.compile ~opts:int8 cpu g in
  let inputs = [ x, Tensor.rand_uniform rng [ 1; 4; 8; 8 ] ] in
  let _, float_outs = RT.Executor.run_real c ~inputs in
  (* The full CLI spelling, arena memory included: per-channel conv + bias
     epilogue must survive the dest-store path. *)
  let cfg =
    match RT.Executor.config_of_string "blocked,arena,int8" with
    | Ok cfg -> cfg
    | Error e -> Alcotest.fail e
  in
  Profile.Counters.reset ();
  let _, q_outs = RT.Executor.run_real ~config:cfg ~env:Env.empty c ~inputs in
  Alcotest.(check bool) "int8 kernel engaged" true (counter_count "quant-kernel" > 0);
  List.iter2
    (fun (_, ft) (_, qt) -> check_close ~what:"conv+bias+relu" ~tol:0.05 ft qt)
    float_outs q_outs

let test_config_int8_syntax () =
  (match RT.Executor.config_of_string "blocked,arena,int8" with
  | Ok cfg ->
    Alcotest.(check bool) "int8 parses to a quantized compile" true
      cfg.RT.Executor.compile.Sod2.Compile_opts.quant;
    Alcotest.(check string) "canonical rendering round-trips" "blocked,arena,int8"
      (RT.Executor.config_to_string cfg)
  | Error e -> Alcotest.fail e);
  match RT.Executor.config_of_string "naive" with
  | Ok cfg ->
    Alcotest.(check bool) "quant defaults off" false
      cfg.RT.Executor.compile.Sod2.Compile_opts.quant
  | Error e -> Alcotest.fail e

let test_fused_template_withheld () =
  (* Quantized anchors must not reach the fused compiler: the group's
     template is present on a float compile and withheld under int8. *)
  let rng = Rng.create 44 in
  let _, g = matmul_relu_graph rng ~m:4 ~k:16 ~n:8 in
  let cf = Sod2.Pipeline.compile cpu g in
  let cq = Sod2.Pipeline.compile ~opts:int8 cpu g in
  let gid_of c =
    let found = ref None in
    Array.iteri
      (fun gid (grp : Sod2.Fusion.group) ->
        let has_mm =
          List.exists
            (fun nid -> (Graph.node g nid).Graph.op = Op.MatMul)
            grp.Sod2.Fusion.members
        in
        if has_mm && List.length grp.Sod2.Fusion.members > 1 then found := Some gid)
      c.Sod2.Pipeline.fusion_plan.Sod2.Fusion.groups;
    !found
  in
  match gid_of cf with
  | None -> Alcotest.fail "matmul+relu did not fuse — fixture assumption broken"
  | Some gid ->
    Alcotest.(check bool) "float compile has the template" true
      (Option.is_some cf.Sod2.Pipeline.fused.(gid));
    Alcotest.(check bool) "quant compile withholds it" true
      (Option.is_none cq.Sod2.Pipeline.fused.(gid))

let test_engine_quant () =
  (* The serving engine inherits quant from the artifact — no
     engine-specific plumbing.  Symbolic batch exercises the per-binding
     plan cache together with the dynamic activation quantization. *)
  let rng = Rng.create 45 in
  let k, n = 24, 10 in
  let b = Graph.Builder.create () in
  let x =
    Graph.Builder.input b ~name:"x" (Shape.of_dims [ Dim.of_sym "B"; Dim.of_int k ])
  in
  let w = Graph.Builder.const b ~name:"w" (Tensor.rand_normal rng [ k; n ]) in
  let y = Graph.Builder.node1 b Op.MatMul [ x; w ] in
  let r = Graph.Builder.node1 b (Op.Unary Op.Relu) [ y ] in
  Graph.Builder.set_outputs b [ r ];
  let g = Graph.Builder.finish b in
  let c = Sod2.Pipeline.compile ~opts:int8 cpu g in
  let cfg =
    {
      RT.Executor.default_config with
      backend = RT.Backend.Blocked;
      memory = RT.Executor.Mem_arena;
    }
  in
  let eng = RT.Engine.create ~workers:1 ~config:cfg c in
  Profile.Counters.reset ();
  Fun.protect
    ~finally:(fun () -> RT.Engine.shutdown eng)
    (fun () ->
      List.iter
        (fun bsz ->
          let inputs = [ x, Tensor.rand_uniform rng [ bsz; k ] ] in
          let res = RT.Engine.infer eng ~env:(Env.of_list [ "B", bsz ]) ~inputs in
          let _, float_outs = RT.Executor.run_real c ~inputs in
          List.iter2
            (fun (_, ft) (_, qt) -> check_close ~what:"engine int8" ~tol:0.05 ft qt)
            float_outs res.RT.Engine.outputs)
        [ 3; 6; 3 ]);
  Alcotest.(check bool) "int8 kernels ran in the engine worker" true
    (counter_count "quant-kernel" > 0)

let bit_identical outs outs' =
  List.length outs = List.length outs'
  && List.for_all2
       (fun (ta, va) (tb, vb) ->
         ta = tb && Tensor.dims va = Tensor.dims vb && Tensor.data_f va = Tensor.data_f vb)
       outs outs'

let config_of spec =
  match RT.Executor.config_of_string spec with
  | Ok cfg -> cfg
  | Error e -> Alcotest.fail e

let test_engine_guarded_int8_consistent () =
  (* Planned runs of a gated model honour the artifact's int8 on every
     request: same inputs, same int8 answer. *)
  let sp = Option.get (Zoo.by_name "skipnet") in
  let g = sp.Zoo.build () in
  let cfg = config_of "blocked,arena,guarded,int8" in
  let c =
    Sod2.Pipeline.compile ~opts:cfg.RT.Executor.compile cpu g
  in
  let env = Env.of_list [ "H", 64; "W", 64 ] in
  let inputs = Zoo.make_inputs sp g env (Rng.create 5) in
  let eng = RT.Engine.create ~workers:1 ~max_batch:1 ~config:cfg c in
  Fun.protect
    ~finally:(fun () -> RT.Engine.shutdown eng)
    (fun () ->
      let answers =
        List.init 4 (fun i ->
            let q0 = counter_count "quant-kernel" in
            let r = RT.Engine.infer eng ~env ~inputs in
            Alcotest.(check bool)
              (Printf.sprintf "request %d engages the int8 kernels" (i + 1))
              true
              (counter_count "quant-kernel" > q0);
            r.RT.Engine.outputs)
      in
      List.iteri
        (fun i outs ->
          Alcotest.(check bool)
            (Printf.sprintf "request %d is bit-identical to request 1" (i + 1))
            true
            (bit_identical (List.hd answers) outs))
        answers)

(* The float baseline every quant test leans on: a quantized artifact on
   the naive backend, with or without an explicit backend instance, runs
   no int8 kernel and answers exactly as the reference interpreter. *)
let test_naive_quant_is_reference () =
  let rng = Rng.create 47 in
  let x, g = matmul_relu_graph rng ~m:5 ~k:20 ~n:9 in
  let c = Sod2.Pipeline.compile ~opts:int8 cpu g in
  let inputs = [ x, Tensor.rand_uniform rng [ 5; 20 ] ] in
  let reference = RT.Reference.run g ~inputs in
  let be = RT.Backend.for_compiled RT.Backend.Naive c in
  Profile.Counters.reset ();
  Fun.protect
    ~finally:(fun () -> RT.Backend.shutdown be)
    (fun () ->
      List.iter
        (fun (what, outs) ->
          Alcotest.(check bool) (what ^ " = Reference.run, bit for bit") true
            (bit_identical reference outs))
        [
          "no backend", snd (RT.Executor.run_real c ~inputs);
          "naive backend", snd (RT.Executor.run_real ~backend:be c ~inputs);
          ( "naive arena config",
            snd (RT.Executor.run_real ~config:(config_of "naive,arena,int8") ~env:Env.empty
                   c ~inputs) );
        ]);
  Alcotest.(check int) "no int8 kernel ran" 0 (counter_count "quant-kernel")

let test_engine_fallback_is_float () =
  (* Fallbacks answer in float: with the breaker open, an int8 engine's
     reply is exactly the reference interpreter's. *)
  let rng = Rng.create 46 in
  let x, g = matmul_relu_graph rng ~m:6 ~k:24 ~n:10 in
  let c = Sod2.Pipeline.compile ~opts:int8 cpu g in
  let eng =
    RT.Engine.create ~workers:1 ~breaker_threshold:1 ~breaker_cooldown_us:1e9
      ~config:(config_of "blocked,arena,int8") c
  in
  let inputs = [ x, Tensor.rand_uniform rng [ 6; 24 ] ] in
  RT.Engine.For_testing.inject :=
    Some (fun ~worker:_ ~plan_key:_ -> failwith "injected kernel fault");
  Fun.protect
    ~finally:(fun () ->
      RT.Engine.For_testing.inject := None;
      RT.Engine.shutdown eng)
    (fun () ->
      (match RT.Engine.infer eng ~env:Env.empty ~inputs with
      | _ -> Alcotest.fail "injected fault did not fail the request"
      | exception Sod2_error.Error _ -> ());
      let r = RT.Engine.infer eng ~env:Env.empty ~inputs in
      Alcotest.(check bool) "open breaker routes through the fallback" true
        r.RT.Engine.degraded;
      Alcotest.(check bool) "fallback = Reference.run, bit for bit" true
        (bit_identical (RT.Reference.run g ~inputs) r.RT.Engine.outputs))

(* The int8 kernels read their activation and bias as views and write
   their result to its slot, like the float ones.  The second of two runs
   over one arena is checked. *)
let test_int8_arena_in_place () =
  List.iter
    (fun (model, spec, env) ->
      let sp = Option.get (Zoo.by_name model) in
      let g = sp.Zoo.build () in
      let cfg = config_of spec in
      let c = Sod2.Pipeline.compile ~opts:cfg.RT.Executor.compile cpu g in
      let inputs = Zoo.make_inputs sp g env (Rng.create 5) in
      let be = RT.Backend.for_compiled cfg.RT.Executor.backend c in
      Fun.protect
        ~finally:(fun () -> RT.Backend.shutdown be)
        (fun () ->
          let arena = RT.Arena.create () in
          let run memory = snd (RT.Executor.run_real ~config:cfg ~backend:be ~memory c ~inputs) in
          ignore (run (RT.Executor.Arena { arena; env }));
          Profile.Counters.reset ();
          let outs = run (RT.Executor.Arena { arena; env }) in
          let what = Printf.sprintf "%s on %s" model spec in
          Alcotest.(check int) (what ^ ": arena-dest-malloc") 0 (counter_count "arena-dest-malloc");
          Alcotest.(check bool) (what ^ ": int8 kernels ran") true (counter_count "quant-kernel" > 0);
          Alcotest.(check bool) (what ^ ": arena = malloc, bit for bit") true
            (bit_identical (run RT.Executor.Malloc) outs)))
    [
      "skipnet", "blocked,arena,int8", Env.of_list [ "H", 96; "W", 96 ];
      "conformer", "fused,arena,int8", Env.of_list [ "T", 64 ];
    ]

let test_memplan_int_elem_override () =
  (* A ShapeOf output holds I64 values: on an f32 plan its slot must be
     sized at 8 bytes/elem (and padded to the 8-byte grid), not 4. *)
  let b = Graph.Builder.create () in
  let x =
    Graph.Builder.input b ~name:"x" (Shape.of_dims [ Dim.of_int 3; Dim.of_int 5 ])
  in
  let s = Graph.Builder.node1 b Op.ShapeOf [ x ] in
  let f = Graph.Builder.node1 b (Op.Cast Tensor.F32) [ s ] in
  let y = Graph.Builder.node1 b (Op.Unary Op.Sigmoid) [ f ] in
  Graph.Builder.set_outputs b [ y ];
  let g = Graph.Builder.finish b in
  let c = Sod2.Pipeline.compile cpu g in
  let mp = Sod2.Pipeline.instantiated_plan c Env.empty in
  match
    Array.to_list mp.Sod2.Mem_plan.allocs
    |> List.find_opt (fun (a : Sod2.Mem_plan.alloc) -> a.Sod2.Mem_plan.tid = s)
  with
  | Some a ->
    Alcotest.(check int) "I64 element size" 8 a.Sod2.Mem_plan.elem;
    Alcotest.(check int) "slot holds 2 i64s"
      (Sod2.Mem_plan.slot_bytes ~plan_elem:4 ~elem:8 2)
      a.Sod2.Mem_plan.size
  | None -> ()
(* no slot planned for the ShapeOf output is acceptable (kept boxed) *)

let suite =
  [
    Alcotest.test_case "srdhm corners" `Quick test_srdhm_corners;
    Alcotest.test_case "rounding divide by pot" `Quick test_rdbpot;
    QCheck_alcotest.to_alcotest prop_quantize_multiplier_reconstructs;
    QCheck_alcotest.to_alcotest prop_requantize_matches_reference;
    QCheck_alcotest.to_alcotest prop_gemm_i8_bit_exact;
    QCheck_alcotest.to_alcotest prop_gemm_i8_matches_naive;
    QCheck_alcotest.to_alcotest prop_gemm_i8_per_channel;
    Alcotest.test_case "saturation hits both rails" `Quick test_saturation_rails;
    Alcotest.test_case "conv i8 basic vs reference" `Quick test_conv_i8_basic;
    Alcotest.test_case "conv i8 strided grouped" `Quick test_conv_i8_strided_grouped;
    Alcotest.test_case "conv i8 dilated" `Quick test_conv_i8_dilated;
    Alcotest.test_case "gemm i8 dequant write-back" `Quick test_gemm_i8_dequant;
    Alcotest.test_case "per-tensor scheme round-trip" `Quick test_scheme_round_trip;
    Alcotest.test_case "per-channel scheme round-trip" `Quick test_scheme_per_channel;
    Alcotest.test_case "saturating cast boundaries" `Quick test_cast_boundaries;
    Alcotest.test_case "pipeline quant matmul e2e" `Quick test_pipeline_quant_matmul;
    Alcotest.test_case "pipeline quant conv arena e2e" `Quick
      test_pipeline_quant_conv_arena;
    Alcotest.test_case "config int8 syntax" `Quick test_config_int8_syntax;
    Alcotest.test_case "fused template withheld under quant" `Quick
      test_fused_template_withheld;
    Alcotest.test_case "engine serves int8 via config" `Quick test_engine_quant;
    Alcotest.test_case "guarded int8 engine answers consistently" `Quick
      test_engine_guarded_int8_consistent;
    Alcotest.test_case "int8 engine fallback is float" `Quick test_engine_fallback_is_float;
    Alcotest.test_case "int8 arena runs read activations in place" `Quick
      test_int8_arena_in_place;
    Alcotest.test_case "int8 artifact on naive = reference" `Quick
      test_naive_quant_is_reference;
    Alcotest.test_case "mem-plan I64 elem override" `Quick
      test_memplan_int_elem_override;
  ]
