(* Int8 quantization: the packed int8 kernels' accumulators against the
   independent scalar reference in {!Reference}, the dequantizing
   write-back, scheme round-trips, the saturating cast boundaries and the
   pipeline end to end.

   The load-bearing property: [Blocked.gemm_i8_dequant]'s SWAR
   micro-kernel + row/column-sum zero-point correction must agree
   bit-for-bit with [Reference.gemm_i8_acc]'s direct loops — two
   independent derivations of the same integer math — across random
   shapes and zero points.  The kernels compare full accumulators: an F64
   destination with scale 1.0 and bias -0.0 stores each accumulator
   exactly (|acc| < 2^53), so an accumulator off by one is a failure. *)

module RT = Sod2_runtime

let i8_gen = QCheck2.Gen.int_range (-128) 127

let i8_tensor_gen dims =
  let n = max 1 (List.fold_left ( * ) 1 dims) in
  QCheck2.Gen.map
    (fun l -> Tensor.of_ints Tensor.I8 dims (Array.of_list l))
    (QCheck2.Gen.list_size (QCheck2.Gen.return n) i8_gen)

(* The first element whose stored bits differ from [expect i], if any. *)
let first_off c expect =
  let rec go i =
    if i >= Tensor.fbuf_len c then None
    else if Int64.bits_of_float (Tensor.fbuf_get c i) <> Int64.bits_of_float (expect i) then Some i
    else go (i + 1)
  in
  go 0

(* [gemm_i8_dequant] of two I8 tensors into a fresh F64 buffer. *)
let gemm_f64 ~za ~zb ~scale ~bias ~m ~n ~k a b =
  let c = Tensor.fbuf_create Tensor.F64 (m * n) in
  Blocked.gemm_i8_dequant ~za ~zb ~scale ~bias ~m ~n ~k ~a:(Tensor.storage_i8 a) ~ao:0
    ~b:(Tensor.storage_i8 b) ~bo:0 ~c ~co:0 ();
  c

(* ------------------------------------------------------------------ *)
(* Packed int8 GEMM vs scalar reference                                *)

let prop_gemm_i8_accumulators =
  (* [Reference.gemm_i8_acc] is the inline-zero-point naive kernel: it
     subtracts the zero points term by term instead of using the
     row/column-sum correction. *)
  QCheck2.Test.make ~name:"packed int8 gemm matches inline-zp naive kernel" ~count:200
    QCheck2.Gen.(tup4 (int_range 1 40) (int_range 1 40) (int_range 1 60) (tup2 i8_gen i8_gen))
    (fun (m, n, k, (za, zb)) ->
      let seed = (m * 7919) + (n * 104729) + k in
      let rng = QCheck2.Gen.generate1 ~rand:(Random.State.make [| seed |]) in
      let a = rng (i8_tensor_gen [ m; k ]) and b = rng (i8_tensor_gen [ k; n ]) in
      let c = gemm_f64 ~za ~zb ~scale:[| 1.0 |] ~bias:[| -0.0 |] ~m ~n ~k a b in
      let accs = RT.Reference.gemm_i8_acc ~za ~zb ~m ~n ~k a b in
      first_off c (fun i -> float_of_int accs.(i)) = None)

(* An independent scalar requantizer: [round(x / scale) + zp], rounding
   half away from zero, clamped to the int8 rails. *)
let requantize_ref ~scale ~zp x =
  let q = int_of_float (Float.round (x /. scale)) + zp in
  if q > 127 then 127 else if q < -128 then -128 else q

let prop_gemm_i8_requantize =
  (* Two int8 layers back to back: the fused write-back dequantizes the
     accumulators into f32 with a real scale and bias, and the next
     layer's scheme requantizes that result to int8.  The reference
     applies the same float ops to [Reference.gemm_i8_acc]'s
     accumulators, so every int8 value must agree. *)
  QCheck2.Test.make ~name:"fused int8 gemm+requantize bit-exact vs scalar reference" ~count:120
    QCheck2.Gen.(
      tup4
        (tup3 (int_range 1 40) (int_range 1 40) (int_range 1 60))
        (tup2 i8_gen i8_gen)
        (tup2 (float_range (-9.0) (-3.0)) (float_range (-2.0) 2.0))
        (tup2 (float_range (-2.0) 2.0) i8_gen))
    (fun ((m, n, k), (za, zb), (log_scale, bias), (log_out, zp)) ->
      let seed = (m * 7919) + (n * 104729) + k in
      let rng = QCheck2.Gen.generate1 ~rand:(Random.State.make [| seed |]) in
      let a = rng (i8_tensor_gen [ m; k ]) and b = rng (i8_tensor_gen [ k; n ]) in
      let scale = Float.exp log_scale and out_scale = Float.exp log_out in
      let c = Tensor.fbuf_create Tensor.F32 (m * n) in
      Blocked.gemm_i8_dequant ~za ~zb ~scale:[| scale |] ~bias:[| bias |] ~m ~n ~k
        ~a:(Tensor.storage_i8 a) ~ao:0 ~b:(Tensor.storage_i8 b) ~bo:0 ~c ~co:0 ();
      let q =
        Quant.quantize (Tensor.of_fbuf [ m; n ] c)
          (Quant.Per_tensor { scale = out_scale; zero_point = zp })
      in
      let got = Tensor.data_i q.Quant.q in
      let accs = RT.Reference.gemm_i8_acc ~za ~zb ~m ~n ~k a b in
      let expect i =
        requantize_ref ~scale:out_scale ~zp (Tensor.round_f32 ((float_of_int accs.(i) *. scale) +. bias))
      in
      let rec agree i = i >= m * n || (got.(i) = expect i && agree (i + 1)) in
      agree 0)

let prop_gemm_i8_per_row =
  (* Per-row dequantization (the conv output-channel layout): one scale
     and bias per row.  Power-of-two scales and integer biases keep every
     stored value exact, so each still carries its whole accumulator, and
     a row that read another row's entry shows. *)
  QCheck2.Test.make ~name:"per-row dequant scales bit-exact" ~count:80
    QCheck2.Gen.(tup4 (int_range 1 24) (int_range 1 24) (int_range 1 48) (tup2 i8_gen i8_gen))
    (fun (m, n, k, (za, zb)) ->
      let st = Random.State.make [| (m * 31) + n + (k * 1009) |] in
      let rng = QCheck2.Gen.generate1 ~rand:st in
      let a = rng (i8_tensor_gen [ m; k ]) and b = rng (i8_tensor_gen [ k; n ]) in
      let scale = Array.init m (fun _ -> Float.ldexp 1.0 (Random.State.int st 9 - 4)) in
      let bias = Array.init m (fun _ -> float_of_int (Random.State.int st 201 - 100)) in
      let c = gemm_f64 ~za ~zb ~scale ~bias ~m ~n ~k a b in
      let accs = RT.Reference.gemm_i8_acc ~za ~zb ~m ~n ~k a b in
      first_off c (fun i -> (float_of_int accs.(i) *. scale.(i / n)) +. bias.(i / n)) = None)

let test_depth_cap () =
  (* The deepest product the packed fields admit, with every operand at
     the rail farthest from its zero point: each term is 255^2, so the
     accumulators reach 65536 * 65025 (past int32), and every 21-bit
     field carries its largest block sum. *)
  let m = 2 and n = 3 in
  let rail dims = Tensor.of_ints Tensor.I8 dims (Array.make (List.fold_left ( * ) 1 dims) (-128)) in
  let k = 65536 in
  let a = rail [ m; k ] and b = rail [ k; n ] in
  let c = gemm_f64 ~za:127 ~zb:127 ~scale:[| 1.0 |] ~bias:[| -0.0 |] ~m ~n ~k a b in
  let accs = RT.Reference.gemm_i8_acc ~za:127 ~zb:127 ~m ~n ~k a b in
  Alcotest.(check int) "accumulator" (k * 255 * 255) accs.(0);
  (match first_off c (fun i -> float_of_int accs.(i)) with
   | None -> ()
   | Some i -> Alcotest.failf "element %d: %h vs %d" i (Tensor.fbuf_get c i) accs.(i));
  (* one deeper is refused before any work: the destination keeps its
     sentinel *)
  let k = k + 1 in
  let a = rail [ m; k ] and b = rail [ k; n ] in
  let c = Tensor.fbuf_create Tensor.F64 (m * n) in
  Tensor.fbuf_fill c 0 (m * n) 42.0;
  (match
     Blocked.gemm_i8_dequant ~za:127 ~zb:127 ~scale:[| 1.0 |] ~bias:[| -0.0 |] ~m ~n ~k
       ~a:(Tensor.storage_i8 a) ~ao:0 ~b:(Tensor.storage_i8 b) ~bo:0 ~c ~co:0 ()
   with
   | () -> Alcotest.fail "depth 65537 was accepted"
   | exception Invalid_argument _ -> ());
  Alcotest.(check bool) "destination untouched" true (first_off c (fun _ -> 42.0) = None)

(* ------------------------------------------------------------------ *)
(* Quantized conv vs scalar reference                                  *)

let conv_i8_case ?(scale = fun _ -> 1.0) ~stride ~pad ~dilation ~groups ~zx ~zw xdims wdims seed =
  let rng = QCheck2.Gen.generate1 ~rand:(Random.State.make [| seed |]) in
  let x = rng (i8_tensor_gen xdims) and w = rng (i8_tensor_gen wdims) in
  let accs, odims =
    RT.Reference.conv2d_i8_acc ~zx ~zw ~stride ~pad ~dilation ~groups x w
  in
  let out_n = List.fold_left ( * ) 1 odims in
  let scales = Array.init (List.nth wdims 0) scale in
  let c = Tensor.fbuf_create Tensor.F64 out_n in
  let odims' =
    Blocked.conv2d_i8_dequant_into ~zx ~zw ~scale:scales ~bias:[| -0.0 |] ~stride ~pad ~dilation
      ~groups ~x:(Tensor.storage_i8 x) ~xoff:0 ~xdims:(Tensor.dims_arr x)
      ~w:(Tensor.storage_i8 w) ~woff:0 ~wdims:(Tensor.dims_arr w) ~c ~co:0 ()
  in
  Alcotest.(check (list int)) "output dims" odims odims';
  let plane = List.nth odims 2 * List.nth odims 3 in
  let expect i = float_of_int accs.(i) *. scales.(i / plane mod List.nth odims 1) in
  match first_off c expect with
  | None -> ()
  | Some i -> Alcotest.failf "conv element %d: packed %h vs reference %h" i (Tensor.fbuf_get c i) (expect i)

let test_conv_i8_basic () =
  conv_i8_case ~stride:(1, 1) ~pad:(1, 1, 1, 1) ~dilation:(1, 1) ~groups:1 ~zx:7
    ~zw:0 [ 2; 3; 9; 9 ] [ 4; 3; 3; 3 ] 42

let test_conv_i8_strided_grouped () =
  (* per-channel power-of-two scales: the second group's rows must read
     their own channels' entries *)
  conv_i8_case ~scale:(fun ch -> Float.ldexp 1.0 (ch - 2)) ~stride:(2, 2) ~pad:(0, 1, 0, 1)
    ~dilation:(1, 1) ~groups:2 ~zx:(-3) ~zw:2 [ 1; 4; 11; 13 ] [ 6; 2; 3; 2 ] 7

let test_conv_i8_dilated () =
  conv_i8_case ~stride:(1, 1) ~pad:(2, 2, 2, 2) ~dilation:(2, 2) ~groups:1 ~zx:11
    ~zw:(-1) [ 1; 2; 12; 12 ] [ 3; 2; 3; 3 ] 99

let test_gemm_i8_dequant () =
  (* The F32 write-back: the store dequantizes with a plain float scale
     (and the bias [-0.0], which adds nothing); exactness holds because
     each acc is an integer and the reference applies the identical float
     op. *)
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
  let eng = RT.Engine.create ~workers:1 ~config:cfg c in
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
      "conformer", "blocked,arena,int8", Env.of_list [ "T", 64 ];
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
    QCheck_alcotest.to_alcotest prop_gemm_i8_accumulators;
    QCheck_alcotest.to_alcotest prop_gemm_i8_requantize;
    QCheck_alcotest.to_alcotest prop_gemm_i8_per_row;
    Alcotest.test_case "int8 depth cap: 65536 exact, 65537 refused" `Quick test_depth_cap;
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
