(* Operator conformance: for every operator of the IR, execute the
   reference kernel on concrete inputs and check that the RDP transfer
   function ({!Shape_fn.forward}), fed the same information symbolically
   (here: as constants), predicts exactly the shapes — and, where tracked,
   the values — the kernel produced.

   This pins the two halves of the system together: if a kernel and its
   transfer function ever disagree, compilation plans would not match
   execution.  Execution-determined extents (the [nac] dims of NonZero,
   NonMaxSuppression, data-dependent TopK) are exempt by definition. *)

let value_of_tensor (t : Tensor.t) : Value_info.t =
  if Tensor.dtype t = Tensor.I64 && Tensor.numel t <= Value_info.max_tracked_elements then
    Value_info.of_ints (Tensor.to_int_list t)
  else Lattice.Nac

let io_of_inputs inputs =
  {
    Shape_fn.in_shapes = Array.of_list (List.map (fun t -> Shape.of_ints (Tensor.dims t)) inputs);
    in_values = Array.of_list (List.map value_of_tensor inputs);
  }

(* Check one case; [msg] names it in failures. *)
let agree ?(allow_nac = false) msg op inputs =
  let outs = Sod2_runtime.Kernels.run op inputs in
  let shapes, values = Shape_fn.forward op (io_of_inputs inputs) in
  if Array.length shapes <> List.length outs then
    Alcotest.failf "%s: %d outputs vs %d predicted" msg (List.length outs)
      (Array.length shapes);
  List.iteri
    (fun i out ->
      let actual = Tensor.dims out in
      (match shapes.(i) with
      | Shape.Ranked d ->
        if Array.length d <> List.length actual then
          Alcotest.failf "%s: rank %d predicted, %d actual" msg (Array.length d)
            (List.length actual);
        Array.iteri
          (fun j dim ->
            match Dim.as_const dim with
            | Some v ->
              if v <> List.nth actual j then
                Alcotest.failf "%s: dim %d predicted %d, actual %d" msg j v
                  (List.nth actual j)
            | None ->
              if not allow_nac then
                Alcotest.failf "%s: dim %d not statically predicted" msg j)
          d
      | Shape.Undef | Shape.Nac ->
        if not allow_nac then Alcotest.failf "%s: shape not predicted" msg);
      (* value tracking, where the analysis claims knowledge, must agree *)
      match Value_info.as_exprs values.(i) with
      | Some exprs when Tensor.dtype out = Tensor.I64 ->
        let predicted = Array.to_list exprs |> List.map (Expr.eval (fun _ -> None)) in
        if List.for_all Option.is_some predicted then begin
          let predicted = List.map Option.get predicted in
          if predicted <> Tensor.to_int_list out then
            Alcotest.failf "%s: value tracking disagrees with kernel" msg
        end
      | _ -> ())
    outs

let rng = Rng.create 2024

let f dims = Tensor.rand_uniform rng dims
let i l = Tensor.of_int_list l

(* ------------------------------------------------------------------ *)
(* Case tables                                                         *)
(* ------------------------------------------------------------------ *)

let unary_cases =
  List.map
    (fun u -> Op.name (Op.Unary u), Op.Unary u)
    [
      Op.Relu; Op.LeakyRelu 0.1; Op.Sigmoid; Op.Tanh; Op.Exp; Op.Sqrt; Op.Neg; Op.Abs;
      Op.Erf; Op.Gelu; Op.HardSwish; Op.Softplus; Op.Floor; Op.Ceil; Op.Round; Op.Not;
      Op.Identity; Op.Sign; Op.Reciprocal; Op.Softsign;
    ]

let binary_cases =
  List.map
    (fun b -> Op.name (Op.Binary b), Op.Binary b)
    [
      Op.Add; Op.Sub; Op.Mul; Op.Pow; Op.Max2; Op.Min2; Op.Equal; Op.Less; Op.Greater;
      Op.And; Op.Or;
    ]

let test_elementwise () =
  List.iter (fun (name, op) -> agree name op [ f [ 2; 3 ] ]) unary_cases;
  (* Log needs positive inputs *)
  agree "Log" (Op.Unary Op.Log) [ Tensor.map_f (fun v -> Float.abs v +. 1.0) (f [ 2; 3 ]) ];
  List.iter
    (fun (name, op) ->
      agree name op [ f [ 2; 3 ]; f [ 2; 3 ] ];
      agree (name ^ "/broadcast") op [ f [ 2; 1 ]; f [ 1; 3 ] ];
      agree (name ^ "/scalar") op [ f [ 2; 3 ]; Tensor.scalar_f 2.0 ])
    binary_cases;
  (* integer binary with value tracking *)
  agree "Add/int-values" (Op.Binary Op.Add) [ i [ 1; 2; 3 ]; i [ 10; 20; 30 ] ];
  agree "Mul/int-values" (Op.Binary Op.Mul) [ i [ 2; 3 ]; i [ 4; 5 ] ];
  agree "Div/int-values" (Op.Binary Op.Div) [ i [ 8; 9 ]; i [ 2; 2 ] ];
  agree "Mod/int-values" (Op.Binary Op.Mod2) [ i [ 8; 9 ]; i [ 3; 3 ] ];
  agree "Clip" (Op.Clip (-0.5, 0.5)) [ f [ 4 ] ];
  agree "Cast" (Op.Cast Tensor.I64) [ f [ 4 ] ];
  agree "Cast/back" (Op.Cast Tensor.F32) [ i [ 1; 2 ] ];
  agree "Where" Op.Where [ Tensor.create_i [ 3 ] [| 1; 0; 1 |]; f [ 3 ]; f [ 3 ] ]

let test_linalg_ops () =
  agree "MatMul" Op.MatMul [ f [ 4; 5 ]; f [ 5; 6 ] ];
  agree "MatMul/batched" Op.MatMul [ f [ 2; 4; 5 ]; f [ 5; 6 ] ];
  agree "MatMul/bcast-batch" Op.MatMul [ f [ 2; 1; 4; 5 ]; f [ 3; 5; 6 ] ];
  agree "Gemm" (Op.Gemm { alpha = 1.0; beta = 1.0; trans_a = false; trans_b = false })
    [ f [ 4; 5 ]; f [ 5; 6 ]; f [ 6 ] ];
  agree "Gemm/transposed" (Op.Gemm { alpha = 0.5; beta = 2.0; trans_a = true; trans_b = true })
    [ f [ 5; 4 ]; f [ 6; 5 ]; f [ 4; 6 ] ];
  agree "Conv" (Op.Conv { stride = (1, 1); pads = (1, 1, 1, 1); dilation = (1, 1); groups = 1 })
    [ f [ 1; 3; 8; 8 ]; f [ 4; 3; 3; 3 ]; f [ 4 ] ];
  agree "Conv/strided"
    (Op.Conv { stride = (2, 2); pads = (0, 1, 0, 1); dilation = (1, 1); groups = 1 })
    [ f [ 1; 2; 9; 9 ]; f [ 4; 2; 2; 2 ] ];
  agree "Conv/dilated"
    (Op.Conv { stride = (1, 1); pads = (2, 2, 2, 2); dilation = (2, 2); groups = 1 })
    [ f [ 1; 2; 8; 8 ]; f [ 2; 2; 3; 3 ] ];
  agree "Conv/grouped"
    (Op.Conv { stride = (1, 1); pads = (0, 0, 0, 0); dilation = (1, 1); groups = 2 })
    [ f [ 1; 4; 6; 6 ]; f [ 4; 2; 1; 1 ] ];
  agree "Conv1d" (Op.Conv1d { stride1 = 2; pads1 = (1, 1); dilation1 = 1; groups1 = 1 })
    [ f [ 1; 2; 9 ]; f [ 3; 2; 3 ]; f [ 3 ] ];
  agree "MaxPool"
    (Op.MaxPool { kernel = (3, 3); pool_stride = (2, 2); pool_pads = (1, 1, 1, 1) })
    [ f [ 1; 2; 7; 7 ] ];
  agree "AveragePool"
    (Op.AveragePool { kernel = (2, 2); pool_stride = (2, 2); pool_pads = (0, 0, 0, 0) })
    [ f [ 1; 2; 8; 8 ] ];
  agree "GlobalAveragePool" Op.GlobalAveragePool [ f [ 2; 3; 4; 5 ] ]

(* [Kernels.run] routes each call: integer Neg, Abs and Not stay
   integer, any other integer operand of a float kernel reads as F32,
   float operands keep their precision, and a malformed shape raises the
   error it raised before the destination kernels ran it — on the naive
   kernels and on a blocked backend alike. *)
let test_run_routing () =
  let module K = Sod2_runtime.Kernels in
  let ints = i [ -2; 0; 3 ] in
  let out ?backend op inputs = List.hd (K.run ?backend op inputs) in
  let dtype msg want op inputs =
    Alcotest.(check string) msg (Tensor.dtype_name want)
      (Tensor.dtype_name (Tensor.dtype (out op inputs)))
  in
  let ints_of msg want op =
    dtype msg Tensor.I64 op [ ints ];
    Alcotest.(check (list int)) (msg ^ " values") want (Tensor.to_int_list (out op [ ints ]))
  in
  ints_of "I64 Neg" [ 2; 0; -3 ] (Op.Unary Op.Neg);
  ints_of "I64 Abs" [ 2; 0; 3 ] (Op.Unary Op.Abs);
  ints_of "I64 Not" [ 0; 1; 0 ] (Op.Unary Op.Not);
  dtype "I64 Relu" Tensor.F32 (Op.Unary Op.Relu) [ ints ];
  Alcotest.(check (list (float 0.0))) "I64 Relu values" [ 0.; 0.; 3. ]
    (Array.to_list (Tensor.data_f (out (Op.Unary Op.Relu) [ ints ])));
  dtype "I64 x F32 Add" Tensor.F32 (Op.Binary Op.Add) [ ints; f [ 3 ] ];
  dtype "F32 x F64 Add" Tensor.F64 (Op.Binary Op.Add) [ f [ 3 ]; Tensor.cast (f [ 3 ]) Tensor.F64 ];
  let raises msg cls run =
    match run () with
    | _ -> Alcotest.failf "%s: no error" msg
    | exception e ->
      let got =
        match e with
        | Invalid_argument _ -> "Invalid_argument"
        | Sod2_error.Error { cls; _ } -> Sod2_error.class_name cls
        | e -> Printexc.to_string e
      in
      Alcotest.(check string) msg cls got
  in
  let blocked = Sod2_runtime.Backend.create ~threads:1 Sod2_runtime.Backend.Blocked in
  List.iter
    (fun (name, backend) ->
      let raises msg = raises (name ^ ": " ^ msg) in
      raises "MatMul inner dims 3 vs 4" "Invalid_argument" (fun () ->
          out ?backend Op.MatMul [ f [ 2; 3 ]; f [ 4; 5 ] ]);
      raises "Conv with 3 channels in 2 groups"
        (Sod2_error.class_name Sod2_error.Shape_mismatch) (fun () ->
          out ?backend
            (Op.Conv { stride = (1, 1); pads = (0, 0, 0, 0); dilation = (1, 1); groups = 2 })
            [ f [ 1; 3; 4; 4 ]; f [ 2; 1; 1; 1 ] ]);
      raises "BatchNorm with a 2-element scale over 3 channels"
        (Sod2_error.class_name Sod2_error.Arity_mismatch) (fun () ->
          out ?backend (Op.BatchNorm { eps = 1e-5 })
            [ f [ 1; 3; 2; 2 ]; f [ 2 ]; f [ 3 ]; f [ 3 ]; f [ 3 ] ]))
    [ "naive", None; "blocked", Some blocked ]

let test_norm_ops () =
  let ch = 4 in
  agree "BatchNorm" (Op.BatchNorm { eps = 1e-5 })
    [ f [ 1; ch; 3; 3 ]; f [ ch ]; f [ ch ]; f [ ch ];
      Tensor.map_f Float.abs (f [ ch ]) ];
  agree "LayerNorm" (Op.LayerNorm { eps = 1e-5 }) [ f [ 2; 3; 8 ]; f [ 8 ]; f [ 8 ] ];
  agree "GroupNorm" (Op.GroupNorm { num_groups = 2; eps = 1e-5 })
    [ f [ 1; 4; 3; 3 ]; f [ 4 ]; f [ 4 ] ];
  agree "InstanceNorm" (Op.InstanceNorm { eps = 1e-5 })
    [ f [ 2; 3; 4; 4 ]; f [ 3 ]; f [ 3 ] ];
  agree "Softmax" (Op.Softmax { axis = -1 }) [ f [ 2; 5 ] ];
  agree "LogSoftmax" (Op.LogSoftmax { axis = 1 }) [ f [ 2; 5 ] ]

let test_reduce_ops () =
  List.iter
    (fun rk ->
      let name = Op.name (Op.Reduce { rkind = rk; axes = [ 1 ]; keepdims = true }) in
      agree (name ^ "/keep") (Op.Reduce { rkind = rk; axes = [ 1 ]; keepdims = true })
        [ f [ 2; 3; 4 ] ];
      agree (name ^ "/drop") (Op.Reduce { rkind = rk; axes = [ 0; 2 ]; keepdims = false })
        [ f [ 2; 3; 4 ] ];
      agree (name ^ "/all") (Op.Reduce { rkind = rk; axes = []; keepdims = false })
        [ f [ 2; 3 ] ])
    [ Op.Rsum; Op.Rmean; Op.Rmax; Op.Rmin; Op.Rprod; Op.Rl2 ];
  agree "ArgMax" (Op.ArgMax { axis = 1; keepdims = false }) [ f [ 2; 5 ] ];
  agree "ArgMax/keep" (Op.ArgMax { axis = -1; keepdims = true }) [ f [ 2; 5 ] ];
  agree "ArgMin" (Op.ArgMin { axis = 0; keepdims = false }) [ f [ 4; 2 ] ];
  agree "CumSum" (Op.CumSum { axis = 1 }) [ f [ 2; 6 ] ]

let test_layout_ops () =
  agree "Transpose" (Op.Transpose [ 2; 0; 1 ]) [ f [ 2; 3; 4 ] ];
  agree "Reshape" Op.Reshape [ f [ 2; 3; 4 ]; i [ 6; 4 ] ];
  agree "Reshape/-1" Op.Reshape [ f [ 2; 3; 4 ]; i [ 2; -1 ] ];
  agree "Reshape/0-copies" Op.Reshape [ f [ 2; 3; 4 ]; i [ 0; -1 ] ];
  agree "Flatten" (Op.Flatten { axis = 1 }) [ f [ 2; 3; 4 ] ];
  agree "Flatten/axis2" (Op.Flatten { axis = 2 }) [ f [ 2; 3; 4 ] ];
  agree "Squeeze" (Op.Squeeze [ 0; 2 ]) [ f [ 1; 3; 1; 4 ] ];
  agree "Unsqueeze" (Op.Unsqueeze [ 0; 3 ]) [ f [ 3; 4 ] ];
  agree "Concat" (Op.Concat { axis = 1 }) [ f [ 2; 3 ]; f [ 2; 5 ] ];
  agree "Concat/int-values" (Op.Concat { axis = 0 }) [ i [ 1; 2 ]; i [ 3 ] ];
  agree "Split" (Op.Split { axis = 1; sizes = [ 2; 3 ] }) [ f [ 2; 5 ] ];
  agree "Slice" Op.Slice [ f [ 6; 4 ]; i [ 1 ]; i [ 5 ]; i [ 0 ]; i [ 2 ] ];
  agree "Slice/int-values" Op.Slice [ i [ 10; 20; 30; 40 ]; i [ 1 ]; i [ 3 ]; i [ 0 ]; i [ 1 ] ];
  agree "Gather" (Op.Gather { axis = 0 }) [ f [ 5; 2 ]; i [ 3; 0; 4 ] ];
  agree "Gather/axis1" (Op.Gather { axis = 1 }) [ f [ 2; 5 ]; i [ 1; 1 ] ];
  agree "Gather/int-values" (Op.Gather { axis = 0 }) [ i [ 7; 8; 9 ]; i [ 2; 0 ] ];
  agree "Pad" (Op.Pad { pad_value = 0.0 }) [ f [ 2; 3 ]; i [ 1; 0; 0; 2 ] ];
  agree "Expand" Op.Expand [ f [ 1; 3 ]; i [ 4; 3 ] ];
  agree "Tile" Op.Tile [ f [ 2; 3 ]; i [ 2; 1 ] ];
  agree "Resize" (Op.Resize Op.Nearest) [ f [ 1; 2; 4; 4 ]; i [ 8; 6 ] ];
  agree "Upsample" (Op.Upsample { scales = [ 2; 3 ] }) [ f [ 1; 2; 3; 3 ] ];
  agree "DepthToSpace" (Op.DepthToSpace { block = 2 }) [ f [ 1; 8; 3; 3 ] ];
  agree "SpaceToDepth" (Op.SpaceToDepth { block = 2 }) [ f [ 1; 2; 4; 4 ] ]

let test_shape_producer_ops () =
  agree "Shape" Op.ShapeOf [ f [ 2; 3; 4 ] ];
  agree "Size" Op.SizeOf [ f [ 2; 3; 4 ] ];
  agree "ConstantOfShape" (Op.ConstantOfShape { fill = 1.5 }) [ i [ 2; 3 ] ];
  agree "EyeLike" Op.EyeLike [ f [ 3; 3 ] ];
  agree "Range" Op.Range [ Tensor.scalar_i 2; Tensor.scalar_i 11; Tensor.scalar_i 3 ];
  agree "OneHot" (Op.OneHot { depth = 5 }) [ i [ 1; 4 ] ]

let test_execution_determined_ops () =
  agree "TopK" (Op.TopK { axis = 0; largest = true }) [ f [ 8 ]; Tensor.scalar_i 3 ];
  agree "TopK/axis1" (Op.TopK { axis = 1; largest = false }) [ f [ 2; 6 ]; Tensor.scalar_i 2 ];
  (* count dims are execution determined by definition *)
  agree ~allow_nac:true "NonZero" Op.NonZero [ f [ 3; 3 ] ];
  agree ~allow_nac:true "NMS" (Op.NonMaxSuppression { max_out = 4; iou_threshold = 0.5 })
    [ f [ 6; 4 ]; Tensor.map_f Float.abs (f [ 6 ]) ]

(* Property: for any elementwise binary operator and any broadcastable
   shape pair, the kernel and the transfer function agree. *)
let prop_broadcast_agreement =
  QCheck2.Test.make ~name:"broadcast shape agreement (kernel vs transfer)" ~count:200
    QCheck2.Gen.(
      tup4 (int_range 1 4) (int_range 1 4) (int_range 0 2) (int_range 0 10))
    (fun (n, m, pick, seed) ->
      let rng = Rng.create (seed + 77) in
      let shape_a, shape_b =
        match pick with
        | 0 -> [ n; 1 ], [ 1; m ]
        | 1 -> [ n; m ], [ m ]
        | _ -> [ 1; n; m ], [ n; 1 ]
      in
      let a = Tensor.rand_uniform rng shape_a and b = Tensor.rand_uniform rng shape_b in
      let out = List.hd (Sod2_runtime.Kernels.run (Op.Binary Op.Add) [ a; b ]) in
      let shapes, _ = Shape_fn.forward (Op.Binary Op.Add) (io_of_inputs [ a; b ]) in
      Shape.as_ints shapes.(0) = Some (Tensor.dims out))

(* Property: Reshape with a random valid factorization round-trips. *)
let prop_reshape_agreement =
  QCheck2.Test.make ~name:"reshape agreement over random factorizations" ~count:100
    QCheck2.Gen.(tup3 (int_range 1 4) (int_range 1 4) (int_range 0 10))
    (fun (a, b, seed) ->
      let rng = Rng.create (seed + 5) in
      let t = Tensor.rand_uniform rng [ a; b; 2 ] in
      let target = Tensor.of_int_list [ b; -1 ] in
      let out = List.hd (Sod2_runtime.Kernels.run Op.Reshape [ t; target ]) in
      let shapes, _ = Shape_fn.forward Op.Reshape (io_of_inputs [ t; target ]) in
      Shape.as_ints shapes.(0) = Some (Tensor.dims out))

let suite =
  [
    Alcotest.test_case "elementwise operators" `Quick test_elementwise;
    Alcotest.test_case "linear algebra operators" `Quick test_linalg_ops;
    Alcotest.test_case "Kernels.run routing: dtypes and shape errors" `Quick test_run_routing;
    Alcotest.test_case "normalization operators" `Quick test_norm_ops;
    Alcotest.test_case "reduction operators" `Quick test_reduce_ops;
    Alcotest.test_case "layout operators" `Quick test_layout_ops;
    Alcotest.test_case "shape-producer operators" `Quick test_shape_producer_ops;
    Alcotest.test_case "execution-determined operators" `Quick test_execution_determined_ops;
    QCheck_alcotest.to_alcotest prop_broadcast_agreement;
    QCheck_alcotest.to_alcotest prop_reshape_agreement;
  ]
