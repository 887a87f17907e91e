(* Tests for the tensor substrate: representation, kernels, transforms and
   reductions, with hand-computed references and algebraic properties. *)

let t_f dims data = Tensor.create_f dims (Array.of_list data)

(* One operator through [Kernels.run], the runtime's one entry per op. *)
let run1 op inputs = List.hd (Sod2_runtime.Kernels.run op inputs)

let conv ?(stride = 1, 1) ?(pads = 0, 0, 0, 0) ?(groups = 1) x w b =
  run1 (Op.Conv { stride; pads; dilation = 1, 1; groups }) (x :: w :: Option.to_list b)

let pool ?(stride = 1, 1) ?(pads = 0, 0, 0, 0) make x =
  run1 (make { Op.kernel = 2, 2; pool_stride = stride; pool_pads = pads }) [ x ]

let check_tensor msg expected actual =
  if not (Tensor.approx_equal expected actual) then
    Alcotest.failf "%s: expected %s, got %s" msg (Tensor.to_string expected)
      (Tensor.to_string actual)

let test_creation () =
  let t = Tensor.zeros Tensor.F32 [ 2; 3 ] in
  Alcotest.(check int) "numel" 6 (Tensor.numel t);
  Alcotest.(check int) "rank" 2 (Tensor.rank t);
  Alcotest.(check int) "bytes" 24 (Tensor.byte_size t);
  Alcotest.check_raises "size mismatch" (Invalid_argument "Tensor: shape wants 4 elements, data has 3")
    (fun () -> ignore (Tensor.create_f [ 2; 2 ] [| 1.; 2.; 3. |]));
  let s = Tensor.scalar_f 3.5 in
  Alcotest.(check int) "scalar rank" 0 (Tensor.rank s)

let test_indexing () =
  let t = t_f [ 2; 3 ] [ 0.; 1.; 2.; 3.; 4.; 5. ] in
  Alcotest.(check (float 0.0)) "get" 5.0 (Tensor.get_f t [| 1; 2 |]);
  Alcotest.(check (list int)) "strides" [ 3; 1 ] (Array.to_list (Tensor.strides t));
  Alcotest.(check int) "ravel" 5 (Tensor.ravel [| 2; 3 |] [| 1; 2 |]);
  Alcotest.(check (list int)) "unravel" [ 1; 2 ] (Array.to_list (Tensor.unravel [| 2; 3 |] 5))

let test_broadcast () =
  let a = t_f [ 2; 1 ] [ 1.; 2. ] in
  let b = t_f [ 1; 3 ] [ 10.; 20.; 30. ] in
  let s = Tensor.map2 ( +. ) a b in
  check_tensor "outer add" (t_f [ 2; 3 ] [ 11.; 21.; 31.; 12.; 22.; 32. ]) s;
  let bt = Tensor.broadcast_to a [ 2; 3 ] in
  check_tensor "broadcast_to" (t_f [ 2; 3 ] [ 1.; 1.; 1.; 2.; 2.; 2. ]) bt;
  Alcotest.check_raises "incompatible"
    (Invalid_argument "Tensor.broadcast_dims: 2 vs 3 at axis 0") (fun () ->
      ignore (Tensor.broadcast_dims [| 2 |] [| 3 |]))

let test_matmul () =
  let a = t_f [ 2; 3 ] [ 1.; 2.; 3.; 4.; 5.; 6. ] in
  let b = t_f [ 3; 2 ] [ 7.; 8.; 9.; 10.; 11.; 12. ] in
  check_tensor "2x3 @ 3x2" (t_f [ 2; 2 ] [ 58.; 64.; 139.; 154. ]) (run1 Op.MatMul [ a; b ]);
  (* batched with broadcast *)
  let a3 = Tensor.reshape (Tensor.broadcast_to (Tensor.reshape a [ 1; 2; 3 ]) [ 4; 2; 3 ]) [ 4; 2; 3 ] in
  let out = run1 Op.MatMul [ a3; b ] in
  Alcotest.(check (list int)) "batched dims" [ 4; 2; 2 ] (Tensor.dims out);
  (* 1-d promotion *)
  let v = t_f [ 3 ] [ 1.; 0.; 1. ] in
  check_tensor "mat @ vec" (t_f [ 2 ] [ 4.; 10. ]) (run1 Op.MatMul [ a; v ]);
  check_tensor "vec @ mat" (t_f [ 2 ] [ 18.; 20. ]) (run1 Op.MatMul [ v; b ])

let test_gemm () =
  let a = t_f [ 2; 2 ] [ 1.; 2.; 3.; 4. ] in
  let b = t_f [ 2; 2 ] [ 5.; 6.; 7.; 8. ] in
  let c = t_f [ 2 ] [ 100.; 200. ] in
  check_tensor "alpha/beta/bias"
    (t_f [ 2; 2 ] [ 138.; 244.; 186.; 300. ])
    (run1 (Op.Gemm { alpha = 2.0; beta = 1.0; trans_a = false; trans_b = false }) [ a; b; c ]);
  check_tensor "trans_b"
    (t_f [ 2; 2 ] [ 17.; 23.; 39.; 53. ])
    (run1 (Op.Gemm { alpha = 1.0; beta = 1.0; trans_a = false; trans_b = true }) [ a; b ])

let test_conv2d () =
  (* 1x1x3x3 input, 1x1x2x2 kernel of ones: sliding sums *)
  let x = t_f [ 1; 1; 3; 3 ] [ 1.; 2.; 3.; 4.; 5.; 6.; 7.; 8.; 9. ] in
  let w = Tensor.full_f [ 1; 1; 2; 2 ] 1.0 in
  check_tensor "valid conv"
    (t_f [ 1; 1; 2; 2 ] [ 12.; 16.; 24.; 28. ])
    (conv x w None);
  (* stride 2, pad 1 *)
  let out = conv ~stride:(2, 2) ~pads:(1, 1, 1, 1) x w None in
  check_tensor "strided padded"
    (t_f [ 1; 1; 2; 2 ] [ 1.; 5.; 11.; 28. ])
    out;
  (* bias and channels *)
  let x2 = Tensor.full_f [ 1; 2; 2; 2 ] 1.0 in
  let w2 = Tensor.full_f [ 3; 2; 1; 1 ] 1.0 in
  let b = t_f [ 3 ] [ 0.; 10.; 20. ] in
  let out = conv x2 w2 (Some b) in
  Alcotest.(check (list int)) "dims" [ 1; 3; 2; 2 ] (Tensor.dims out);
  Alcotest.(check (float 1e-6)) "bias applied" 12.0 (Tensor.get_f out [| 0; 1; 0; 0 |]);
  (* grouped = depthwise *)
  let wd = Tensor.full_f [ 2; 1; 1; 1 ] 2.0 in
  let out = conv ~groups:2 x2 wd None in
  Alcotest.(check (float 1e-6)) "depthwise" 2.0 (Tensor.get_f out [| 0; 1; 1; 1 |])

let test_conv1d () =
  let x = t_f [ 1; 1; 4 ] [ 1.; 2.; 3.; 4. ] in
  let w = Tensor.full_f [ 1; 1; 2 ] 1.0 in
  let out = run1 (Op.Conv1d { stride1 = 1; pads1 = 0, 0; dilation1 = 1; groups1 = 1 }) [ x; w ] in
  Alcotest.(check (list int)) "dims" [ 1; 1; 3 ] (Tensor.dims out);
  Alcotest.(check (float 1e-6)) "sliding sum" 5.0 (Tensor.get_f out [| 0; 0; 1 |])

let test_pooling () =
  let x = t_f [ 1; 1; 2; 2 ] [ 1.; 2.; 3.; 4. ] in
  check_tensor "max" (t_f [ 1; 1; 1; 1 ] [ 4. ]) (pool (fun a -> Op.MaxPool a) x);
  check_tensor "avg" (t_f [ 1; 1; 1; 1 ] [ 2.5 ]) (pool (fun a -> Op.AveragePool a) x);
  (* padding excluded from the average divisor *)
  let out = pool ~stride:(2, 2) ~pads:(1, 1, 0, 0) (fun a -> Op.AveragePool a) x in
  Alcotest.(check (float 1e-6)) "count_include_pad=0" 1.0 (Tensor.get_f out [| 0; 0; 0; 0 |]);
  check_tensor "global"
    (t_f [ 1; 1; 1; 1 ] [ 2.5 ])
    (run1 Op.GlobalAveragePool [ x ])

let test_reductions () =
  let x = t_f [ 2; 3 ] [ 1.; 2.; 3.; 4.; 5.; 6. ] in
  check_tensor "sum axis1 keep" (t_f [ 2; 1 ] [ 6.; 15. ])
    (Reduction.reduce Reduction.Sum x ~axes:[ 1 ] ~keepdims:true);
  check_tensor "mean axis0" (t_f [ 3 ] [ 2.5; 3.5; 4.5 ])
    (Reduction.reduce Reduction.Mean x ~axes:[ 0 ] ~keepdims:false);
  check_tensor "max all" (Tensor.scalar_f 6.)
    (Reduction.reduce Reduction.Max x ~axes:[] ~keepdims:false);
  check_tensor "prod axis1" (t_f [ 2 ] [ 6.; 120. ])
    (Reduction.reduce Reduction.Prod x ~axes:[ 1 ] ~keepdims:false);
  Alcotest.(check (list int)) "argmax" [ 2; 2 ]
    (Tensor.to_int_list (Reduction.argmax x ~axis:1 ~keepdims:false));
  Alcotest.(check (list int)) "argmin axis0" [ 0; 0; 0 ]
    (Tensor.to_int_list (Reduction.argmin x ~axis:0 ~keepdims:false))

let test_softmax_norms () =
  let x = t_f [ 2; 3 ] [ 1.; 2.; 3.; 1.; 1.; 1. ] in
  let s = run1 (Op.Softmax { axis = 1 }) [ x ] in
  let sums = Reduction.reduce Reduction.Sum s ~axes:[ 1 ] ~keepdims:false in
  check_tensor "softmax sums to 1" (t_f [ 2 ] [ 1.; 1. ]) sums;
  Alcotest.(check (float 1e-5)) "uniform row" (1.0 /. 3.0) (Tensor.get_f s [| 1; 0 |]);
  (* layer norm: zero mean, unit variance before affine *)
  let g = Tensor.full_f [ 3 ] 1.0 and be = Tensor.full_f [ 3 ] 0.0 in
  let ln = run1 (Op.LayerNorm { eps = 1e-9 }) [ x; g; be ] in
  let m = Reduction.reduce Reduction.Mean ln ~axes:[ 1 ] ~keepdims:false in
  Alcotest.(check (float 1e-4)) "ln mean 0" 0.0 (Tensor.get_f m [| 0 |]);
  (* batch norm with identity stats is identity *)
  let x4 = Tensor.reshape x [ 1; 2; 3; 1 ] in
  let ones = Tensor.full_f [ 2 ] 1.0 and zeros = Tensor.full_f [ 2 ] 0.0 in
  let bn =
    List.hd
      (Sod2_runtime.Kernels.run (Op.BatchNorm { eps = 0.0 }) [ x4; ones; zeros; zeros; ones ])
  in
  check_tensor "bn identity" x4 bn

let test_transpose () =
  let x = t_f [ 2; 3 ] [ 1.; 2.; 3.; 4.; 5.; 6. ] in
  check_tensor "transpose" (t_f [ 3; 2 ] [ 1.; 4.; 2.; 5.; 3.; 6. ])
    (Transform.transpose x [ 1; 0 ]);
  let x3 = Tensor.reshape x [ 1; 2; 3 ] in
  let r = Transform.transpose (Transform.transpose x3 [ 2; 0; 1 ]) [ 1; 2; 0 ] in
  check_tensor "roundtrip" x3 r

let test_slice () =
  let x = t_f [ 3; 4 ] (List.init 12 float_of_int) in
  let s = Transform.slice x ~starts:[ 1 ] ~ends:[ 3 ] ~axes:[ 0 ] () in
  check_tensor "rows 1..2" (t_f [ 2; 4 ] (List.init 8 (fun i -> float_of_int (i + 4)))) s;
  let s = Transform.slice x ~starts:[ -2 ] ~ends:[ 1000 ] ~axes:[ 1 ] () in
  Alcotest.(check (list int)) "negative start clamps" [ 3; 2 ] (Tensor.dims s);
  let s = Transform.slice x ~starts:[ 0 ] ~ends:[ 4 ] ~axes:[ 1 ] ~steps:[ 2 ] () in
  check_tensor "step 2 row0" (t_f [ 3; 2 ] [ 0.; 2.; 4.; 6.; 8.; 10. ]) s

let test_concat_split () =
  let a = t_f [ 1; 2 ] [ 1.; 2. ] and b = t_f [ 1; 2 ] [ 3.; 4. ] in
  let c = Transform.concat [ a; b ] ~axis:0 in
  check_tensor "concat" (t_f [ 2; 2 ] [ 1.; 2.; 3.; 4. ]) c;
  (match Transform.split c ~axis:0 ~sizes:[ 1; 1 ] with
  | [ x; y ] ->
    check_tensor "split0" a x;
    check_tensor "split1" b y
  | _ -> Alcotest.fail "split arity")

let test_gather () =
  let table = t_f [ 4; 2 ] [ 0.; 1.; 10.; 11.; 20.; 21.; 30.; 31. ] in
  let ix = Tensor.of_int_list [ 2; 0 ] in
  check_tensor "gather rows" (t_f [ 2; 2 ] [ 20.; 21.; 0.; 1. ])
    (Transform.gather table ~indices:ix ~axis:0);
  (* negative index *)
  let ix = Tensor.of_int_list [ -1 ] in
  check_tensor "negative" (t_f [ 1; 2 ] [ 30.; 31. ])
    (Transform.gather table ~indices:ix ~axis:0);
  (* 2-d indices produce higher rank *)
  let ix = Tensor.create_i [ 1; 2 ] [| 1; 3 |] in
  Alcotest.(check (list int)) "rank" [ 1; 2; 2 ]
    (Tensor.dims (Transform.gather table ~indices:ix ~axis:0));
  (* float data runs the destination kernel: the same rows, and an
     index outside the axis is refused *)
  let gather axis ix = List.hd (Sod2_runtime.Kernels.run (Op.Gather { axis }) [ table; ix ]) in
  List.iter
    (fun (axis, ix) ->
      check_tensor "kernel" (Transform.gather table ~indices:ix ~axis) (gather axis ix))
    [ 0, Tensor.create_i [ 1; 2 ] [| 1; 3 |]; 0, Tensor.of_int_list [ -1; 0 ];
      1, Tensor.of_int_list [ 1; 1; 0 ] ];
  match gather 0 (Tensor.of_int_list [ 4 ]) with
  | exception Sod2_error.Error { cls = Sod2_error.Shape_mismatch; _ } -> ()
  | _ -> Alcotest.fail "an index outside the axis was read"

let test_pad_tile_resize () =
  let x = t_f [ 1; 2 ] [ 1.; 2. ] in
  check_tensor "pad" (t_f [ 1; 4 ] [ 9.; 1.; 2.; 9. ])
    (Transform.pad x ~before:[ 0; 1 ] ~after:[ 0; 1 ] ~value:9.0);
  check_tensor "tile" (t_f [ 1; 4 ] [ 1.; 2.; 1.; 2. ]) (Transform.tile x ~repeats:[ 1; 2 ]);
  let img = Tensor.reshape (t_f [ 4 ] [ 1.; 2.; 3.; 4. ]) [ 1; 1; 2; 2 ] in
  let up =
    List.hd
      (Sod2_runtime.Kernels.run (Op.Resize Op.Nearest) [ img; Tensor.of_int_list [ 4; 4 ] ])
  in
  Alcotest.(check (list int)) "resize dims" [ 1; 1; 4; 4 ] (Tensor.dims up);
  Alcotest.(check (float 1e-6)) "corner" 4.0 (Tensor.get_f up [| 0; 0; 3; 3 |])

let test_where_onehot_range () =
  let c = Tensor.create_i [ 3 ] [| 1; 0; 1 |] in
  let a = t_f [ 3 ] [ 1.; 2.; 3. ] and b = t_f [ 3 ] [ 9.; 9.; 9. ] in
  check_tensor "where" (t_f [ 3 ] [ 1.; 9.; 3. ]) (Transform.where c a b);
  let oh = Transform.one_hot (Tensor.of_int_list [ 2; 0 ]) ~depth:3 in
  check_tensor "one hot" (t_f [ 2; 3 ] [ 0.; 0.; 1.; 1.; 0.; 0. ]) oh;
  Alcotest.(check (list int)) "range" [ 3; 5; 7 ]
    (Tensor.to_int_list (Transform.range ~start:3 ~limit:9 ~delta:2))

let test_topk_nonzero_cumsum () =
  let x = t_f [ 5 ] [ 3.; 1.; 4.; 1.; 5. ] in
  let values, indices = Reduction.top_k x ~k:2 ~axis:0 ~largest:true in
  check_tensor "topk values" (t_f [ 2 ] [ 5.; 4. ]) values;
  Alcotest.(check (list int)) "topk indices" [ 4; 2 ] (Tensor.to_int_list indices);
  let nz = Reduction.nonzero (t_f [ 2; 2 ] [ 0.; 7.; 0.; 8. ]) in
  Alcotest.(check (list int)) "nonzero dims" [ 2; 2 ] (Tensor.dims nz);
  Alcotest.(check (list int)) "nonzero coords" [ 0; 1; 1; 1 ] (Tensor.to_int_list nz);
  check_tensor "cumsum" (t_f [ 4 ] [ 1.; 3.; 6.; 10. ])
    (Reduction.cumsum (t_f [ 4 ] [ 1.; 2.; 3.; 4. ]) ~axis:0)

let test_depth_space () =
  let rng = Rng.create 3 in
  let x = Tensor.rand_uniform rng [ 1; 8; 2; 2 ] in
  let d = Transform.depth_to_space x ~block:2 in
  Alcotest.(check (list int)) "d2s dims" [ 1; 2; 4; 4 ] (Tensor.dims d);
  check_tensor "s2d inverts d2s" x (Transform.space_to_depth d ~block:2)

let test_cast_int () =
  let x = Tensor.of_int_list [ 1; 2; 3 ] in
  let f = Tensor.cast x Tensor.F32 in
  Alcotest.(check (float 0.)) "cast to float" 2.0 (Tensor.get_f f [| 1 |]);
  let back = Tensor.cast f Tensor.I64 in
  Alcotest.(check bool) "roundtrip" true (Tensor.equal x back)

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let small_dims = QCheck2.Gen.(list_size (int_range 1 3) (int_range 1 4))

let prop_transpose_involution =
  QCheck2.Test.make ~name:"reversing transpose twice is identity" ~count:100
    QCheck2.Gen.(tup2 small_dims (int_range 0 1000))
    (fun (dims, seed) ->
      let rng = Rng.create seed in
      let t = Tensor.rand_uniform rng dims in
      let r = List.length dims in
      let perm = List.init r (fun i -> r - 1 - i) in
      let back = Transform.transpose (Transform.transpose t perm) perm in
      Tensor.approx_equal t back)

let prop_concat_split_roundtrip =
  QCheck2.Test.make ~name:"split inverts concat" ~count:100
    QCheck2.Gen.(tup3 (int_range 1 4) (int_range 1 4) (int_range 0 1000))
    (fun (n1, n2, seed) ->
      let rng = Rng.create seed in
      let a = Tensor.rand_uniform rng [ n1; 3 ] in
      let b = Tensor.rand_uniform rng [ n2; 3 ] in
      match Transform.split (Transform.concat [ a; b ] ~axis:0) ~axis:0 ~sizes:[ n1; n2 ] with
      | [ x; y ] -> Tensor.approx_equal a x && Tensor.approx_equal b y
      | _ -> false)

let prop_reduce_sum_total =
  QCheck2.Test.make ~name:"axis-wise sums compose to the total sum" ~count:100
    QCheck2.Gen.(tup3 (int_range 1 4) (int_range 1 4) (int_range 0 1000))
    (fun (n1, n2, seed) ->
      let rng = Rng.create seed in
      let t = Tensor.rand_uniform rng [ n1; n2 ] in
      let total = Reduction.reduce Reduction.Sum t ~axes:[] ~keepdims:false in
      let byrows =
        Reduction.reduce Reduction.Sum
          (Reduction.reduce Reduction.Sum t ~axes:[ 1 ] ~keepdims:false)
          ~axes:[] ~keepdims:false
      in
      Tensor.approx_equal ~eps:1e-4 total byrows)

let prop_broadcast_commutes =
  QCheck2.Test.make ~name:"broadcast add commutes" ~count:100
    QCheck2.Gen.(tup2 (int_range 1 4) (int_range 0 1000))
    (fun (n, seed) ->
      let rng = Rng.create seed in
      let a = Tensor.rand_uniform rng [ n; 1 ] in
      let b = Tensor.rand_uniform rng [ 1; n ] in
      Tensor.approx_equal (Tensor.map2 ( +. ) a b) (Tensor.map2 ( +. ) b a))

let prop_matmul_identity =
  QCheck2.Test.make ~name:"matmul with identity matrix" ~count:50
    QCheck2.Gen.(tup2 (int_range 1 5) (int_range 0 1000))
    (fun (n, seed) ->
      let rng = Rng.create seed in
      let a = Tensor.rand_uniform rng [ n; n ] in
      let id = Tensor.init_f [ n; n ] (fun ix -> if ix.(0) = ix.(1) then 1.0 else 0.0) in
      Tensor.approx_equal a (run1 Op.MatMul [ a; id ])
      && Tensor.approx_equal a (run1 Op.MatMul [ id; a ]))

(* Equal infinities and matching NaNs agree; a one-sided NaN or
   infinity does not, however large the finite side. *)
let test_approx_nonfinite () =
  let t = t_f [ 4 ] [ infinity; neg_infinity; nan; 1.0 ] in
  let agree want what other =
    Alcotest.(check bool) what want (Tensor.approx_equal t (t_f [ 4 ] other))
  in
  agree true "itself" [ infinity; neg_infinity; nan; 1.0 ];
  agree false "one-sided nan" [ infinity; neg_infinity; 0.0; 1.0 ];
  agree false "infinity vs finite" [ 1e30; neg_infinity; nan; 1.0 ];
  agree false "opposite infinities" [ neg_infinity; neg_infinity; nan; 1.0 ]

let suite =
  [
    Alcotest.test_case "creation" `Quick test_creation;
    Alcotest.test_case "indexing" `Quick test_indexing;
    Alcotest.test_case "broadcast" `Quick test_broadcast;
    Alcotest.test_case "matmul" `Quick test_matmul;
    Alcotest.test_case "gemm" `Quick test_gemm;
    Alcotest.test_case "conv2d" `Quick test_conv2d;
    Alcotest.test_case "conv1d" `Quick test_conv1d;
    Alcotest.test_case "pooling" `Quick test_pooling;
    Alcotest.test_case "reductions" `Quick test_reductions;
    Alcotest.test_case "softmax and norms" `Quick test_softmax_norms;
    Alcotest.test_case "transpose" `Quick test_transpose;
    Alcotest.test_case "slice" `Quick test_slice;
    Alcotest.test_case "concat/split" `Quick test_concat_split;
    Alcotest.test_case "gather" `Quick test_gather;
    Alcotest.test_case "pad/tile/resize" `Quick test_pad_tile_resize;
    Alcotest.test_case "where/onehot/range" `Quick test_where_onehot_range;
    Alcotest.test_case "topk/nonzero/cumsum" `Quick test_topk_nonzero_cumsum;
    Alcotest.test_case "depth<->space" `Quick test_depth_space;
    Alcotest.test_case "casting" `Quick test_cast_int;
    Alcotest.test_case "approx_equal: non-finite values" `Quick test_approx_nonfinite;
    QCheck_alcotest.to_alcotest prop_transpose_involution;
    QCheck_alcotest.to_alcotest prop_concat_split_roundtrip;
    QCheck_alcotest.to_alcotest prop_reduce_sum_total;
    QCheck_alcotest.to_alcotest prop_broadcast_commutes;
    QCheck_alcotest.to_alcotest prop_matmul_identity;
  ]
