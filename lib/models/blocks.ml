type t = {
  b : Graph.Builder.t;
  rng : Rng.t;
  mutable counter : int;
}

let create ~seed = { b = Graph.Builder.create (); rng = Rng.create seed; counter = 0 }
let builder t = t.b

let fresh t prefix =
  t.counter <- t.counter + 1;
  Printf.sprintf "%s_%d" prefix t.counter

let finish t ~outputs =
  Graph.Builder.set_outputs t.b outputs;
  Graph.Builder.finish t.b

let input t ~name shape = Graph.Builder.input t.b ~name shape

let weight t dims =
  Graph.Builder.const t.b ~name:(fresh t "w")
    (Tensor.rand_normal t.rng ~stddev:0.05 dims)

let const_ints t l = Graph.Builder.const t.b ~name:(fresh t "c") (Tensor.of_int_list l)
let scalar_i t v = Graph.Builder.const t.b ~name:(fresh t "s") (Tensor.scalar_i v)

let node1 t op inputs = Graph.Builder.node1 t.b ~name:(fresh t (Op.name op)) op inputs
let op1 = node1

let conv2d t ?(stride = 1) ?(pad = 0) ?(groups = 1) ?(bias = true) x ~cin ~cout ~k =
  let w = weight t [ cout; cin / groups; k; k ] in
  let inputs =
    if bias then [ x; w; weight t [ cout ] ] else [ x; w ]
  in
  node1 t
    (Op.Conv { stride = (stride, stride); pads = (pad, pad, pad, pad);
               dilation = (1, 1); groups })
    inputs

let conv1d t ?(stride = 1) ?(pad = 0) ?(groups = 1) x ~cin ~cout ~k =
  let w = weight t [ cout; cin / groups; k ] in
  node1 t
    (Op.Conv1d { stride1 = stride; pads1 = (pad, pad); dilation1 = 1; groups1 = groups })
    [ x; w; weight t [ cout ] ]

let batch_norm t x ~channels =
  let ones = Graph.Builder.const t.b ~name:(fresh t "bn_s") (Tensor.full_f [ channels ] 1.0) in
  let zeros = Graph.Builder.const t.b ~name:(fresh t "bn_b") (Tensor.full_f [ channels ] 0.0) in
  let mean = Graph.Builder.const t.b ~name:(fresh t "bn_m") (Tensor.full_f [ channels ] 0.0) in
  let var = Graph.Builder.const t.b ~name:(fresh t "bn_v") (Tensor.full_f [ channels ] 1.0) in
  node1 t (Op.BatchNorm { eps = 1e-5 }) [ x; ones; zeros; mean; var ]

let group_norm t x ~channels ~groups =
  let gamma = Graph.Builder.const t.b ~name:(fresh t "gn_g") (Tensor.full_f [ channels ] 1.0) in
  let beta = Graph.Builder.const t.b ~name:(fresh t "gn_b") (Tensor.full_f [ channels ] 0.0) in
  node1 t (Op.GroupNorm { num_groups = groups; eps = 1e-5 }) [ x; gamma; beta ]

let layer_norm t x ~dim =
  let gamma = Graph.Builder.const t.b ~name:(fresh t "ln_g") (Tensor.full_f [ dim ] 1.0) in
  let beta = Graph.Builder.const t.b ~name:(fresh t "ln_b") (Tensor.full_f [ dim ] 0.0) in
  node1 t (Op.LayerNorm { eps = 1e-5 }) [ x; gamma; beta ]

let relu t x = node1 t (Op.Unary Op.Relu) [ x ]
let sigmoid t x = node1 t (Op.Unary Op.Sigmoid) [ x ]
let gelu t x = node1 t (Op.Unary Op.Gelu) [ x ]
let add t a b = node1 t (Op.Binary Op.Add) [ a; b ]
let mul t a b = node1 t (Op.Binary Op.Mul) [ a; b ]
let silu t x = mul t x (sigmoid t x)
let softmax t ?(axis = -1) x = node1 t (Op.Softmax { axis }) [ x ]

let max_pool t ?(stride = 2) ?(pad = 0) ~k x =
  node1 t
    (Op.MaxPool
       { kernel = (k, k); pool_stride = (stride, stride); pool_pads = (pad, pad, pad, pad) })
    [ x ]

let global_pool t x = node1 t Op.GlobalAveragePool [ x ]

let linear t x ~cin ~cout =
  let w = weight t [ cin; cout ] in
  let y = node1 t Op.MatMul [ x; w ] in
  add t y (weight t [ cout ])

let conv_bn_act t ?(stride = 1) ?(pad = 0) ?(act = `Relu) x ~cin ~cout ~k =
  let y = conv2d t ~stride ~pad ~bias:false x ~cin ~cout ~k in
  let y = batch_norm t y ~channels:cout in
  match act with
  | `Relu -> relu t y
  | `Silu -> silu t y
  | `None -> y

let residual_block t ?(stride = 1) x ~cin ~cout =
  let y = conv_bn_act t ~stride ~pad:1 x ~cin ~cout ~k:3 in
  let y = conv_bn_act t ~pad:1 ~act:`None y ~cin:cout ~cout ~k:3 in
  let shortcut =
    if stride = 1 && cin = cout then x
    else conv_bn_act t ~stride ~act:`None x ~cin ~cout ~k:1
  in
  relu t (add t y shortcut)

let shape_dim t x i =
  let s = node1 t Op.ShapeOf [ x ] in
  node1 t (Op.Gather { axis = 0 }) [ s; const_ints t [ i ] ]

let reshape_concat t x ~pieces =
  let target = node1 t (Op.Concat { axis = 0 }) pieces in
  node1 t Op.Reshape [ x; target ]

let transpose t x perm = node1 t (Op.Transpose perm) [ x ]

(* Self-attention over [1 × S × hidden]; the sequence extent S is read back
   with Shape operators, as ONNX transformer exports do. *)
let mha t x ~hidden ~heads =
  let dk = hidden / heads in
  let seq = shape_dim t x 1 in
  let q = linear t x ~cin:hidden ~cout:hidden in
  let k = linear t x ~cin:hidden ~cout:hidden in
  let v = linear t x ~cin:hidden ~cout:hidden in
  let split_heads y =
    (* [1, S, H] -> [1, S, h, dk] -> [1, h, S, dk] *)
    let y =
      reshape_concat t y
        ~pieces:[ const_ints t [ 1 ]; seq; const_ints t [ heads; dk ] ]
    in
    transpose t y [ 0; 2; 1; 3 ]
  in
  let q = split_heads q and k = split_heads k and v = split_heads v in
  let kt = transpose t k [ 0; 1; 3; 2 ] in
  let scores = node1 t Op.MatMul [ q; kt ] in
  let scale =
    Graph.Builder.const t.b ~name:(fresh t "scale")
      (Tensor.scalar_f (1.0 /. sqrt (float_of_int dk)))
  in
  let scores = mul t scores scale in
  let probs = softmax t scores in
  let ctx = node1 t Op.MatMul [ probs; v ] in
  let ctx = transpose t ctx [ 0; 2; 1; 3 ] in
  let ctx =
    reshape_concat t ctx ~pieces:[ const_ints t [ 1 ]; seq; const_ints t [ hidden ] ]
  in
  linear t ctx ~cin:hidden ~cout:hidden

let ffn t x ~hidden ~inner =
  let y = linear t x ~cin:hidden ~cout:inner in
  let y = gelu t y in
  linear t y ~cin:inner ~cout:hidden

let transformer_block t x ~hidden ~heads ~inner =
  let y = layer_norm t x ~dim:hidden in
  let y = mha t y ~hidden ~heads in
  let x = add t x y in
  let y = layer_norm t x ~dim:hidden in
  let y = ffn t y ~hidden ~inner in
  add t x y

let gate_pred t x ~channels ~branches =
  let y = global_pool t x in
  let y = node1 t (Op.Flatten { axis = 1 }) [ y ] in
  let y = linear t y ~cin:channels ~cout:branches in
  node1 t (Op.ArgMax { axis = 1; keepdims = false }) [ y ]

let gated2 t ~pred x f0 f1 =
  match Graph.Builder.node t.b ~name:(fresh t "Switch") (Op.Switch { branches = 2 }) [ x; pred ] with
  | [ o0; o1 ] ->
    let r0 = f0 t o0 in
    let r1 = f1 t o1 in
    node1 t (Op.Combine { branches = 2 }) [ r0; r1; pred ]
  | _ -> assert false

let gated t ~pred x f = gated2 t ~pred x (fun _ o -> o) f
