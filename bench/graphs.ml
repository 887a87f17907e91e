(* The synthetic graphs the suites time. *)

module B = Graph.Builder

let rand_const b rng name ?(f = Fun.id) dims =
  B.const b ~name (Tensor.map_f f (Tensor.rand_uniform rng dims))

(* An 8-op pointwise chain: every intermediate is fusion-internal, so the
   fused kernel touches memory once instead of eight times. *)
let pointwise_chain dims =
  let b = B.create () in
  let x = B.input b ~name:"x" (Shape.of_ints dims) in
  let s = B.node1 b (Op.Unary Op.Sigmoid) [ x ] in
  let m = B.node1 b (Op.Binary Op.Mul) [ s; x ] in
  let ge = B.node1 b (Op.Unary Op.Gelu) [ m ] in
  let cl = B.node1 b (Op.Clip (0.05, 0.95)) [ ge ] in
  let th = B.node1 b (Op.Unary Op.Tanh) [ cl ] in
  let sq = B.node1 b (Op.Binary Op.Mul) [ th; th ] in
  let ad = B.node1 b (Op.Binary Op.Add) [ sq; x ] in
  B.set_outputs b [ B.node1 b (Op.Unary Op.Relu) [ ad ] ];
  B.finish b

let conv_bn_relu () =
  let b = B.create () and rng = Rng.create 23 in
  let x = B.input b ~name:"x" (Shape.of_ints [ 1; 32; 28; 28 ]) in
  let w = rand_const b rng "w" [ 64; 32; 3; 3 ] in
  let c = rand_const b rng in
  let bias = c "bias" [ 64 ] in
  let scale = c "scale" [ 64 ] in
  let bn_b = c "bn_b" [ 64 ] in
  let mean = c "mean" [ 64 ] in
  let var = c "var" ~f:(fun v -> v +. 0.5) [ 64 ] in
  let conv =
    B.node1 b
      (Op.Conv { stride = 1, 1; pads = 1, 1, 1, 1; dilation = 1, 1; groups = 1 })
      [ x; w; bias ]
  in
  let bn = B.node1 b (Op.BatchNorm { eps = 1e-5 }) [ conv; scale; bn_b; mean; var ] in
  B.set_outputs b [ B.node1 b (Op.Unary Op.Relu) [ bn ] ];
  B.finish b

let matmul_bias_gelu () =
  let b = B.create () and rng = Rng.create 29 in
  let x = B.input b ~name:"x" (Shape.of_ints [ 128; 256 ]) in
  let w = rand_const b rng "w" [ 256; 256 ] in
  let bias = rand_const b rng "bias" [ 256 ] in
  let mm = B.node1 b Op.MatMul [ x; w ] in
  let ad = B.node1 b (Op.Binary Op.Add) [ mm; bias ] in
  B.set_outputs b [ B.node1 b (Op.Unary Op.Gelu) [ ad ] ];
  B.finish b

(* Memory-bound ladder: each layer is Add then Mul, both reading the
   layer input, so fusion cannot melt a layer into its predecessor and
   every boundary gets an arena slot.  What destination passing removes
   (allocating, zero-filling and collecting one tensor per layer) is the
   dominant malloc-mode cost. *)
let ladder ~layers dims =
  let b = B.create () in
  let x = B.input b ~name:"x" (Shape.of_ints dims) in
  let c = rand_const b (Rng.create 11) "c" ~f:(fun v -> (0.2 *. v) +. 1.0) dims in
  let z = ref x in
  for _ = 1 to layers do
    let a = B.node1 b (Op.Binary Op.Add) [ !z; c ] in
    z := B.node1 b (Op.Binary Op.Mul) [ !z; a ]
  done;
  B.set_outputs b [ !z ];
  B.finish b

(* The recurrence a_j = a_{j-1} - a_{j-2} from [prev], [cur] over
   [steps] more Subs.  Every stream tensor has two consumers, so fusion
   forms no group and each step is an arena-planned destination kernel;
   the recurrence has period 6, so values stay bounded. *)
let sub_recurrence b ~steps prev cur =
  let prev = ref prev and cur = ref cur in
  for _ = 1 to steps do
    let nxt = B.node1 b (Op.Binary Op.Sub) [ !cur; !prev ] in
    prev := !cur;
    cur := nxt
  done;
  !prev, !cur

(* Low-arithmetic-intensity conv stream: each layer is a shallow 1x1
   convolution feeding a [subs]-step recurrence.  Feeding the previous
   layer's second-to-last value into this layer's first Sub gives every
   stream tensor but the final pair a second consumer. *)
let conv_stream ~layers ~subs ~ch ~hw =
  let b = B.create () and rng = Rng.create 23 in
  let x = B.input b ~name:"x" (Shape.of_ints [ 1; ch; hw; hw ]) in
  let p = ref x and q = ref x in
  for i = 1 to layers do
    let scale v = (v -. 0.5) /. float_of_int ch in
    let w = rand_const b rng (Printf.sprintf "w%d" i) ~f:scale [ ch; ch; 1; 1 ] in
    let bias = rand_const b rng (Printf.sprintf "cb%d" i) [ ch ] in
    let conv =
      B.node1 b
        (Op.Conv { stride = 1, 1; pads = 0, 0, 0, 0; dilation = 1, 1; groups = 1 })
        [ !p; w; bias ]
    in
    let first = B.node1 b (Op.Binary Op.Sub) [ conv; !q ] in
    let prev, cur = sub_recurrence b ~steps:(subs - 1) conv first in
    p := cur;
    q := prev
  done;
  B.set_outputs b [ !p ];
  B.finish b

(* A pure Sub recurrence over input [shape], with a constant of
   [const_dims] broadcast into its first step.  A symbolic [shape] gives
   requests different bindings for the per-binding plan cache. *)
let sub_stream ~steps shape const_dims =
  let b = B.create () in
  let x = B.input b ~name:"x" shape in
  let c = rand_const b (Rng.create 17) "c" ~f:(fun v -> 0.5 *. v) const_dims in
  let _, out = sub_recurrence b ~steps:(steps - 1) x (B.node1 b (Op.Binary Op.Sub) [ x; c ]) in
  B.set_outputs b [ out ];
  B.finish b
