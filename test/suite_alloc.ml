(* Allocation discipline of the CPU kernels, and the safety of their
   reusable scratch.  After a first call has grown the packing scratch to
   a shape, a second call at that shape must allocate only a constant few
   words — the same at 64³ as at 256³ — so boxing cannot creep back into
   the micro-kernel, the packing or the write-back unnoticed.  Scratch
   travels by take-and-return, so threads sharing a domain and separate
   domains running kernels at once must still get sequential results
   bit-for-bit. *)

module RT = Sod2_runtime

(* Words allocated by [f ()], on either heap.  The minor heap is emptied
   first, so no collection falls inside the window (a collection there
   once added most of a minor heap's worth of words to the count). *)
let alloc_words f =
  Gc.minor ();
  let mi0, pr0, ma0 = Gc.counters () in
  f ();
  let mi1, pr1, ma1 = Gc.counters () in
  int_of_float (mi1 -. mi0 +. (ma1 -. ma0) -. (pr1 -. pr0))

(* Allocation of the second of two identical calls. *)
let steady_alloc f =
  f ();
  alloc_words f

let buf dt rng n =
  Tensor.storage_f (Tensor.cast (Tensor.rand_uniform rng [ max 1 n ]) dt)

let gemm_alloc dt s =
  let rng = Rng.create s in
  let a = buf dt rng (s * s) and b = buf dt rng (s * s) and c = buf dt rng (s * s) in
  steady_alloc (fun () ->
      Blocked.gemm ~m:s ~n:s ~k:s ~a ~ao:0 ~b ~bo:0 ~c ~co:0 ())

(* A 3×3 same-padded conv whose implicit GEMM is [ch × hw² × 9ch]. *)
let conv_alloc dt ~ch ~hw =
  let rng = Rng.create ch in
  let view dims =
    Tensor.view_f (Tensor.cast (Tensor.rand_uniform rng dims) dt)
  in
  let x = view [ 1; ch; hw; hw ] and w = view [ ch; ch; 3; 3 ] and b = view [ ch ] in
  let c = Tensor.fbuf_create dt (ch * hw * hw) in
  steady_alloc (fun () ->
      ignore
        (Blocked.conv2d_im2col_into ~stride:(1, 1) ~pad:(1, 1, 1, 1) ~dilation:(1, 1)
           ~groups:1 x w (Some b) ~c ~co:0))

(* SkipNet's stem, 3→32 7×7/2 with three pixels of padding, whose
   GEMM's B the packer gathers from the image: nothing in between grows
   with it. *)
let stem_alloc dt ~hw =
  let rng = Rng.create hw in
  let view dims = Tensor.view_f (Tensor.cast (Tensor.rand_uniform rng dims) dt) in
  let x = view [ 1; 3; hw; hw ] and w = view [ 32; 3; 7; 7 ] and b = view [ 32 ] in
  let c = Tensor.fbuf_create dt (32 * (hw / 2) * (hw / 2)) in
  steady_alloc (fun () ->
      ignore
        (Blocked.conv2d_im2col_into ~stride:(2, 2) ~pad:(3, 3, 3, 3) ~dilation:(1, 1)
           ~groups:1 x w (Some b) ~c ~co:0))

let check_flat what small large =
  if small <> large || small > 256 then
    Alcotest.failf "%s: %d words at the small shape, %d at the large one" what small
      large

let test_gemm_alloc_flat () =
  List.iter
    (fun dt ->
      check_flat
        ("gemm " ^ Tensor.dtype_name dt)
        (gemm_alloc dt 64) (gemm_alloc dt 256))
    [ Tensor.F32; Tensor.F64 ]

let test_conv_alloc_flat () =
  List.iter
    (fun dt ->
      check_flat
        ("conv " ^ Tensor.dtype_name dt)
        (conv_alloc dt ~ch:8 ~hw:16)
        (conv_alloc dt ~ch:32 ~hw:48))
    [ Tensor.F32; Tensor.F64 ]

let test_stem_conv_alloc_flat () =
  List.iter
    (fun dt ->
      check_flat
        ("stem conv " ^ Tensor.dtype_name dt)
        (stem_alloc dt ~hw:64) (stem_alloc dt ~hw:128))
    [ Tensor.F32; Tensor.F64 ]

(* [reduce] walks the input by stride: its allocation follows the output
   and the rank, not the input. *)
let test_reduce_alloc () =
  let rng = Rng.create 3 in
  let alloc dims axes =
    let t = Tensor.rand_uniform rng dims in
    steady_alloc (fun () ->
        ignore (Reduction.reduce Reduction.Sum t ~axes ~keepdims:false))
  in
  let small = alloc [ 4; 4; 4 ] [ 1 ] and large = alloc [ 4; 256; 4 ] [ 1 ] in
  if small <> large then
    Alcotest.failf "reduce over the middle axis: %d words at 4x4x4, %d at 4x256x4"
      small large;
  let full = alloc [ 64; 64; 64 ] [] in
  if full > 128 then Alcotest.failf "full reduction of 64^3 allocated %d words" full

(* The normalization loops keep every element unboxed: their allocation
   does not grow with the input. *)
let test_norm_alloc () =
  let rng = Rng.create 5 in
  let norm_alloc dims =
    let t = Tensor.rand_uniform rng dims in
    let c = List.nth dims 1 and d = List.nth dims (List.length dims - 1) in
    let vec n = Tensor.rand_uniform rng [ n ] in
    let scale = vec c and bias = vec c and mean = vec c in
    let var = Tensor.map_f Float.abs (vec c) and gamma = vec d and beta = vec d in
    ( steady_alloc (fun () ->
          ignore (RT.Kernels.run (Op.LayerNorm { eps = 1e-5 }) [ t; gamma; beta ])),
      steady_alloc (fun () ->
          ignore (RT.Kernels.run (Op.BatchNorm { eps = 1e-5 }) [ t; scale; bias; mean; var ])),
      steady_alloc (fun () ->
          ignore
            (RT.Kernels.run (Op.GroupNorm { num_groups = 2; eps = 1e-5 }) [ t; scale; bias ])) )
  in
  let ln_small, bn_small, gn_small = norm_alloc [ 1; 4; 8 ] in
  let ln_large, bn_large, gn_large = norm_alloc [ 1; 4; 512 ] in
  if ln_small <> ln_large || bn_small <> bn_large || gn_small <> gn_large then
    Alcotest.failf
      "layer_norm %d vs %d words, batch_norm %d vs %d, group_norm %d vs %d (1x4x8 vs 1x4x512)"
      ln_small ln_large bn_small bn_large gn_small gn_large

(* The executor's destination kernels for the hottest pointwise ops
   write straight into their destination without boxing an element. *)
let test_into_alloc () =
  let rng = Rng.create 8 in
  let alloc op n =
    let x = Tensor.view_f (Tensor.rand_uniform rng [ 2; n ]) in
    let y = Tensor.view_f (Tensor.rand_uniform rng [ 2; n ]) in
    let inputs = match op with Op.Unary _ -> [ x ] | _ -> [ x; y ] in
    let c = Tensor.fbuf_create Tensor.F32 (2 * n) in
    steady_alloc (fun () ->
        ignore (Sod2_runtime.Kernels.run_into op inputs ~dest:(fun _ _ _ -> c, 0)))
  in
  List.iter
    (fun (name, op) ->
      let small = alloc op 8 and large = alloc op 4096 in
      if small <> large then
        Alcotest.failf "%s into a slot: %d words at 2x8, %d at 2x4096" name small large)
    [ "Relu", Op.Unary Op.Relu; "Add", Op.Binary Op.Add; "Mul", Op.Binary Op.Mul ]

(* Nearest resize copies each row along the last axis with a typed loop:
   its allocation follows the rows, not their width. *)
let test_resize_alloc () =
  let rng = Rng.create 8 in
  let alloc n =
    let x = Tensor.view_f (Tensor.rand_uniform rng [ 1; 2; 2; n ]) in
    let c = Tensor.fbuf_create Tensor.F32 (16 * n) in
    steady_alloc (fun () ->
        ignore
          (Sod2_runtime.Kernels.run_into (Op.Upsample { scales = [ 2; 2 ] }) [ x ]
             ~dest:(fun _ _ _ -> c, 0)))
  in
  let small = alloc 8 and large = alloc 4096 in
  if small <> large then
    Alcotest.failf "Upsample into a slot: %d words at 1x2x2x8, %d at 1x2x2x4096" small large

(* Minor and major words of the second of two identical calls, from an
   empty minor heap as in [alloc_words]. *)
let steady_words f =
  f ();
  Gc.minor ();
  let mi0, pr0, ma0 = Gc.counters () in
  f ();
  let mi1, pr1, ma1 = Gc.counters () in
  int_of_float (mi1 -. mi0), int_of_float (ma1 -. ma0 -. (pr1 -. pr0))

(* Activation quantization reads its view in place with the per-tensor
   scale and zero point hoisted out of the element loop: its minor words
   do not grow with the activation. *)
let test_quantize_alloc () =
  let rng = Rng.create 9 in
  let minor dims =
    let v = Tensor.view_f (Tensor.rand_uniform rng dims) in
    fst (steady_words (fun () -> ignore (Quant.quantize_activation v)))
  in
  let small = minor [ 16; 4; 4 ] and large = minor [ 16; 64; 64 ] in
  if small <> large || small > 256 then
    Alcotest.failf "quantize_activation: %d minor words at 16x4x4, %d at 16x64x64" small large

(* The Gemm kernel reads C through its broadcast strides and copies a
   transposed operand into pooled scratch, so nothing it allocates grows
   with its operands: it allocates about what the same-shape MatMul
   does. *)
let test_gemm_into_alloc () =
  let n = 128 and rng = Rng.create 9 in
  let view dims = Tensor.view_f (Tensor.rand_uniform rng dims) in
  let a = view [ n; n ] and b = view [ n; n ] in
  let c = Tensor.fbuf_create Tensor.F32 (n * n) in
  let words op args =
    steady_words (fun () -> ignore (RT.Kernels.run_into op args ~dest:(fun _ _ _ -> c, 0)))
  in
  let mm_minor, mm_major = words Op.MatMul [ a; b ] in
  let gemm trans = Op.Gemm { alpha = 1.0; beta = 1.0; trans_a = trans; trans_b = trans } in
  List.iter
    (fun (what, op, args) ->
      let minor, major = words op args in
      if minor > 2 * mm_minor || major > mm_major then
        Alcotest.failf "%s: %d minor and %d major words against the MatMul's %d and %d" what
          minor major mm_minor mm_major)
    [
      "row C", gemm false, [ a; b; view [ 1; n ] ];
      "column C", gemm false, [ a; b; view [ n; 1 ] ];
      "both operands transposed", gemm true, [ a; b; view [ 1; n ] ];
    ]

(* The int8 conv's dequantizing write-back reads per-channel scale and
   bias arrays in one monomorphic store, so no float is boxed per output
   element: its minor words do not grow with the image. *)
let test_int8_conv_alloc () =
  let rng = Rng.create 12 in
  let w = Tensor.rand_uniform rng [ 16; 16; 3; 3 ] and bias = Tensor.rand_uniform rng [ 16 ] in
  let qw = Quant.quantize w (Quant.choose_per_channel ~axis:0 w) in
  let be = RT.Backend.create ~threads:1 RT.Backend.Blocked in
  let op = Op.Conv { stride = 1, 1; pads = 1, 1, 1, 1; dilation = 1, 1; groups = 1 } in
  let minor hw =
    let x = Tensor.view_f (Tensor.rand_uniform rng [ 1; 16; hw; hw ]) in
    let c = Tensor.fbuf_create Tensor.F32 (16 * hw * hw) in
    fst
      (steady_words (fun () ->
           match
             RT.Kernels.run_into ~backend:be ~int8:qw op [ x; Tensor.view_f w; Tensor.view_f bias ]
               ~dest:(fun _ _ _ -> c, 0)
           with
           | Some _ -> ()
           | None -> Alcotest.fail "no destination kernel for the int8 conv"))
  in
  let small = minor 32 and large = minor 64 in
  if abs (large - small) > 64 then
    Alcotest.failf "int8 conv: %d minor words at 1x16x32x32, %d at 1x16x64x64" small large

(* A warm fused kernel runs its block program over register files taken
   from a pool: its allocation is per call, not per element or block.
   [build n] returns a graph whose one fused group yields [n] elements,
   and its input's dims. *)
let fused_alloc build n =
  let g, dims = build n in
  let c = Sod2.Pipeline.compile Profile.sd888_cpu g in
  let tpl =
    match List.filter_map Fun.id (Array.to_list c.Sod2.Pipeline.fused) with
    | [ t ] -> t
    | ts -> Alcotest.failf "expected one fused template, got %d" (List.length ts)
  in
  (* Slots are the graph input and any weights, in slot order. *)
  let slot tid =
    match Graph.const_value g tid with
    | Some t -> t
    | None -> Tensor.rand_uniform (Rng.create n) dims
  in
  let tensors = Array.map slot tpl.Sod2.Fused_compile.t_slots in
  let args = Array.map (fun t -> Tensor.dims t, Tensor.dtype t) tensors in
  let k =
    match Sod2.Fused_compile.specialize g tpl ~args with
    | Ok k -> k
    | Error e -> Alcotest.failf "specialize: %s" e
  in
  let views = Array.map Tensor.view_f tensors in
  let c = Tensor.fbuf_create Tensor.F32 n in
  steady_alloc (fun () ->
      k.Sod2.Fused_compile.k_run_into ~par:Blocked.sequential views ~c ~co:0)

(* sigmoid → ×x → ×0.5 → gelu → clip over [n/32 × 32]. *)
let chain_graph n =
  let b = Graph.Builder.create () in
  let dims = [ n / 32; 32 ] in
  let x = Graph.Builder.input b ~name:"x" (Shape.of_ints dims) in
  let half = Graph.Builder.const b ~name:"half" (Tensor.scalar_f 0.5) in
  let s = Graph.Builder.node1 b (Op.Unary Op.Sigmoid) [ x ] in
  let m = Graph.Builder.node1 b (Op.Binary Op.Mul) [ s; x ] in
  let m = Graph.Builder.node1 b (Op.Binary Op.Mul) [ m; half ] in
  let ge = Graph.Builder.node1 b (Op.Unary Op.Gelu) [ m ] in
  let cl = Graph.Builder.node1 b (Op.Clip (0.05, 0.95)) [ ge ] in
  Graph.Builder.set_outputs b [ cl ];
  Graph.Builder.finish b, dims

(* [n/16 × 64] · [64 × 16] + bias, then Gelu: a GEMM anchor whose bias
   is gathered per block. *)
let matmul_graph n =
  let b = Graph.Builder.create () in
  let rng = Rng.create 4 in
  let dims = [ n / 16; 64 ] in
  let x = Graph.Builder.input b ~name:"x" (Shape.of_ints dims) in
  let w = Graph.Builder.const b ~name:"w" (Tensor.rand_uniform rng [ 64; 16 ]) in
  let bias = Graph.Builder.const b ~name:"bias" (Tensor.rand_uniform rng [ 16 ]) in
  let mm = Graph.Builder.node1 b Op.MatMul [ x; w ] in
  let ad = Graph.Builder.node1 b (Op.Binary Op.Add) [ mm; bias ] in
  let out = Graph.Builder.node1 b (Op.Unary Op.Gelu) [ ad ] in
  Graph.Builder.set_outputs b [ out ];
  Graph.Builder.finish b, dims

let test_fused_alloc () =
  List.iter
    (fun (name, build) ->
      let small = fused_alloc build 1024 and large = fused_alloc build 65536 in
      if small <> large then
        Alcotest.failf "fused %s: %d words at 1k elements, %d at 64k" name small large)
    [ "pointwise chain", chain_graph; "matmul+add+gelu", matmul_graph ]

(* ------------------------------------------------------------------ *)
(* Scratch under concurrency                                           *)

(* A kernel job writes a fresh output and returns its bits; each comes
   with the bits it must return.  The mix covers f32/f64 GEMMs of
   different shapes (so participants regrow and repack each other's
   scratch), plain and grouped convolutions (the column buffers) and an
   int8 GEMM (the integer panels). *)
let jobs () =
  let rng = Rng.create 77 in
  let bits_of_fbuf c =
    Array.init (Tensor.fbuf_len c) (fun i -> Int64.bits_of_float (Tensor.fbuf_get c i))
  in
  let gemm dt (m, n, k) =
    let a = buf dt rng (m * k) and b = buf dt rng (k * n) in
    fun () ->
      let c = Tensor.fbuf_create dt (m * n) in
      Tensor.fbuf_fill c 0 (m * n) 0.0;
      Blocked.gemm ~m ~n ~k ~a ~ao:0 ~b ~bo:0 ~c ~co:0 ();
      bits_of_fbuf c
  in
  let conv dt xd wd groups =
    let x = Tensor.cast (Tensor.rand_uniform rng xd) dt in
    let w = Tensor.cast (Tensor.rand_uniform rng wd) dt in
    let stride = 1, 1 and pad = 1, 1, 1, 1 and dilation = 1, 1 in
    let n = List.fold_left ( * ) 1 (Linalg.conv2d_out_dims ~stride ~pad ~dilation xd wd) in
    fun () ->
      let c = Tensor.fbuf_create dt n in
      ignore
        (Blocked.conv2d_im2col_into ~stride ~pad ~dilation ~groups (Tensor.view_f x)
           (Tensor.view_f w) None ~c ~co:0);
      bits_of_fbuf c
  in
  let gemm_i8 (m, n, k) =
    let i8 len =
      let t = Tensor.map_f (fun v -> v *. 120.0) (Tensor.rand_uniform rng [ len ]) in
      Tensor.storage_i8 (Tensor.cast t Tensor.I8)
    in
    let a = i8 (m * k) and b = i8 (k * n) in
    let job () =
      (* the accumulators themselves, exactly: an F64 store of scale 1 *)
      let c = Tensor.fbuf_create Tensor.F64 (m * n) in
      Blocked.gemm_i8_dequant ~za:3 ~zb:(-2) ~scale:[| 1.0 |] ~bias:[| -0.0 |] ~m ~n ~k ~a
        ~ao:0 ~b ~bo:0 ~c ~co:0 ();
      bits_of_fbuf c
    in
    let accs =
      RT.Reference.gemm_i8_acc ~za:3 ~zb:(-2) ~m ~n ~k (Tensor.of_i8buf [ m; k ] a)
        (Tensor.of_i8buf [ k; n ] b)
    in
    job, Array.map (fun acc -> Int64.bits_of_float (float_of_int acc)) accs
  in
  let sequential job = job, job () in
  [
    sequential (gemm Tensor.F32 (70, 90, 130));
    sequential (gemm Tensor.F64 (33, 301, 77));
    sequential (gemm Tensor.F32 (5, 64, 2100));
    sequential (conv Tensor.F32 [ 1; 8; 20; 20 ] [ 12; 8; 3; 3 ] 1);
    sequential (conv Tensor.F64 [ 2; 6; 9; 11 ] [ 6; 2; 3; 3 ] 3);
    gemm_i8 (40, 70, 150);
  ]

(* Each runner executes every job twelve times, rotated so concurrent
   runners are at different jobs, and counts results that differ from
   the expected ones: a float job's sequential run, the int8 GEMM's
   scalar reference. *)
let run_concurrently spawn join =
  let jobs, want = Array.split (Array.of_list (jobs ())) in
  let mismatches = Atomic.make 0 in
  let runner shift () =
    for round = 0 to 11 do
      Array.iteri
        (fun i _ ->
          let i = (i + shift + round) mod Array.length jobs in
          if jobs.(i) () <> want.(i) then Atomic.incr mismatches)
        jobs
    done
  in
  List.iter join (List.map (fun shift -> spawn (runner shift)) [ 0; 3 ]);
  Atomic.get mismatches

let test_scratch_threads () =
  Alcotest.(check int) "two systhreads on one domain" 0
    (run_concurrently (fun f -> Thread.create f ()) Thread.join)

let test_scratch_domains () =
  Alcotest.(check int) "two domains" 0 (run_concurrently Domain.spawn Domain.join)

let suite =
  [
    Alcotest.test_case "gemm: steady-state allocation is flat" `Quick
      test_gemm_alloc_flat;
    Alcotest.test_case "conv: steady-state allocation is flat" `Quick
      test_conv_alloc_flat;
    Alcotest.test_case "stem conv: steady-state allocation is flat in the image" `Quick
      test_stem_conv_alloc_flat;
    Alcotest.test_case "reduce: allocation follows the output" `Quick test_reduce_alloc;
    Alcotest.test_case "norms: allocation is flat in the input" `Quick test_norm_alloc;
    Alcotest.test_case "arena pointwise: allocation is flat" `Quick test_into_alloc;
    Alcotest.test_case "resize into a slot: allocation follows the rows" `Quick
      test_resize_alloc;
    Alcotest.test_case "int8 activation quantization: minor words are flat" `Quick
      test_quantize_alloc;
    Alcotest.test_case "gemm into a slot: allocation matches the matmul" `Quick
      test_gemm_into_alloc;
    Alcotest.test_case "int8 conv: minor words are flat in the image" `Quick
      test_int8_conv_alloc;
    Alcotest.test_case "scratch: concurrent systhreads match sequential" `Quick
      test_scratch_threads;
    Alcotest.test_case "scratch: concurrent domains match sequential" `Quick
      test_scratch_domains;
    Alcotest.test_case "fused kernels: allocation is flat" `Quick test_fused_alloc;
  ]
