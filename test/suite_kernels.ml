(* Kernel-backend equivalence and hot-path kernel regressions: the
   blocked/parallel GEMM and im2col convolution must match the naive
   reference loops within float tolerance on every shape class (including
   odd extents that exercise the packing edge paths), the domain pool must
   distribute work and propagate failures, and the fixed kernel bugs
   (float Mod, Reshape dim resolution, conv group check) must stay
   fixed. *)

module RT = Sod2_runtime

let check_close msg expected actual =
  if not (Tensor.approx_equal ~eps:1e-5 expected actual) then
    Alcotest.failf "%s: tensors differ\nexpected %s\nactual   %s" msg
      (Tensor.to_string expected) (Tensor.to_string actual)

(* A convolution into a fresh tensor through [into], one of the two
   destination kernels: the naive loop by default, or blocked im2col. *)
let naive_conv ~stride ~pad ~dilation ~groups = Linalg.conv2d_into ~stride ~pad ~dilation ~groups

let conv2d ?(into = naive_conv) ~stride ~pad ~dilation ~groups x w b =
  let od = Linalg.conv2d_out_dims ~stride ~pad ~dilation (Tensor.dims x) (Tensor.dims w) in
  let out = Tensor.zeros (Tensor.promote_f (Tensor.dtype x) (Tensor.dtype w)) od in
  ignore
    (into ~stride ~pad ~dilation ~groups (Tensor.view_f x) (Tensor.view_f w)
       (Option.map Tensor.view_f b) ~c:(Tensor.storage_f out) ~co:0);
  out

let im2col ?par = conv2d ~into:(Blocked.conv2d_im2col_into ?par)

(* Random operand storage for the raw-kernel tests.  [dt] selects the
   element kind so the same cases exercise both f32 and f64 code paths. *)
let fill_buf ?(dt = Tensor.F32) rng len =
  Tensor.storage_f (Tensor.cast (Tensor.rand_uniform rng [ max 1 len ]) dt)

let copy_fbuf b =
  let n = Tensor.fbuf_len b in
  let c = Tensor.fbuf_create (Tensor.fbuf_dtype b) n in
  Tensor.fbuf_blit ~src:b ~soff:0 ~dst:c ~doff:0 ~len:n;
  c

(* ------------------------------------------------------------------ *)
(* GEMM equivalence                                                    *)
(* ------------------------------------------------------------------ *)

(* One case per shape class, plus extents that are not multiples of any
   tile or micro-tile size (odd rows/columns, shallow and deep k). *)
let gemm_cases =
  [
    1, 1, 1;
    3, 5, 7;
    8, 8, 8;
    17, 9, 33;
    4, 512, 37;
    (* skinny *)
    63, 65, 66;
    (* one row short of two 32-row tiles *)
    128, 32, 200;
    300, 257, 19;
    (* fat-ish with odd n and shallow k *)
  ]

let run_gemm kernel ~m ~n ~k ~a ~b ~c0 =
  let c = copy_fbuf c0 in
  kernel ~m ~n ~k ~a ~ao:0 ~b ~bo:0 ~c ~co:0;
  c

let max_abs_diff x y =
  let d = ref 0.0 in
  for i = 0 to Tensor.fbuf_len x - 1 do
    d := Float.max !d (Float.abs (Tensor.fbuf_get x i -. Tensor.fbuf_get y i))
  done;
  !d

let check_gemm_kernel name kernel =
  List.iter
    (fun dt ->
      let rng = Rng.create 42 in
      List.iter
        (fun (m, n, k) ->
          let a = fill_buf ~dt rng (m * k) and b = fill_buf ~dt rng (k * n) in
          (* nonzero initial C: both kernels accumulate, neither overwrites *)
          let c0 = fill_buf ~dt rng (m * n) in
          let want = run_gemm Linalg.naive_kernel ~m ~n ~k ~a ~b ~c0 in
          let got = run_gemm kernel ~m ~n ~k ~a ~b ~c0 in
          (* Both kernels accumulate f64 over the full depth and round at
             the single store, so they agree bit-for-bit in either kind. *)
          let d = max_abs_diff want got in
          if d <> 0.0 then
            Alcotest.failf "%s %s %dx%dx%d: max |diff| = %g" name
              (Tensor.dtype_name dt) m n k d)
        gemm_cases)
    [ Tensor.F32; Tensor.F64 ]

let test_gemm_blocked_matches_naive () =
  check_gemm_kernel "blocked"
    (fun ~m ~n ~k ~a ~ao ~b ~bo ~c ~co ->
      Blocked.gemm ~m ~n ~k ~a ~ao ~b ~bo ~c ~co ())

let test_gemm_parallel_matches_naive () =
  let pool = RT.Domain_pool.create 4 in
  Fun.protect
    ~finally:(fun () -> RT.Domain_pool.shutdown pool)
    (fun () ->
      let par = RT.Domain_pool.par pool in
      (* m = 63, 128 and 300 split into several 32-row tiles per job *)
      check_gemm_kernel "parallel"
        (fun ~m ~n ~k ~a ~ao ~b ~bo ~c ~co ->
          Blocked.gemm ~par ~m ~n ~k ~a ~ao ~b ~bo ~c ~co ()))

(* Odd widths and widths spanning several packed column blocks: a block
   holds 32K elements of full depth, so at k ≈ 2000 one is ~16 columns
   wide and n up to 90 crosses up to six block edges, in either kind. *)
let prop_gemm_blocked_blocks =
  QCheck2.Test.make ~name:"blocked gemm matches naive across column blocks" ~count:40
    QCheck2.Gen.(
      tup4 (int_range 1 13) (map (fun n -> (2 * n) + 1) (int_range 0 45))
        (oneof [ int_range 1 70; int_range 1000 2600 ])
        bool)
    (fun (m, n, k, f64) ->
      let dt = if f64 then Tensor.F64 else Tensor.F32 in
      let rng = Rng.create (m + (97 * n) + (389 * k)) in
      let a = fill_buf ~dt rng (m * k) and b = fill_buf ~dt rng (k * n) in
      let c0 = fill_buf ~dt rng (m * n) in
      let want = run_gemm Linalg.naive_kernel ~m ~n ~k ~a ~b ~c0 in
      let got =
        run_gemm
          (fun ~m ~n ~k ~a ~ao ~b ~bo ~c ~co ->
            Blocked.gemm ~m ~n ~k ~a ~ao ~b ~bo ~c ~co ())
          ~m ~n ~k ~a ~b ~c0
      in
      max_abs_diff want got = 0.0)

(* Whether [Blocked.gemm] on [par] leaves C's whole buffer bit for bit as
   the naive loop does, for operands drawn from [seed] (finite, with
   signed zeros among them) at the offsets [ao], [bo], [co] into larger
   buffers.  The elements outside C's window hold -0.0, which any stray
   write changes.  (The naive loop skips zero A entries, so ±inf and NaN
   operands are outside the contract.) *)
let gemm_bit_exact ~pars ~dt ~seed (m, n, k) (ao, bo, co) =
  let rng = Rng.create seed in
  let values len =
    let b = Tensor.fbuf_create dt len in
    for i = 0 to len - 1 do
      Tensor.fbuf_set b i
        (match Rng.int rng 5 with
        | 0 -> -0.0
        | 1 -> 0.0
        | _ -> Rng.normal rng)
    done;
    b
  in
  let a = values (ao + (m * k)) and b = values (bo + (k * n)) in
  let c0 = values (co + (m * n) + 8) in
  for i = 0 to Tensor.fbuf_len c0 - 1 do
    if i < co || i >= co + (m * n) then Tensor.fbuf_set c0 i (-0.0)
  done;
  let run kernel =
    let c = copy_fbuf c0 in
    kernel ~c;
    Array.init (Tensor.fbuf_len c) (fun i -> Int64.bits_of_float (Tensor.fbuf_get c i))
  in
  let want = run (fun ~c -> Linalg.naive_kernel ~m ~n ~k ~a ~ao ~b ~bo ~c ~co) in
  List.for_all
    (fun par -> run (fun ~c -> Blocked.gemm ~par ~m ~n ~k ~a ~ao ~b ~bo ~c ~co ()) = want)
    pars

(* The micro-kernel's exact contract over its edges: any m, n, k in
   [1, 70] (odd n, column octets and row quads cut short), the
   operands and C at nonzero offsets, f32 and f64, on the sequential
   runner and on a 2-participant pool, which splits m > 32 into row
   tiles. *)
let prop_gemm_blocked_random pool =
  QCheck2.Test.make ~name:"blocked gemm matches naive on random extents" ~count:60
    QCheck2.Gen.(
      tup4 (tup3 (int_range 1 70) (int_range 1 70) (int_range 1 70))
        (tup3 (int_range 1 9) (int_range 1 9) (int_range 1 9))
        bool int)
    (fun (mnk, offsets, f64, seed) ->
      gemm_bit_exact
        ~pars:[ Blocked.sequential; RT.Domain_pool.par pool ]
        ~dt:(if f64 then Tensor.F64 else Tensor.F32)
        ~seed mnk offsets)

let test_gemm_blocked_random () =
  let pool = RT.Domain_pool.create 2 in
  Fun.protect
    ~finally:(fun () -> RT.Domain_pool.shutdown pool)
    (fun () -> QCheck2.Test.check_exn (prop_gemm_blocked_random pool))

(* A tile call takes two row quads at once (the 8×8 tile on an AVX-512F
   host, two 4×8 tiles elsewhere) and an odd last quad alone.  Every
   m mod 8, at shallow k and at k = 2500, where a row tile is 12 rows
   (three quads, so each row tile ends on a lone quad), against ragged
   n, in f32 and f64, at nonzero offsets, sequentially and on a
   2-participant pool: C bit for bit as the naive loop leaves it. *)
let test_gemm_tile_rows () =
  Alcotest.(check bool) "a known tile body" true
    (List.mem Blocked.gemm_tile [ "8x8 avx512f"; "4x8" ]);
  let pool = RT.Domain_pool.create 2 in
  Fun.protect
    ~finally:(fun () -> RT.Domain_pool.shutdown pool)
    (fun () ->
      let pars = [ Blocked.sequential; RT.Domain_pool.par pool ] in
      let cases =
        List.concat_map (fun m -> [ m, 13, 37; m + 32, 21, 9 ]) (List.init 8 (fun r -> r + 1))
        @ List.map (fun m -> m, 11, 2500) [ 5; 12; 20; 24; 29; 36 ]
      in
      List.iter
        (fun dt ->
          List.iteri
            (fun i (m, n, k) ->
              if
                not
                  (gemm_bit_exact ~pars ~dt ~seed:i (m, n, k) (3, 5, 7))
              then
                Alcotest.failf "%s %dx%dx%d (%s tile): C differs from the naive loop"
                  (Tensor.dtype_name dt) m n k Blocked.gemm_tile)
            cases)
        [ Tensor.F32; Tensor.F64 ])

(* ------------------------------------------------------------------ *)
(* Convolution equivalence                                             *)
(* ------------------------------------------------------------------ *)

let conv_cases =
  (* (x dims, w dims, stride, pad, dilation, groups, bias?) *)
  [
    "basic 3x3", [ 1; 3; 8; 8 ], [ 4; 3; 3; 3 ], (1, 1), (1, 1, 1, 1), (1, 1), 1, true;
    "no bias", [ 2; 3; 7; 9 ], [ 5; 3; 3; 3 ], (1, 1), (0, 0, 0, 0), (1, 1), 1, false;
    "grouped", [ 1; 4; 6; 6 ], [ 6; 2; 3; 3 ], (1, 1), (1, 1, 1, 1), (1, 1), 2, true;
    "depthwise", [ 1; 4; 9; 9 ], [ 4; 1; 3; 3 ], (1, 1), (1, 1, 1, 1), (1, 1), 4, true;
    "dilated", [ 1; 2; 11; 11 ], [ 3; 2; 3; 3 ], (1, 1), (2, 2, 2, 2), (2, 2), 1, true;
    "strided asym pad", [ 1; 3; 10; 13 ], [ 2; 3; 2; 4 ], (2, 3), (1, 0, 2, 1), (1, 1), 1, true;
    "1x1", [ 2; 8; 5; 5 ], [ 16; 8; 1; 1 ], (1, 1), (0, 0, 0, 0), (1, 1), 1, false;
  ]

let check_conv name conv =
  let rng = Rng.create 9 in
  List.iter
    (fun (case, xd, wd, stride, pad, dilation, groups, with_bias) ->
      let x = Tensor.rand_uniform rng xd and w = Tensor.rand_uniform rng wd in
      let bias =
        if with_bias then Some (Tensor.rand_uniform rng [ List.hd wd ]) else None
      in
      let want = conv2d ~stride ~pad ~dilation ~groups x w bias in
      let got = conv ~stride ~pad ~dilation ~groups x w bias in
      check_close (name ^ "/" ^ case) want got)
    conv_cases

let test_conv_im2col_matches_naive () =
  check_conv "im2col" (im2col ?par:None)

(* Random geometry, bit for bit: odd output widths, padding wider than
   the kernel's reach, and images big enough (oh·ow past 1200 at kernel
   volume 27) that the im2col matrix spans several packed blocks. *)
let prop_conv_im2col_random =
  QCheck2.Test.make ~name:"im2col conv matches naive on random geometry" ~count:40
    QCheck2.Gen.(
      pair
        (tup4 (int_range 1 3) (int_range 1 3) (int_range 1 3) (int_range 1 2))
        (tup4 (int_range 1 3) (int_range 0 3) (int_range 1 2) (int_range 1 45)))
    (fun ((cg, kh, kw, groups), (stride, pad, dil, hw)) ->
      let rng = Rng.create (cg + (7 * kh) + (31 * hw) + (101 * pad)) in
      let dt = if hw mod 2 = 0 then Tensor.F64 else Tensor.F32 in
      let x = Tensor.cast (Tensor.rand_uniform rng [ 1; cg * groups; hw; hw + 2 ]) dt in
      let w = Tensor.cast (Tensor.rand_uniform rng [ 2 * groups; cg; kh; kw ]) dt in
      let bias = Some (Tensor.cast (Tensor.rand_uniform rng [ 2 * groups ]) dt) in
      (* widths stride 1-3, so octets cross output rows and padding *)
      let stride = stride, 1 + (hw mod 3) and pad = pad, pad, 1, pad and dilation = dil, 1 in
      match conv2d ~stride ~pad ~dilation ~groups x w bias with
      | exception Invalid_argument _ -> true
      | want -> Tensor.equal want (im2col ~stride ~pad ~dilation ~groups x w bias))

(* The implicit-im2col packer gathers B's column octets straight from
   the image.  [conv_bits_agree] runs one geometry with batch 2, the
   input, weight and bias at nonzero view offsets into their buffers,
   and the destination window between -0.0 sentinels (a stray write
   flips one) over garbage it must overwrite: every element of the
   destination buffer must equal the naive loop's bit for bit, on the
   sequential runner and on a 2-participant pool, in f32 and f64. *)
let conv_bits_agree pool ~rng ~xdims ~wdims ~stride ~pad ~dilation ~groups ~offs:(xo, wo, co) =
  let filled len off =
    let b = Tensor.fbuf_create Tensor.F64 (off + len) in
    for i = 0 to off + len - 1 do
      Tensor.fbuf_set b i (Rng.normal rng)
    done;
    b
  in
  let numel = List.fold_left ( * ) 1 in
  match Linalg.conv2d_out_dims ~stride ~pad ~dilation xdims wdims with
  | exception Invalid_argument _ -> true
  | od when List.exists (fun d -> d <= 0) od -> true
  | od ->
    let total = numel od in
    let x64 = filled (numel xdims) xo and w64 = filled (numel wdims) wo in
    let b64 = filled (List.hd wdims) 2 in
    let c64 = filled total co in
    List.for_all
      (fun dt ->
        let cast b = Tensor.storage_f (Tensor.cast (Tensor.of_fbuf [ Tensor.fbuf_len b ] b) dt) in
        let vx = Tensor.sub_view ~buf:(cast x64) ~off:xo ~dims:xdims in
        let vw = Tensor.sub_view ~buf:(cast w64) ~off:wo ~dims:wdims in
        let vb = Some (Tensor.sub_view ~buf:(cast b64) ~off:2 ~dims:[ List.hd wdims ]) in
        let c0 = Tensor.fbuf_create dt (co + total + 8) in
        for i = 0 to Tensor.fbuf_len c0 - 1 do
          Tensor.fbuf_set c0 i (if i >= co && i < co + total then Tensor.fbuf_get c64 i else -0.0)
        done;
        let run conv =
          let c = copy_fbuf c0 in
          ignore (conv ~stride ~pad ~dilation ~groups vx vw vb ~c ~co);
          Array.init (Tensor.fbuf_len c) (fun i -> Int64.bits_of_float (Tensor.fbuf_get c i))
        in
        let want = run naive_conv in
        List.for_all
          (fun par -> run (Blocked.conv2d_im2col_into ~par) = want)
          [ Blocked.sequential; RT.Domain_pool.par pool ])
      [ Tensor.F32; Tensor.F64 ]

let prop_conv_implicit_views pool =
  QCheck2.Test.make ~name:"implicit im2col conv matches naive at offsets, batch 2, on a pool"
    ~count:40
    QCheck2.Gen.(
      tup4
        (tup4 (int_range 1 3) (int_range 1 3) (int_range 1 3) (int_range 1 2))
        (tup4 (int_range 1 3) (int_range 0 3) (int_range 1 2) (int_range 1 30))
        (tup3 (int_range 1 9) (int_range 1 9) (int_range 1 9))
        int)
    (fun ((cg, kh, kw, groups), (stride, pad, dil, hw), offs, seed) ->
      conv_bits_agree pool ~rng:(Rng.create seed)
        ~xdims:[ 2; cg * groups; hw; hw + 3 ]
        ~wdims:[ 3 * groups; cg; kh; kw ]
        ~stride:(stride, 1 + (hw mod 3))
        ~pad:(pad, 1, pad, (pad + 1) mod 4)
        ~dilation:(dil, 1) ~groups ~offs)

(* SkipNet's stem geometry, 7×7/2 with three rows and columns of
   padding, at odd extents: 19×21 output pixels span 49 column octets
   and end in a partial one. *)
let test_conv_implicit_stem () =
  let pool = RT.Domain_pool.create 2 in
  Fun.protect
    ~finally:(fun () -> RT.Domain_pool.shutdown pool)
    (fun () ->
      Alcotest.(check bool) "stem conv bit for bit" true
        (conv_bits_agree pool ~rng:(Rng.create 7) ~xdims:[ 2; 3; 37; 41 ]
           ~wdims:[ 32; 3; 7; 7 ] ~stride:(2, 2) ~pad:(3, 3, 3, 3) ~dilation:(1, 1) ~groups:1
           ~offs:(5, 3, 7));
      QCheck2.Test.check_exn (prop_conv_implicit_views pool))

(* Depthwise convolutions (one output channel per group) take a direct
   tap loop; it must reproduce the naive summation order bit for bit,
   signed zeros included. *)
let same_bits want got =
  Tensor.dims want = Tensor.dims got
  && Array.for_all2
       (fun a b -> Int64.bits_of_float a = Int64.bits_of_float b)
       (Tensor.data_f want) (Tensor.data_f got)

let prop_conv_depthwise_bitexact =
  QCheck2.Test.make ~name:"depthwise conv matches naive bit for bit" ~count:60
    QCheck2.Gen.(
      pair
        (tup4 (int_range 2 6) (int_range 1 2) (int_range 1 3) (int_range 1 15))
        (tup4 (int_range 1 3) (int_range 0 7) (int_range 1 2) (int_range 1 40)))
    (fun ((groups, cg, kh, kw), (stride, pad, dil, len)) ->
      let rng = Rng.create (groups + (7 * kw) + (31 * len) + (101 * pad)) in
      let dt = if len mod 2 = 0 then Tensor.F64 else Tensor.F32 in
      let signed dims = Tensor.map_f (fun v -> v -. 0.5) (Tensor.rand_uniform rng dims) in
      let x = Tensor.cast (signed [ 2; cg * groups; kh + 2; len ]) dt in
      let w = Tensor.cast (signed [ groups; cg; kh; kw ]) dt in
      let bias = if pad mod 2 = 0 then Some (Tensor.cast (signed [ groups ]) dt) else None in
      let stride = 1, stride and pad = 1, pad, 0, pad and dilation = 1, dil in
      match conv2d ~stride ~pad ~dilation ~groups x w bias with
      | exception Invalid_argument _ -> true
      | want ->
        let pool = RT.Domain_pool.create 2 in
        Fun.protect
          ~finally:(fun () -> RT.Domain_pool.shutdown pool)
          (fun () ->
            same_bits want
              (im2col ~par:(RT.Domain_pool.par pool) ~stride ~pad ~dilation ~groups x w bias)))

(* ------------------------------------------------------------------ *)
(* Block evaluator against the scalar semantics                        *)
(* ------------------------------------------------------------------ *)

let unary_ops =
  [
    Op.Relu; Op.LeakyRelu 0.1; Op.Sigmoid; Op.Tanh; Op.Exp; Op.Log; Op.Sqrt; Op.Neg;
    Op.Abs; Op.Erf; Op.Gelu; Op.HardSwish; Op.Softplus; Op.Floor; Op.Ceil; Op.Round;
    Op.Not; Op.Identity; Op.Sign; Op.Reciprocal; Op.Softsign;
  ]

let binary_ops =
  [
    Op.Add; Op.Sub; Op.Mul; Op.Div; Op.Pow; Op.Max2; Op.Min2; Op.Mod2; Op.Equal;
    Op.Less; Op.Greater; Op.And; Op.Or;
  ]

(* Equal bits, or both NaN. *)
let same_value a b = Int64.bits_of_float a = Int64.bits_of_float b || (Float.is_nan a && Float.is_nan b)

(* Inputs mixing NaN, signed zeros, infinities and subnormals (in both
   precisions) with ordinary values, long enough to span several blocks. *)
let special_values =
  [ Float.nan; -.Float.nan; 0.0; -0.0; Float.infinity; Float.neg_infinity; 4.9e-324;
    -4.9e-324; 1.4e-45; -1.4e-45; 1e-40; 0.5; -0.5; 1.0; -1.0; 2.5; -3.0 ]

(* Lengths 0-9 (every remainder of the f32 loops' groups of four, and
   their tails alone) as often as longer ones that span several blocks. *)
let gen_values =
  QCheck2.Gen.(
    array_size
      (frequency [ 1, int_range 0 9; 1, int_range 10 700 ])
      (frequency [ 1, oneofl special_values; 2, float_range (-4.0) 4.0; 1, float ]))

(* A buffer of [t]'s kind holding [t]'s elements at element offset
   [off], surrounded by filler. *)
let at_offset off t =
  let n = Tensor.numel t in
  let buf = Tensor.fbuf_create (Tensor.dtype t) (n + off + 3) in
  Tensor.fbuf_fill buf 0 (n + off + 3) 7.0;
  Array.iteri (fun i v -> Tensor.fbuf_set buf (off + i) v) (Tensor.data_f t);
  buf

let window buf off n = Array.init n (fun i -> Tensor.fbuf_get buf (off + i))

(* [op] on [xs] run as block programs against the boxed reference map
   over the same stored operands: operands in place at non-zero offsets,
   again through registers, and — when the result has the first
   operand's kind — in place over the first operand's window. *)
let evaluator_agrees ~dtypes ~want ~instr xs =
  let n = Array.length xs in
  let operands =
    List.mapi
      (fun i dt ->
        let rot = Array.init n (fun j -> xs.((j + (i * 7)) mod n)) in
        Tensor.of_floats dt [ n ] rot)
      dtypes
  in
  let want = want operands in
  let k = List.length operands in
  let off i = i + 1 and doff = 2 in
  let leaves () = Array.of_list (List.mapi (fun i t -> at_offset (off i) t) operands) in
  let offs = Array.init (k + 1) (fun i -> if i = k then doff else off i) in
  let run code ~regs32 ~regs64 =
    let out = at_offset doff want in
    Op_semantics.run ~par:Blocked.sequential
      { Op_semantics.code; n; regs32; regs64 }
      (Array.append (leaves ()) [| out |]) offs;
    window out doff n
  in
  let reg i dt = if dt = Tensor.F32 then Op_semantics.R32 i else Op_semantics.R64 i in
  let direct = run [| instr (List.init k (fun i -> Op_semantics.Leaf i)) (Op_semantics.Leaf k) |] ~regs32:0 ~regs64:0 in
  (* every operand copied into a register of its kind first, the result
     computed into a register of the output's kind, then stored *)
  let regs = List.mapi (fun i dt -> reg i dt) dtypes in
  let out_reg = reg k (Tensor.dtype want) in
  let code =
    Array.of_list
      (List.mapi (fun i r -> Op_semantics.Copy (Op_semantics.Leaf i, r)) regs
      @ [ instr regs out_reg; Op_semantics.Copy (out_reg, Op_semantics.Leaf k) ])
  in
  let registered = run code ~regs32:(k + 1) ~regs64:(k + 1) in
  let in_place () =
    let bufs = Array.append (leaves ()) [| Tensor.fbuf_create Tensor.F32 0 |] in
    Op_semantics.run ~par:Blocked.sequential
      {
        Op_semantics.code =
          [| instr (List.init k (fun i -> Op_semantics.Leaf i)) (Op_semantics.Leaf 0) |];
        n;
        regs32 = 0;
        regs64 = 0;
      }
      bufs offs;
    window bufs.(0) (off 0) n
  in
  let agree got = Array.for_all2 same_value (Tensor.data_f want) got in
  agree direct && agree registered
  && (Tensor.dtype want <> List.hd dtypes || agree (in_place ()))

(* A strided map walked by odometer must gather exactly what an
   index walk does: random broadcasts and transposes of up to 13^4
   elements, so blocks start mid-row and carries cross several dims. *)
let prop_gather_odometer =
  QCheck2.Test.make ~name:"odometer gathers match index walks" ~count:60
    QCheck2.Gen.(pair (list_size (int_range 1 4) (int_range 1 13)) int)
    (fun (dims, seed) ->
      let st = Random.State.make [| seed |] in
      let od = Array.of_list dims in
      let r = Array.length od in
      let x = Tensor.rand_uniform (Rng.create seed) in
      let src, map, want =
        if Random.State.bool st then begin
          let perm = Array.init r Fun.id in
          for i = r - 1 downto 1 do
            let j = Random.State.int st (i + 1) in
            let t = perm.(i) in
            perm.(i) <- perm.(j);
            perm.(j) <- t
          done;
          let ind = Array.make r 0 in
          Array.iteri (fun i p -> ind.(p) <- od.(i)) perm;
          let src = x (Array.to_list ind) and perm = Array.to_list perm in
          src, Op_semantics.transpose_map ~od ~ind ~perm, Oracle.transpose src perm
        end
        else
          let fd = Array.map (fun d -> if Random.State.bool st then 1 else d) od in
          let src = x (Array.to_list fd) in
          ( src,
            Op_semantics.broadcast_map ~od ~fd,
            Oracle.map2 (fun a _ -> a) src (Tensor.zeros Tensor.F32 dims) )
      in
      let n = Array.fold_left ( * ) 1 od in
      let soff = 1 + (abs seed mod 4) in
      let buf = at_offset soff src in
      (* through a register in blocks, and straight into an offset
         destination in one block *)
      let gather m ~via_reg =
        let dst = Tensor.fbuf_create Tensor.F32 (n + 5) in
        let code, regs32 =
          if via_reg then
            [| Op_semantics.Gather (0, m, Op_semantics.R32 0);
               Op_semantics.Copy (Op_semantics.R32 0, Op_semantics.Leaf 1) |], 1
          else [| Op_semantics.Gather (0, m, Op_semantics.Leaf 1) |], 0
        in
        Op_semantics.run ~par:Blocked.sequential
          { Op_semantics.code; n; regs32; regs64 = 0 }
          [| buf; dst |] [| soff; 2 |];
        window dst 2 n
      in
      match map with
      | None -> Tensor.data_f want = Tensor.data_f src
      | Some m ->
        List.for_all
          (fun got -> Array.for_all2 same_value (Tensor.data_f want) got)
          [ gather m ~via_reg:true; gather m ~via_reg:false ])

let prop_block_unary =
  QCheck2.Test.make ~name:"block evaluator matches scalar unary semantics" ~count:30
    gen_values (fun xs ->
      List.for_all
        (fun dt ->
          List.for_all
            (fun u ->
              evaluator_agrees ~dtypes:[ dt ] xs
                ~want:(fun ops -> Tensor.map_f (Op_semantics.unary_fn u) (List.hd ops))
                ~instr:(fun ls d -> Op_semantics.Unary (u, List.hd ls, d)))
            unary_ops
          && evaluator_agrees ~dtypes:[ dt ] xs
               ~want:(fun ops -> Tensor.map_f (Op_semantics.clip_fn (-0.0) 1.5) (List.hd ops))
               ~instr:(fun ls d -> Op_semantics.Clip (-0.0, 1.5, List.hd ls, d)))
        [ Tensor.F32; Tensor.F64 ])

(* erf and Gelu against libm, with the bounds DESIGN.md §14 states:
   |erf x − Float.erf x| ≤ 1e-7, and |Gelu v − 0.5·v·(1 + Float.erf
   (v/√2))| ≤ 1e-7·max(1, |v|); equal values (infinities) and NaN
   against NaN agree outright. *)
let erf_bound = 1e-7

let near_libm bound want got = same_value want got || Float.abs (want -. got) <= bound

let gen_erf_args range =
  QCheck2.Gen.(frequency [ 1, oneofl special_values; 4, float_range (-.range) range ])

let prop_erf_libm =
  QCheck2.Test.make ~name:"erf is within its bound of libm erf" ~count:2000 (gen_erf_args 6.0)
    (fun x -> near_libm erf_bound (Float.erf x) (Op_semantics.erf x))

let prop_gelu_libm =
  QCheck2.Test.make ~name:"gelu is within its bound of the libm-erf gelu" ~count:2000
    (gen_erf_args 8.0) (fun v ->
      near_libm
        (erf_bound *. Float.max 1.0 (Float.abs v))
        (0.5 *. v *. (1.0 +. Float.erf (v /. sqrt 2.0)))
        (Op_semantics.unary_fn Op.Gelu v))

let prop_erf_odd =
  QCheck2.Test.make ~name:"erf is odd bit for bit" ~count:2000 (gen_erf_args 6.0) (fun x ->
      same_value (Op_semantics.erf (-.x)) (-.Op_semantics.erf x))

let test_erf_signed_zero () =
  let bits v = Int64.bits_of_float v in
  Alcotest.(check int64) "erf (+0) = +0" (bits 0.0) (bits (Op_semantics.erf 0.0));
  Alcotest.(check int64) "erf (-0) = -0" (bits (-0.0)) (bits (Op_semantics.erf (-0.0)))

let prop_block_binary =
  QCheck2.Test.make ~name:"block evaluator matches scalar binary semantics" ~count:30
    gen_values (fun xs ->
      List.for_all
        (fun dtypes ->
          List.for_all
            (fun b ->
              evaluator_agrees ~dtypes xs
                ~want:(fun ops ->
                  Tensor.map2 (Op_semantics.float_binary_fn b) (List.nth ops 0)
                    (List.nth ops 1))
                ~instr:(fun ls d -> Op_semantics.Binary (b, List.nth ls 0, List.nth ls 1, d)))
            binary_ops
          && evaluator_agrees ~dtypes:(Tensor.F64 :: dtypes) xs
               ~want:(fun ops -> List.hd (RT.Kernels.run Op.Where ops))
               ~instr:(fun ls d ->
                 Op_semantics.Where (List.nth ls 0, List.nth ls 1, List.nth ls 2, d)))
        [ [ Tensor.F32; Tensor.F32 ]; [ Tensor.F64; Tensor.F64 ]; [ Tensor.F32; Tensor.F64 ] ])

(* BatchNorm's block instruction, through the destination kernel: the
   all-f32 arm and the mixed-kind one, channel runs of 0-9 elements,
   special values, operands at offsets, and in place. *)
let prop_block_norm =
  QCheck2.Test.make ~name:"block evaluator BatchNorm matches the oracle" ~count:100
    QCheck2.Gen.(pair (tup3 (int_range 1 2) (int_range 1 3) (int_range 0 9)) int)
    (fun ((nb, ch, inner), seed) ->
      let st = Random.State.make [| seed |] in
      let dt () = if Random.State.int st 3 = 0 then Tensor.F64 else Tensor.F32 in
      let values dt dims =
        let n = List.fold_left ( * ) 1 dims in
        Tensor.of_floats dt dims
          (Array.init n (fun _ ->
               if Random.State.int st 4 = 0 then
                 List.nth special_values (Random.State.int st (List.length special_values))
               else Random.State.float st 4.0 -. 2.0))
      in
      let dims = [ nb; ch; inner ] in
      let x = values (dt ()) dims in
      let param () = values (dt ()) [ (if Random.State.int st 4 = 0 then 1 else ch) ] in
      let scale = param () and bias = param () and mean = param () in
      let var = Tensor.map_f Float.abs (param ()) in
      let want = Oracle.batch_norm x ~scale ~bias ~mean ~var ~eps:1e-5 in
      let n = Tensor.numel want in
      let view off t = Tensor.sub_view ~buf:(at_offset off t) ~off ~dims:(Tensor.dims t) in
      let ps = List.mapi (fun i p -> view (i + 1) p) [ scale; bias; mean; var ] in
      let op = Op.BatchNorm { eps = 1e-5 } in
      let into (vx : Tensor.view) dest =
        RT.Kernels.run_into op (vx :: ps) ~dest = Some [ dims ]
      in
      let out = at_offset 2 want in
      let agree buf off = Array.for_all2 same_value (Tensor.data_f want) (window buf off n) in
      into (view 3 x) (fun _ _ _ -> out, 2)
      && agree out 2
      && (Tensor.dtype want <> Tensor.dtype x
         ||
         let vx = view 3 x in
         into vx (fun _ _ _ -> vx.Tensor.vbuf, 3) && agree vx.Tensor.vbuf 3))

(* The all-f32 BatchNorm loop (C) against the scalar chain it runs:
   (x − m), / sd and × s each rounded to f32, then + b rounded at the
   store.  Channel runs of 1–9 elements (every tail of its groups of
   eight) and longer, special values, windows at offsets whose
   surroundings must survive, and in place. *)
let prop_norm_run32 =
  let r32 v = Int32.float_of_bits (Int32.bits_of_float v) in
  QCheck2.Test.make ~name:"f32 BatchNorm run matches the scalar chain" ~count:200
    QCheck2.Gen.(
      tup4
        (frequency [ 3, int_range 1 9; 1, int_range 10 40 ])
        (pair (int_range 0 5) (int_range 0 5))
        bool int)
    (fun (len, (xo, o), in_place, seed) ->
      let st = Random.State.make [| seed |] in
      let value () =
        if Random.State.int st 4 = 0 then
          List.nth special_values (Random.State.int st (List.length special_values))
        else Random.State.float st 4.0 -. 2.0
      in
      let f32buf n = Bigarray.Array1.create Bigarray.float32 Bigarray.c_layout n in
      let x = f32buf (xo + len + 3) in
      for i = 0 to Bigarray.Array1.dim x - 1 do
        x.{i} <- value ()
      done;
      let o = if in_place then xo else o in
      let d = if in_place then x else f32buf (o + len + 3) in
      if not in_place then Bigarray.Array1.fill d 7.0;
      let before = Array.init (Bigarray.Array1.dim d) (fun i -> d.{i}) in
      let xs = Array.init len (fun i -> x.{xo + i}) in
      let m = r32 (value ()) and s = r32 (value ()) and b = r32 (value ()) in
      let sd = sqrt (r32 (Float.abs (value ())) +. 1e-5) in
      Op_semantics.norm_run32 x xo d o len m sd s b;
      let want i =
        if i >= o && i < o + len then
          r32 (r32 (r32 (r32 (xs.(i - o) -. m) /. sd) *. s) +. b)
        else before.(i)
      in
      let ok = ref true in
      for i = 0 to Bigarray.Array1.dim d - 1 do
        if not (same_value (want i) d.{i}) then ok := false
      done;
      !ok)

let test_conv_im2col_parallel_matches_naive () =
  let pool = RT.Domain_pool.create 3 in
  Fun.protect
    ~finally:(fun () -> RT.Domain_pool.shutdown pool)
    (fun () ->
      let par = RT.Domain_pool.par pool in
      check_conv "im2col/parallel" (im2col ~par))

(* ------------------------------------------------------------------ *)
(* Backend dispatch                                                    *)
(* ------------------------------------------------------------------ *)

let with_backend ?threads kind f =
  let be = RT.Backend.create ?threads kind in
  Fun.protect ~finally:(fun () -> RT.Backend.shutdown be) (fun () -> f be)

let test_backend_ops_match_reference () =
  List.iter
    (fun (label, kind, threads) ->
      with_backend ?threads kind (fun be ->
          let name op = label ^ "/" ^ op in
          (* the backend's kernels against the naive ones, both through
             [Kernels.run] *)
          let check what op inputs =
            check_close (name what)
              (List.hd (RT.Kernels.run op inputs))
              (List.hd (RT.Kernels.run ~backend:be op inputs))
          in
          let rng = Rng.create 12 in
          (* batched matmul with broadcasting *)
          let a = Tensor.rand_uniform rng [ 2; 33; 65 ] in
          let b = Tensor.rand_uniform rng [ 65; 17 ] in
          check "matmul" Op.MatMul [ a; b ];
          (* transposed gemm with bias broadcast *)
          let ga = Tensor.rand_uniform rng [ 40; 30 ] in
          let gb = Tensor.rand_uniform rng [ 50; 40 ] in
          let gc = Tensor.rand_uniform rng [ 30; 1 ] in
          check "gemm" (Op.Gemm { alpha = 0.5; beta = 1.5; trans_a = true; trans_b = true })
            [ ga; gb; gc ];
          (* conv1d lowers through the same backend *)
          let x1 = Tensor.rand_uniform rng [ 2; 4; 19 ] in
          let w1 = Tensor.rand_uniform rng [ 6; 2; 3 ] in
          check "conv1d" (Op.Conv1d { stride1 = 2; pads1 = 1, 1; dilation1 = 1; groups1 = 2 })
            [ x1; w1 ]))
    RT.Backend.[ "naive", Naive, None; "blocked", Blocked, Some 1; "parallel", Blocked, None ]

(* Elementwise maps on a blocked backend run as destination kernels:
   block programs chunked over the pool.  They must match the sequential
   [Tensor] maps bit for bit, same-shape and broadcast alike. *)
let test_backend_elementwise () =
  with_backend RT.Backend.Blocked (fun be ->
      let rng = Rng.create 21 in
      let into op inputs =
        let out = ref None in
        let dest _ dt dims =
          let t = Tensor.zeros dt dims in
          out := Some t;
          Tensor.storage_f t, 0
        in
        match RT.Kernels.run_into ~backend:be op (List.map Tensor.view_f inputs) ~dest with
        | Some _ -> Option.get !out
        | None -> Alcotest.failf "%s has no destination kernel" (Op.name op)
      in
      let check_bits name want got =
        Alcotest.(check (list int)) (name ^ ": dims") (Tensor.dims want) (Tensor.dims got);
        Alcotest.(check bool) (name ^ ": bit-identical") true
          (Array.for_all2
             (fun a b -> Int64.bits_of_float a = Int64.bits_of_float b)
             (Tensor.data_f want) (Tensor.data_f got))
      in
      (* big enough to split into chunks *)
      let x = Tensor.rand_uniform rng [ 50_000 ] in
      let y = Tensor.rand_uniform rng [ 50_000 ] in
      check_bits "sqrt"
        (Tensor.map_f (Op_semantics.unary_fn Op.Sqrt) x)
        (into (Op.Unary Op.Sqrt) [ x ]);
      check_bits "mul"
        (Tensor.map2 (Op_semantics.float_binary_fn Op.Mul) x y)
        (into (Op.Binary Op.Mul) [ x; y ]);
      let row = Tensor.rand_uniform rng [ 10 ] in
      let mat = Tensor.rand_uniform rng [ 200; 10 ] in
      check_bits "add/broadcast"
        (Tensor.map2 (Op_semantics.float_binary_fn Op.Add) mat row)
        (into (Op.Binary Op.Add) [ mat; row ]))

let test_backend_kind_names () =
  List.iter
    (fun kind ->
      Alcotest.(check bool)
        "kind_of_string inverts kind_name" true
        (RT.Backend.kind_of_string (RT.Backend.kind_name kind) = Some kind))
    [ RT.Backend.Naive; RT.Backend.Blocked ];
  Alcotest.(check bool) "fused reads as blocked" true
    (RT.Backend.kind_of_string "fused" = Some RT.Backend.Blocked);
  Alcotest.(check bool) "parallel is not a kind" true (RT.Backend.kind_of_string "parallel" = None);
  Alcotest.(check bool) "unknown kind" true (RT.Backend.kind_of_string "simd" = None)

(* The backend must not perturb end-to-end execution: run a real model on
   the naive and blocked backends and compare outputs. *)
let test_backend_end_to_end () =
  let sp = Option.get (Zoo.by_name "codebert") in
  let g = Sod2_experiments.Harness.graph_of sp in
  let c = Sod2.Pipeline.compile Profile.sd888_cpu g in
  let env = Env.of_list [ "S", 32 ] in
  let inputs = Zoo.make_inputs sp g env (Rng.create 5) in
  let _, ref_outs = RT.Executor.run_real c ~inputs in
  with_backend RT.Backend.Blocked (fun be ->
      let _, outs = RT.Executor.run_real ~backend:be c ~inputs in
      List.iter2
        (fun (tid, want) (tid', got) ->
          Alcotest.(check int) "same output tensor" tid tid';
          check_close (Printf.sprintf "output t%d" tid) want got)
        ref_outs outs)

(* ------------------------------------------------------------------ *)
(* Domain pool                                                         *)
(* ------------------------------------------------------------------ *)

let test_domain_pool_runs_all () =
  let pool = RT.Domain_pool.create 4 in
  Fun.protect
    ~finally:(fun () -> RT.Domain_pool.shutdown pool)
    (fun () ->
      Alcotest.(check bool) "size within request" true
        (RT.Domain_pool.size pool >= 1 && RT.Domain_pool.size pool <= 4);
      let n = 1000 in
      let hits = Array.make n 0 in
      RT.Domain_pool.run pool n (fun i -> hits.(i) <- hits.(i) + 1);
      Alcotest.(check bool) "every index ran exactly once" true
        (Array.for_all (fun h -> h = 1) hits);
      (* a second job reuses the same workers *)
      let acc = Atomic.make 0 in
      RT.Domain_pool.run pool 257 (fun i -> ignore (Atomic.fetch_and_add acc i));
      Alcotest.(check int) "sum over indices" (257 * 256 / 2) (Atomic.get acc);
      (* zero-count job is a no-op *)
      RT.Domain_pool.run pool 0 (fun _ -> Alcotest.fail "must not run"))

let test_domain_pool_propagates_exception () =
  let pool = RT.Domain_pool.create 3 in
  Fun.protect
    ~finally:(fun () -> RT.Domain_pool.shutdown pool)
    (fun () ->
      (try
         RT.Domain_pool.run pool 64 (fun i -> if i = 37 then failwith "tile 37");
         Alcotest.fail "expected the task failure to re-raise"
       with Failure msg -> Alcotest.(check string) "first fault" "tile 37" msg);
      (* the pool survives a failed job *)
      let ok = Atomic.make 0 in
      RT.Domain_pool.run pool 16 (fun _ -> Atomic.incr ok);
      Alcotest.(check int) "pool usable after failure" 16 (Atomic.get ok))

let test_domain_pool_shutdown_idempotent () =
  let pool = RT.Domain_pool.create 8 in
  RT.Domain_pool.run pool 8 ignore;
  RT.Domain_pool.shutdown pool;
  RT.Domain_pool.shutdown pool

(* ------------------------------------------------------------------ *)
(* Hot-path kernel regressions                                         *)
(* ------------------------------------------------------------------ *)

let run1 op inputs =
  match RT.Kernels.run op inputs with
  | [ t ] -> t
  | _ -> Alcotest.fail "expected one output"

(* Float Mod used to truncate through int_of_float; it must follow ONNX
   integer-mod semantics — result takes the sign of the divisor. *)
let test_mod_float_semantics () =
  (* f64 operands: the expectations below are exact to 1e-9, beyond what
     the default f32 scalars can carry. *)
  let scalar64 v = Tensor.of_floats Tensor.F64 [] [| v |] in
  let check a b want =
    let got =
      Tensor.get_f (run1 (Op.Binary Op.Mod2) [ scalar64 a; scalar64 b ]) [||]
    in
    if Float.abs (got -. want) > 1e-9 then
      Alcotest.failf "%g mod %g: expected %g, got %g" a b want got
  in
  check 5.3 2.0 1.3;
  check (-5.3) 2.0 0.7;
  check 5.3 (-2.0) (-0.7);
  check (-5.3) (-2.0) (-1.3);
  check 6.0 3.0 0.0;
  check (-6.0) 3.0 0.0;
  (* huge operands used to collapse through int truncation *)
  check 1e10 3.0 1.0;
  (* int mod keeps OCaml/ONNX truncated semantics, in sync with Expr *)
  let gi a b =
    Tensor.get_i (run1 (Op.Binary Op.Mod2) [ Tensor.scalar_i a; Tensor.scalar_i b ]) [||]
  in
  Alcotest.(check int) "int mod" (-2) (gi (-7) 5)

let reshape dims target =
  let rng = Rng.create 3 in
  let data = Tensor.rand_uniform rng dims in
  run1 Op.Reshape [ data; Tensor.of_int_list target ]

let expect_shape_error msg f =
  try
    ignore (f ());
    Alcotest.failf "%s: expected Sod2_error" msg
  with Sod2_error.Error { cls = Sod2_error.Shape_mismatch; _ } -> ()

let test_reshape_resolution () =
  Alcotest.(check (list int)) "-1 infers" [ 4; 6 ] (Tensor.dims (reshape [ 2; 3; 4 ] [ 4; -1 ]));
  Alcotest.(check (list int)) "0 copies input dim" [ 2; 12 ]
    (Tensor.dims (reshape [ 2; 3; 4 ] [ 0; 12 ]));
  Alcotest.(check (list int)) "0 and -1 combine" [ 2; 3; 4 ]
    (Tensor.dims (reshape [ 2; 3; 4 ] [ 0; 3; -1 ]));
  expect_shape_error "0 past input rank" (fun () -> reshape [ 6 ] [ 6; 0 ]);
  expect_shape_error "non-divisible -1" (fun () -> reshape [ 2; 3; 4 ] [ 5; -1 ]);
  expect_shape_error "element count mismatch" (fun () -> reshape [ 2; 3; 4 ] [ 5; 5 ]);
  expect_shape_error "two -1s" (fun () -> reshape [ 2; 3; 4 ] [ -1; -1 ]);
  expect_shape_error "negative dim" (fun () -> reshape [ 2; 3; 4 ] [ -2; 12 ])

(* c = 7 with groups = 2 used to pass the integer-division check against
   cg = 3; it must raise, on both conv implementations. *)
let test_conv_group_check () =
  let rng = Rng.create 4 in
  let x = Tensor.rand_uniform rng [ 1; 7; 5; 5 ] in
  let w = Tensor.rand_uniform rng [ 4; 3; 2; 2 ] in
  let conv ?(into = naive_conv) ~groups x =
    conv2d ~into ~stride:(1, 1) ~pad:(0, 0, 0, 0) ~dilation:(1, 1) ~groups x w None
  in
  expect_shape_error "naive conv rejects" (fun () -> conv ~groups:2 x);
  expect_shape_error "im2col conv rejects" (fun () ->
      conv ~into:(Blocked.conv2d_im2col_into ?par:None) ~groups:2 x);
  expect_shape_error "zero groups" (fun () -> conv ~groups:0 x);
  (* channels divisible but weight channels-per-group inconsistent *)
  let x8 = Tensor.rand_uniform rng [ 1; 8; 5; 5 ] in
  expect_shape_error "cg mismatch" (fun () -> conv ~groups:2 x8)

(* Concat copies by stride, so operands that disagree off the axis must
   be refused up front rather than written to the wrong offsets. *)
let test_concat_shape_check () =
  let rng = Rng.create 6 in
  let a = Tensor.rand_uniform rng [ 2; 3 ] and b = Tensor.rand_uniform rng [ 2; 4 ] in
  expect_shape_error "off-axis dims differ" (fun () -> Transform.concat [ a; b ] ~axis:0);
  expect_shape_error "ranks differ" (fun () ->
      Transform.concat [ a; Tensor.rand_uniform rng [ 2; 3; 1 ] ] ~axis:0);
  Alcotest.(check (list int)) "axis 1 joins" [ 2; 7 ]
    (Tensor.dims (Transform.concat [ a; b ] ~axis:1));
  (* float operands run the destination kernel, which checks the same *)
  let concat axis xs = Sod2_runtime.Kernels.run (Op.Concat { axis }) xs in
  expect_shape_error "kernel: off-axis dims differ" (fun () -> concat 0 [ a; b ]);
  expect_shape_error "kernel: ranks differ" (fun () ->
      concat 0 [ a; Tensor.rand_uniform rng [ 2; 3; 1 ] ]);
  Alcotest.(check bool) "kernel: axis 1 joins as Transform does" true
    (Tensor.equal (Transform.concat [ a; b ] ~axis:1) (List.hd (concat 1 [ a; b ])))

let suite =
  [
    Alcotest.test_case "gemm: blocked = naive" `Quick test_gemm_blocked_matches_naive;
    Alcotest.test_case "gemm: parallel = naive" `Quick test_gemm_parallel_matches_naive;
    Alcotest.test_case "conv: im2col = naive" `Quick test_conv_im2col_matches_naive;
    Alcotest.test_case "conv: parallel im2col = naive" `Quick
      test_conv_im2col_parallel_matches_naive;
    Alcotest.test_case "backend: heavy ops match reference" `Quick
      test_backend_ops_match_reference;
    Alcotest.test_case "backend: parallel elementwise" `Quick test_backend_elementwise;
    Alcotest.test_case "backend: kind names" `Quick test_backend_kind_names;
    Alcotest.test_case "backend: end-to-end run matches" `Quick test_backend_end_to_end;
    Alcotest.test_case "pool: runs every index once" `Quick test_domain_pool_runs_all;
    Alcotest.test_case "pool: propagates task failure" `Quick
      test_domain_pool_propagates_exception;
    Alcotest.test_case "pool: shutdown idempotent" `Quick
      test_domain_pool_shutdown_idempotent;
    Alcotest.test_case "mod: float follows divisor sign" `Quick test_mod_float_semantics;
    Alcotest.test_case "reshape: dim resolution" `Quick test_reshape_resolution;
    Alcotest.test_case "conv: group check" `Quick test_conv_group_check;
    Alcotest.test_case "concat: operand dims checked" `Quick test_concat_shape_check;
    Alcotest.test_case "blocked gemm matches naive on random extents" `Quick
      test_gemm_blocked_random;
    Alcotest.test_case "conv: implicit im2col bit for bit at offsets and the stem" `Quick
      test_conv_implicit_stem;
    QCheck_alcotest.to_alcotest prop_gemm_blocked_blocks;
    QCheck_alcotest.to_alcotest prop_conv_im2col_random;
    QCheck_alcotest.to_alcotest prop_conv_depthwise_bitexact;
    QCheck_alcotest.to_alcotest prop_block_unary;
    QCheck_alcotest.to_alcotest prop_block_binary;
    QCheck_alcotest.to_alcotest prop_gather_odometer;
    QCheck_alcotest.to_alcotest prop_block_norm;
    QCheck_alcotest.to_alcotest prop_norm_run32;
    Alcotest.test_case "gemm: two-quad tile and its one-quad tail bit for bit" `Quick
      test_gemm_tile_rows;
    Alcotest.test_case "erf: signed zeros bit for bit" `Quick test_erf_signed_zero;
    QCheck_alcotest.to_alcotest prop_erf_libm;
    QCheck_alcotest.to_alcotest prop_gelu_libm;
    QCheck_alcotest.to_alcotest prop_erf_odd;
  ]
