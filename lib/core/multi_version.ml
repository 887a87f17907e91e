type shape_class =
  | Fat
  | Regular
  | Skinny
  | Tiny

let class_name = function
  | Fat -> "fat"
  | Regular -> "regular"
  | Skinny -> "skinny"
  | Tiny -> "tiny"

let classify ~m ~n =
  if m <= 8 || n <= 8 then Skinny else if m >= 256 && n >= 256 then Fat else Regular

(* With the contraction depth known the degenerate problems (where packing
   overhead exceeds the whole naive product) get their own class. *)
let classify_gemm ~m ~n ~k =
  if m > 0 && n > 0 && k > 0 && m * n * k <= 4096 then Tiny else classify ~m ~n

type table = {
  fat : Autotune.config;
  regular : Autotune.config;
  skinny : Autotune.config;
  tiny : Autotune.config;
  versioned : bool;
}

let representatives =
  [
    Fat, (512, 512, 256);
    Regular, (96, 96, 96);
    Skinny, (4, 512, 256);
    Tiny, (16, 16, 16);
  ]

let build ?(seed = 7) p =
  let tune_for idx cls =
    let _, (m, n, k) = List.find (fun (c, _) -> c = cls) representatives in
    fst (Autotune.tune p (Rng.create (seed + idx)) ~m ~n ~k)
  in
  {
    fat = tune_for 0 Fat;
    regular = tune_for 1 Regular;
    skinny = tune_for 2 Skinny;
    tiny = tune_for 3 Tiny;
    versioned = true;
  }

(* The single-version baseline ships exactly the multi-version table's
   regular kernel for every shape class — the comparison then isolates the
   effect of versioning itself. *)
let single_version ?(seed = 7) p =
  let t = build ~seed p in
  {
    fat = t.regular;
    regular = t.regular;
    skinny = t.regular;
    tiny = t.regular;
    versioned = false;
  }

let untuned =
  {
    fat = Autotune.default_config;
    regular = Autotune.default_config;
    skinny = Autotune.default_config;
    tiny = Autotune.default_config;
    versioned = false;
  }

let config_for t = function
  | Fat -> t.fat
  | Regular -> t.regular
  | Skinny -> t.skinny
  | Tiny -> t.tiny

let efficiency_for p t ~m ~n ~k =
  (* The regular version always ships; the class-specific version is used
     when it wins on the observed extents, so versioning never hurts. *)
  let cls = Autotune.efficiency p (config_for t (classify_gemm ~m ~n ~k)) ~m ~n ~k in
  let generic = Autotune.efficiency p t.regular ~m ~n ~k in
  Float.max cls generic

let prod = List.fold_left (fun a d -> a * max 1 d) 1

let gemm_dims_of_op (op : Op.t) ~in_dims ~out_dims =
  match op, in_dims, out_dims with
  | Op.Conv _, _ :: w :: _, out :: _ -> (
    match w, out with
    | [ mch; cg; kh; kw ], [ b; _; oh; ow ] ->
      Some (mch, b * oh * ow, cg * kh * kw)
    | _ -> None)
  | Op.Conv1d _, _ :: w :: _, out :: _ -> (
    match w, out with
    | [ mch; cg; kk ], [ b; _; ol ] -> Some (mch, b * ol, cg * kk)
    | _ -> None)
  | (Op.MatMul | Op.Gemm _), a :: _, out :: _ when List.length a >= 2 && List.length out >= 2 ->
    let k = List.nth a (List.length a - 1) in
    let n = List.nth out (List.length out - 1) in
    let m = prod out / max 1 n in
    Some (m, n, k)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* The heavy-operator kernels                                          *)

(* The dispatch rule, the one place a class becomes a kernel: a problem
   runs the blocked kernel, except on a naive backend ([blocked = false])
   and for Tiny problems, where packing would cost more than the whole
   product — both take the naive loop. *)
let runs_blocked ~blocked cls = blocked && cls <> Tiny

let gemm_kernel ~par ~blocked : Linalg.gemm_kernel =
 fun ~m ~n ~k ~a ~ao ~b ~bo ~c ~co ->
  if runs_blocked ~blocked (classify_gemm ~m ~n ~k) then
    Blocked.gemm ~par ~m ~n ~k ~a ~ao ~b ~bo ~c ~co ()
  else Linalg.naive_kernel ~m ~n ~k ~a ~ao ~b ~bo ~c ~co

(* The class of a 2-d convolution's im2col GEMM over NCHW input dims
   against OIHW weight dims. *)
let conv_class ~stride ~pad ~dilation xdims wdims =
  match Linalg.conv2d_out_dims ~stride ~pad ~dilation xdims wdims, wdims with
  | [ n; m; oh; ow ], [ _; cg; kh; kw ] -> classify_gemm ~m ~n:(n * oh * ow) ~k:(cg * kh * kw)
  | _ -> assert false

(* Conv and Conv1d as one 2-d convolution: a Conv1d is a Conv of unit
   height, its operands [a; b; l] read as [a; b; 1; l]. *)
let conv2d_of (op : Op.t) =
  match op with
  | Op.Conv { stride; pads; dilation; groups } -> Some (stride, pads, dilation, groups, false)
  | Op.Conv1d { stride1; pads1 = pl, pr; dilation1; groups1 } ->
    Some ((1, stride1), (0, pl, 0, pr), (1, dilation1), groups1, true)
  | _ -> None

let unit_height one_d d =
  match one_d, d with
  | false, d -> d
  | true, [ a; b; l ] -> [ a; b; 1; l ]
  | true, _ -> invalid_arg "Conv1d: expects an N×C×L input and an M×C×K weight"

let promoted = List.fold_left (fun acc v -> Tensor.promote_f acc (Tensor.view_dtype v)) Tensor.F32
let bias_of = function [ b ] -> Some b | _ -> None

(* A Gemm's transposed operands are copied into pooled scratch: per
   operand, a grow-only buffer under the view the last call needed, so a
   repeated shape allocates nothing. *)
type gemm_scratch = { mutable ta : Tensor.view; mutable tb : Tensor.view }

let gemm_pool =
  Blocked.Pool.create (fun () ->
      let none = Tensor.sub_view ~buf:(Tensor.fbuf_create Tensor.F32 0) ~off:0 ~dims:[ 0 ] in
      { ta = none; tb = none })

(* The 2-d [v] transposed by a stride walk into [held]'s storage (regrown
   when too small or of another kind): the view of the copy. *)
let transpose_into (held : Tensor.view) (v : Tensor.view) =
  match v.Tensor.vdims with
  | [ r; s ] ->
    let dt = Tensor.view_dtype v in
    let t =
      match held.Tensor.vdims with
      | [ s'; r' ] when s' = s && r' = r && Tensor.view_dtype held = dt -> held
      | _ ->
        let fits = Tensor.view_dtype held = dt && Tensor.fbuf_len held.Tensor.vbuf >= r * s in
        Tensor.sub_view ~off:0 ~dims:[ s; r ]
          ~buf:(if fits then held.Tensor.vbuf else Tensor.fbuf_create dt (r * s))
    in
    let o = v.Tensor.voff in
    (match v.Tensor.vbuf, t.Tensor.vbuf with
    | Tensor.FB32 src, Tensor.FB32 dst ->
      for i = 0 to r - 1 do
        for j = 0 to s - 1 do
          Bigarray.Array1.unsafe_set dst ((j * r) + i) (Bigarray.Array1.unsafe_get src (o + (i * s) + j))
        done
      done
    | Tensor.FB64 src, Tensor.FB64 dst ->
      for i = 0 to r - 1 do
        for j = 0 to s - 1 do
          Bigarray.Array1.unsafe_set dst ((j * r) + i) (Bigarray.Array1.unsafe_get src (o + (i * s) + j))
        done
      done
    | _ -> assert false);
    t
  | _ -> invalid_arg "Gemm: a transposed operand must be 2-d"

(* The int8 arm (dynamic-range quantization): the activation is
   calibrated and quantized per tensor at call time, read in place from
   its view; the packed int8 kernels accumulate in int32 and fold the
   dequantization — scale product, per output channel for a conv, plus
   the bias — into the write-back.  The int8 kernels have no naive loop,
   so they run Tiny problems too. *)
let i8 (t : Quant.qtensor) = Tensor.storage_i8 t.Quant.q

let matmul_i8 ~par x (qw : Quant.qtensor) ~m ~n ~k ~c ~co =
  let qx = Quant.quantize_activation x in
  let scale = Quant.scale_of qx.Quant.qscheme *. Quant.scale_of qw.Quant.qscheme in
  (* no bias: adding [-0.0] leaves every value as it is *)
  Blocked.gemm_i8_dequant ~par ~za:(Quant.zero_point_of qx.Quant.qscheme) ~zb:0
    ~scale:[| scale |] ~bias:[| -0.0 |] ~m ~n ~k ~a:(i8 qx) ~ao:0 ~b:(i8 qw) ~bo:0 ~c ~co ()

(* per output channel: the activation scale times the channel's weight
   scale, and the float bias (0.0 without one) *)
let conv_i8 ~par ~stride ~pad ~dilation ~groups x (qw : Quant.qtensor) bias ~c ~co =
  let qx = Quant.quantize_activation x in
  let sx = Quant.scale_of qx.Quant.qscheme and ws = Quant.channel_scales qw.Quant.qscheme in
  let m = List.hd (Tensor.dims qw.Quant.q) in
  let scale = Array.init m (fun ch -> sx *. ws.(if Array.length ws = 1 then 0 else ch)) in
  let bias =
    Array.init m (fun ch ->
        match bias with Some b -> Tensor.fbuf_get b.Tensor.vbuf (b.Tensor.voff + ch) | None -> 0.0)
  in
  ignore
    (Blocked.conv2d_i8_dequant_into ~par ~zx:(Quant.zero_point_of qx.Quant.qscheme) ~zw:0
       ~scale ~bias ~stride ~pad ~dilation ~groups ~x:(i8 qx) ~xoff:0
       ~xdims:(Array.of_list x.Tensor.vdims) ~w:(i8 qw) ~woff:0
       ~wdims:(Array.of_list (Tensor.dims qw.Quant.q)) ~c ~co ())

let heavy_kernel ?int8 ~par ~blocked (op : Op.t) (vs : Tensor.view list) =
  let inner = gemm_kernel ~par ~blocked in
  (* the int8 payload and its per-execution hook, off a naive backend *)
  let int8 = if blocked then int8 else None in
  let counted ran kernel ~c ~co =
    kernel ~c ~co;
    ran ()
  in
  match op, vs, conv2d_of op with
  | Op.MatMul, [ a; b ], _ ->
    let dims = Linalg.matmul_out_dims a.Tensor.vdims b.Tensor.vdims in
    Some
      ( dims,
        promoted vs,
        match int8, a.Tensor.vdims, dims with
        | Some (qw, ran), [ m; k ], [ _; n ] when k > 0 && Tensor.dims qw.Quant.q = [ k; n ] ->
          counted ran (matmul_i8 ~par a qw ~m ~n ~k)
        | _ -> fun ~c ~co -> ignore (Linalg.matmul_into ~inner a b ~c ~co) )
  | Op.Gemm { alpha; beta; trans_a; trans_b }, a :: b :: rest, _
    when promoted (a :: b :: Option.to_list (bias_of rest)) = promoted [ a; b ] ->
    let op_of tr (v : Tensor.view) =
      match tr, v.Tensor.vdims with
      | false, d -> d
      | true, d0 :: d1 :: _ -> [ d1; d0 ]
      | true, _ -> invalid_arg "Gemm: a transposed operand must be 2-d"
    in
    let gemm a b ~c ~co = ignore (Linalg.gemm_into ~inner ~alpha ~beta a b (bias_of rest) ~c ~co) in
    Some
      ( Linalg.matmul_out_dims (op_of trans_a a) (op_of trans_b b),
        promoted [ a; b ],
        fun ~c ~co ->
          if not (trans_a || trans_b) then gemm a b ~c ~co
          else
            Blocked.Pool.use gemm_pool (fun s ->
                if trans_a then s.ta <- transpose_into s.ta a;
                if trans_b then s.tb <- transpose_into s.tb b;
                gemm (if trans_a then s.ta else a) (if trans_b then s.tb else b) ~c ~co) )
  | _, x :: w :: rest, Some (stride, pad, dilation, groups, one_d) ->
    let x = Tensor.view_reshape x (unit_height one_d x.Tensor.vdims) in
    let w = Tensor.view_reshape w (unit_height one_d w.Tensor.vdims) in
    let dims =
      match Linalg.conv2d_out_dims ~stride ~pad ~dilation x.Tensor.vdims w.Tensor.vdims with
      | od when List.exists (fun d -> d < 0) od ->
        invalid_arg (Op.name op ^ ": the kernel window exceeds the padded input")
      | [ n; m; _; ol ] when one_d -> [ n; m; ol ]
      | od -> od
    in
    let cls = conv_class ~stride ~pad ~dilation x.Tensor.vdims w.Tensor.vdims in
    Some
      ( dims,
        promoted [ x; w ],
        match int8 with
        | Some (qw, ran) when not one_d ->
          counted ran (conv_i8 ~par ~stride ~pad ~dilation ~groups x qw (bias_of rest))
        | _ when runs_blocked ~blocked cls ->
          fun ~c ~co ->
            ignore
              (Blocked.conv2d_im2col_into ~par ~stride ~pad ~dilation ~groups x w (bias_of rest)
                 ~c ~co)
        | _ ->
          fun ~c ~co ->
            ignore (Linalg.conv2d_into ~stride ~pad ~dilation ~groups x w (bias_of rest) ~c ~co) )
  | _ -> None
