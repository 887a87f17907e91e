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

let tiles t cls =
  let cfg = config_for t cls in
  Blocked.tiles_of ~tile_m:cfg.Autotune.tile_m ~tile_n:cfg.Autotune.tile_n
    ~tile_k:cfg.Autotune.tile_k ~unroll:cfg.Autotune.unroll

(* The dispatch rule, the one place it is written: a problem runs the
   blocked kernel of its class's version, except on a naive backend
   ([versions = None]) and for Tiny problems, where packing would cost
   more than the whole product — both take the naive loop ([None]). *)
let kernel_tiles versions cls =
  match versions, cls with
  | None, _ | _, Tiny -> None
  | Some t, cls -> Some (tiles t cls)

let gemm_kernel ?cls ~par versions : Linalg.gemm_kernel =
 fun ~m ~n ~k ~a ~ao ~b ~bo ~c ~co ->
  let cls = match cls with Some c -> c | None -> classify_gemm ~m ~n ~k in
  match kernel_tiles versions cls with
  | None -> Linalg.naive_kernel ~m ~n ~k ~a ~ao ~b ~bo ~c ~co
  | Some tiles -> Blocked.gemm ~par ~tiles ~m ~n ~k ~a ~ao ~b ~bo ~c ~co ()

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

let heavy_result (op : Op.t) (vs : Tensor.view list) =
  match op, vs, conv2d_of op with
  | Op.MatMul, [ a; b ], _ -> Some (Linalg.matmul_out_dims a.Tensor.vdims b.Tensor.vdims, promoted vs)
  | Op.Gemm { trans_a; trans_b; _ }, a :: b :: rest, _
    when promoted (a :: b :: Option.to_list (bias_of rest)) = promoted [ a; b ] ->
    let op_of tr (v : Tensor.view) =
      match tr, v.Tensor.vdims with
      | false, d -> d
      | true, d0 :: d1 :: _ -> [ d1; d0 ]
      | true, _ -> invalid_arg "Gemm: a transposed operand must be 2-d"
    in
    Some (Linalg.matmul_out_dims (op_of trans_a a) (op_of trans_b b), promoted [ a; b ])
  | _, x :: w :: _, Some (stride, pad, dilation, _, one_d) -> (
    match
      Linalg.conv2d_out_dims ~stride ~pad ~dilation
        (unit_height one_d x.Tensor.vdims) (unit_height one_d w.Tensor.vdims)
    with
    | od when List.exists (fun d -> d < 0) od ->
      invalid_arg (Op.name op ^ ": the kernel window exceeds the padded input")
    | [ n; m; _; ol ] when one_d -> Some ([ n; m; ol ], promoted [ x; w ])
    | od -> Some (od, promoted [ x; w ]))
  | _ -> None

let heavy_into ?cls ~par versions (op : Op.t) (vs : Tensor.view list) ~c ~co =
  let inner = gemm_kernel ?cls ~par versions in
  match op, vs, conv2d_of op with
  | Op.MatMul, [ a; b ], _ -> ignore (Linalg.matmul_into ~inner a b ~c ~co)
  | Op.Gemm { alpha; beta; trans_a; trans_b }, a :: b :: rest, _ ->
    ignore (Linalg.gemm_into ~inner ~alpha ~beta ~trans_a ~trans_b a b (bias_of rest) ~c ~co)
  | _, x :: w :: rest, Some (stride, pad, dilation, groups, one_d) ->
    let x = Tensor.view_reshape x (unit_height one_d x.Tensor.vdims) in
    let w = Tensor.view_reshape w (unit_height one_d w.Tensor.vdims) in
    let cls =
      match cls with
      | Some c -> c
      | None -> conv_class ~stride ~pad ~dilation x.Tensor.vdims w.Tensor.vdims
    in
    ignore
      (match kernel_tiles versions cls with
      | None -> Linalg.conv2d_into ~stride ~pad ~dilation ~groups x w (bias_of rest) ~c ~co
      | Some tiles ->
        Blocked.conv2d_im2col_into ~par ~tiles ~stride ~pad ~dilation ~groups x w (bias_of rest)
          ~c ~co)
  | _ -> invalid_arg ("Multi_version.heavy_into: no heavy kernel for " ^ Op.name op)
