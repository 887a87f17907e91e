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
