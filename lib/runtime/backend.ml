type kind =
  | Naive
  | Blocked
  | Parallel
  | Fused

let kind_name = function
  | Naive -> "naive"
  | Blocked -> "blocked"
  | Parallel -> "parallel"
  | Fused -> "fused"

let kind_of_string = function
  | "naive" -> Some Naive
  | "blocked" -> Some Blocked
  | "parallel" -> Some Parallel
  | "fused" -> Some Fused
  | _ -> None

(* One specialized fused kernel per (group × concrete shape tuple).
   [fe_kernel = None] caches a specialization failure so the op-by-op
   fallback is taken without recompiling every sample.  The template is
   kept for a physical-identity check: a backend reused across compiled
   artifacts must never run another graph's kernel. *)
type fused_entry = {
  fe_tpl : Fused_compile.template;
  fe_kernel : Fused_compile.kernel option;
}

type t = {
  kind : kind;
  mutable versions : Multi_version.table;
      (* swapped atomically (single pointer write) by the engine's drift
         re-tuner; every kernel call site reads it at most once *)
  pool : Domain_pool.t option;
  profile_name : string;
  fused_cache : (int * (int list * Tensor.dtype) list, fused_entry) Hashtbl.t;
  fused_variants : (int, int) Hashtbl.t;  (* gid -> cached variant count *)
  mutable fused_hits : int;
  mutable fused_misses : int;
  mutable fused_rejects : int;
}

let create ?(versions = Multi_version.untuned) ?threads ?(profile = "unprofiled") kind =
  let pool =
    match kind with
    | Parallel | Fused ->
      let n =
        match threads with Some n -> n | None -> Domain.recommended_domain_count ()
      in
      Some (Domain_pool.create n)
    | Naive | Blocked -> None
  in
  {
    kind;
    versions;
    pool;
    profile_name = profile;
    fused_cache = Hashtbl.create 32;
    fused_variants = Hashtbl.create 8;
    fused_hits = 0;
    fused_misses = 0;
    fused_rejects = 0;
  }

let for_compiled kind (c : Pipeline.compiled) =
  create ~versions:c.Pipeline.versions ~threads:c.Pipeline.profile.Profile.cores
    ~profile:c.Pipeline.profile.Profile.name kind

let kind_of t = t.kind
let versions t = t.versions
let set_versions t v = t.versions <- v
let pool_size t = match t.pool with Some p -> Domain_pool.size p | None -> 1
let shutdown t = Option.iter Domain_pool.shutdown t.pool

let par_of t =
  match t.pool with Some p -> Domain_pool.par p | None -> Sod2_tensor.Blocked.sequential

let tiles_for t cls =
  let cfg = Multi_version.config_for t.versions cls in
  Sod2_tensor.Blocked.tiles_of ~tile_m:cfg.Autotune.tile_m ~tile_n:cfg.Autotune.tile_n
    ~tile_k:cfg.Autotune.tile_k ~unroll:cfg.Autotune.unroll

(* One GEMM call site: the static class (from compile-time RDP resolution)
   wins when present; otherwise the observed extents classify the problem.
   Tiny problems always take the naive reference loop — packing would cost
   more than the whole product. *)
let gemm_kernel ?cls t : Linalg.gemm_kernel =
 fun ~m ~n ~k ~a ~ao ~b ~bo ~c ~co ->
  let cls = match cls with Some c -> c | None -> Multi_version.classify_gemm ~m ~n ~k in
  match t.kind, cls with
  | Naive, _ | _, Multi_version.Tiny ->
    Linalg.naive_kernel ~m ~n ~k ~a ~ao ~b ~bo ~c ~co
  | (Blocked | Parallel | Fused), _ ->
    Sod2_tensor.Blocked.gemm ~par:(par_of t) ~tiles:(tiles_for t cls) ~m ~n ~k ~a ~ao ~b
      ~bo ~c ~co ()

let matmul ?cls t a b =
  match t.kind with
  | Naive -> Linalg.matmul a b
  | Blocked | Parallel | Fused -> Linalg.matmul ~inner:(gemm_kernel ?cls t) a b

let matmul_into ?cls t va vb ~c ~co =
  match t.kind with
  | Naive -> Linalg.matmul_into va vb ~c ~co
  | Blocked | Parallel | Fused ->
    Linalg.matmul_into ~inner:(gemm_kernel ?cls t) va vb ~c ~co

let gemm ?cls t ~alpha ~beta ~trans_a ~trans_b a b c =
  match t.kind with
  | Naive -> Linalg.gemm ~alpha ~beta ~trans_a ~trans_b a b c
  | Blocked | Parallel | Fused ->
    Linalg.gemm ~inner:(gemm_kernel ?cls t) ~alpha ~beta ~trans_a ~trans_b a b c

let conv_class ?cls ~stride ~pad ~dilation x w =
  match cls with
  | Some c -> c
  | None ->
    let dx = Tensor.dims_arr x and dw = Tensor.dims_arr w in
    let sh, sw = stride and dh, dw_ = dilation in
    let pt, pl, pb, pr = pad in
    let oh =
      Linalg.conv2d_out_dim ~in_:dx.(2) ~kernel:dw.(2) ~stride:sh ~pad_begin:pt
        ~pad_end:pb ~dilation:dh
    in
    let ow =
      Linalg.conv2d_out_dim ~in_:dx.(3) ~kernel:dw.(3) ~stride:sw ~pad_begin:pl
        ~pad_end:pr ~dilation:dw_
    in
    Multi_version.classify_gemm ~m:dw.(0) ~n:(dx.(0) * oh * ow)
      ~k:(dw.(1) * dw.(2) * dw.(3))

let conv2d ?cls t ~stride ~pad ~dilation ~groups x w b =
  match t.kind with
  | Naive -> Linalg.conv2d ~stride ~pad ~dilation ~groups x w b
  | Blocked | Parallel | Fused -> (
    match conv_class ?cls ~stride ~pad ~dilation x w with
    | Multi_version.Tiny -> Linalg.conv2d ~stride ~pad ~dilation ~groups x w b
    | c ->
      Sod2_tensor.Blocked.conv2d_im2col ~par:(par_of t) ~tiles:(tiles_for t c) ~stride
        ~pad ~dilation ~groups x w b)

let conv2d_into ?cls t ~stride ~pad ~dilation ~groups vx vw vb ~c ~co =
  match t.kind with
  | Naive -> Linalg.conv2d_into ~stride ~pad ~dilation ~groups vx vw vb ~c ~co
  | Blocked | Parallel | Fused -> (
    let dx = Array.of_list vx.Tensor.vdims and dw = Array.of_list vw.Tensor.vdims in
    let cl =
      match cls with
      | Some cl -> cl
      | None ->
        let sh, sw = stride and dh, dw_ = dilation in
        let pt, pl, pb, pr = pad in
        let oh =
          Linalg.conv2d_out_dim ~in_:dx.(2) ~kernel:dw.(2) ~stride:sh ~pad_begin:pt
            ~pad_end:pb ~dilation:dh
        in
        let ow =
          Linalg.conv2d_out_dim ~in_:dx.(3) ~kernel:dw.(3) ~stride:sw ~pad_begin:pl
            ~pad_end:pr ~dilation:dw_
        in
        Multi_version.classify_gemm ~m:dw.(0) ~n:(dx.(0) * oh * ow)
          ~k:(dw.(1) * dw.(2) * dw.(3))
    in
    match cl with
    | Multi_version.Tiny ->
      Linalg.conv2d_into ~stride ~pad ~dilation ~groups vx vw vb ~c ~co
    | cl ->
      Sod2_tensor.Blocked.conv2d_im2col_into ~par:(par_of t) ~tiles:(tiles_for t cl)
        ~stride ~pad ~dilation ~groups vx vw vb ~c ~co)

let conv1d ?cls t ~stride ~pad ~dilation ~groups x w b =
  match t.kind with
  | Naive -> Linalg.conv1d ~stride ~pad ~dilation ~groups x w b
  | Blocked | Parallel | Fused -> (
    (* Same unit-height lowering as {!Linalg.conv1d}, but through the
       backend's conv2d so the blocked path applies. *)
    match Tensor.dims x, Tensor.dims w with
    | [ n; c; l ], [ m; cg; k ] ->
      let x' = Tensor.reshape x [ n; c; 1; l ] in
      let w' = Tensor.reshape w [ m; cg; 1; k ] in
      let pl, pr = pad in
      let out =
        conv2d ?cls t ~stride:(1, stride) ~pad:(0, pl, 0, pr) ~dilation:(1, dilation)
          ~groups x' w' b
      in
      (match Tensor.dims out with
      | [ n'; m'; 1; ol ] -> Tensor.reshape out [ n'; m'; ol ]
      | _ -> assert false)
    | _ -> Linalg.conv1d ~stride ~pad ~dilation ~groups x w b)

(* ------------------------------------------------------------------ *)
(* Int8 weight-quantized execution (dynamic-range quantization)        *)

(* The activation side of the TFLite dynamic-range recipe: calibrate and
   quantize the float activation per-tensor (asymmetric) at call time.
   Weights arrive already quantized from an int8 {!Pipeline.compile}. *)
let dyn_quant_activation x =
  let scheme = Quant.choose_per_tensor ~symmetric:false x in
  let qx = Quant.quantize x scheme in
  Quant.scale_of scheme, Quant.zero_point_of scheme, qx.Quant.q

(* [matmul_q8_into t x qw ~c ~co] writes the dequantized product of the
   2-D float activation [x] and the int8 weight payload [qw] into the
   float buffer [c] at element offset [co], returning the output dims.
   The int8 GEMM's epilogue folds the scale product into the micro-tile
   write-back, so no int32 intermediate is materialized and the result
   composes with the float arena exactly like any other dest-passing
   kernel.  Every output element is overwritten — no zero-init needed. *)
let matmul_q8_into ?cls t x (qw : Quant.qtensor) ~c ~co =
  match Tensor.dims x, Tensor.dims qw.Quant.q with
  | [ m; k ], [ k'; n ] when k = k' && k > 0 ->
    let sx, zx, qa = dyn_quant_activation x in
    let sw = Quant.scale_of qw.Quant.qscheme in
    let scale = sx *. sw in
    let cls = match cls with Some c -> c | None -> Multi_version.classify_gemm ~m ~n ~k in
    Sod2_tensor.Blocked.gemm_i8_dequant ~par:(par_of t) ~tiles:(tiles_for t cls)
      ~za:zx ~zb:0
      ~epilogue:(fun _ acc -> float_of_int acc *. scale)
      ~ep_off:co ~m ~n ~k ~a:(Tensor.storage_i8 qa) ~ao:0
      ~b:(Tensor.storage_i8 qw.Quant.q) ~bo:0 ~c ~co ();
    [ m; n ]
  | _ ->
    Sod2_error.failf ~op:"MatMul" Sod2_error.Shape_mismatch
      "Backend.matmul_q8: expects float x [m;k] against int8 weight [k;n]"

let matmul_q8 ?cls t x qw =
  let fdt = if Tensor.dtype x = Tensor.F64 then Tensor.F64 else Tensor.F32 in
  match Tensor.dims x, Tensor.dims qw.Quant.q with
  | [ m; _ ], [ _; n ] ->
    let buf = Tensor.fbuf_create fdt (m * n) in
    let dims = matmul_q8_into ?cls t x qw ~c:buf ~co:0 in
    Tensor.of_fbuf dims buf
  | _ ->
    Sod2_error.failf ~op:"MatMul" Sod2_error.Shape_mismatch
      "Backend.matmul_q8: expects float x [m;k] against int8 weight [k;n]"

(* Quantized NCHW convolution into a float destination.  Per-channel
   weight scales (and the float bias, when present) are folded into the
   dequantization epilogue: the output-channel index of element [ei] is
   [ei / (oh·ow) mod m] because [ep_off] makes epilogue indices
   output-relative. *)
let conv2d_q8_into ?cls t ~stride ~pad ~dilation ~groups x (qw : Quant.qtensor) bias
    ~c ~co =
  match Tensor.dims x, Tensor.dims qw.Quant.q with
  | [ n; ch; h; w ], [ m; cg; kh; kw ] ->
    let sx, zx, qa = dyn_quant_activation x in
    let wscales = Quant.channel_scales qw.Quant.qscheme in
    let sh, sw_ = stride and dh, dw_ = dilation in
    let pt, pl, pb, pr = pad in
    let oh =
      Linalg.conv2d_out_dim ~in_:h ~kernel:kh ~stride:sh ~pad_begin:pt ~pad_end:pb
        ~dilation:dh
    in
    let ow =
      Linalg.conv2d_out_dim ~in_:w ~kernel:kw ~stride:sw_ ~pad_begin:pl ~pad_end:pr
        ~dilation:dw_
    in
    let sp = oh * ow in
    let chscale =
      if Array.length wscales = 1 then
        let s = sx *. wscales.(0) in
        fun _ -> s
      else fun chn -> sx *. Array.unsafe_get wscales chn
    in
    let epilogue =
      match bias with
      | None -> fun ei acc -> float_of_int acc *. chscale (ei / sp mod m)
      | Some b ->
        let bv = Array.init m (fun i -> Tensor.get_f b [| i |]) in
        fun ei acc ->
          let chn = ei / sp mod m in
          (float_of_int acc *. chscale chn) +. Array.unsafe_get bv chn
    in
    let cl =
      match cls with
      | Some cl -> cl
      | None -> Multi_version.classify_gemm ~m ~n:(n * sp) ~k:(cg * kh * kw)
    in
    Sod2_tensor.Blocked.conv2d_i8_dequant_into ~par:(par_of t) ~tiles:(tiles_for t cl)
      ~zx ~zw:0 ~epilogue ~ep_off:co ~stride ~pad ~dilation ~groups
      ~x:(Tensor.storage_i8 qa) ~xoff:0 ~xdims:[| n; ch; h; w |]
      ~w:(Tensor.storage_i8 qw.Quant.q) ~woff:0 ~wdims:[| m; cg; kh; kw |] ~c ~co ()
  | _ ->
    Sod2_error.failf ~op:"Conv" Sod2_error.Shape_mismatch
      "Backend.conv2d_q8: expects float x NCHW against int8 weight OIHW"

let conv2d_q8 ?cls t ~stride ~pad ~dilation ~groups x (qw : Quant.qtensor) bias =
  let fdt = if Tensor.dtype x = Tensor.F64 then Tensor.F64 else Tensor.F32 in
  match Tensor.dims x, Tensor.dims qw.Quant.q with
  | [ n; _; h; w ], [ m; _; kh; kw ] ->
    let sh, sw_ = stride and dh, dw_ = dilation in
    let pt, pl, pb, pr = pad in
    let oh =
      Linalg.conv2d_out_dim ~in_:h ~kernel:kh ~stride:sh ~pad_begin:pt ~pad_end:pb
        ~dilation:dh
    in
    let ow =
      Linalg.conv2d_out_dim ~in_:w ~kernel:kw ~stride:sw_ ~pad_begin:pl ~pad_end:pr
        ~dilation:dw_
    in
    let buf = Tensor.fbuf_create fdt (n * m * oh * ow) in
    let dims =
      conv2d_q8_into ?cls t ~stride ~pad ~dilation ~groups x qw bias ~c:buf ~co:0
    in
    Tensor.of_fbuf dims buf
  | _ ->
    Sod2_error.failf ~op:"Conv" Sod2_error.Shape_mismatch
      "Backend.conv2d_q8: expects float x NCHW against int8 weight OIHW"

(* Data-parallel elementwise maps.  Only same-shape float tensors above the
   grain size go through the pool; everything else falls back to the
   sequential {!Tensor} maps (which also own the broadcast/int/mixed-kind
   cases).  Chunk bodies are matched on the storage kind once per call so
   the per-element loop is a monomorphic bigarray access; an f32 store
   rounds exactly like the sequential map's store does. *)
module BA1 = Bigarray.Array1

let grain = 16_384

let map_f t f x =
  match t.pool with
  | Some pool
    when Domain_pool.size pool > 1
         && Tensor.is_float_dtype (Tensor.dtype x)
         && Tensor.numel x >= 2 * grain ->
    let len = Tensor.numel x in
    let out = Tensor.zeros (Tensor.dtype x) (Tensor.dims x) in
    let body : int -> int -> unit =
      match Tensor.storage_f x, Tensor.storage_f out with
      | Tensor.FB32 s, Tensor.FB32 d ->
        fun lo hi ->
          for i = lo to hi - 1 do
            BA1.unsafe_set d i (f (BA1.unsafe_get s i))
          done
      | Tensor.FB64 s, Tensor.FB64 d ->
        fun lo hi ->
          for i = lo to hi - 1 do
            BA1.unsafe_set d i (f (BA1.unsafe_get s i))
          done
      | _ -> assert false
    in
    let chunks = (len + grain - 1) / grain in
    Domain_pool.run pool chunks (fun ci ->
        let lo = ci * grain in
        body lo (min len (lo + grain)));
    out
  | _ -> Tensor.map_f f x

(* ------------------------------------------------------------------ *)
(* Fused-group execution                                               *)

(* Live-variant budget per group: a group whose concrete shapes never
   repeat (fully dynamic extents) would otherwise grow the cache without
   bound AND pay a specialization per sample for nothing.  Past the cap
   the group simply stays on op-by-op kernels. *)
let fused_variant_cap = 32

type fused_stats = {
  hits : int;  (** executions served by a cached specialized kernel *)
  misses : int;  (** specializations compiled (first sight of a shape) *)
  rejects : int;  (** executions that fell back to op-by-op kernels *)
  variants : int;  (** live specialized kernels across all groups *)
}

let fused_stats t =
  let variants =
    Hashtbl.fold
      (fun _ e acc -> if e.fe_kernel <> None then acc + 1 else acc)
      t.fused_cache 0
  in
  { hits = t.fused_hits; misses = t.fused_misses; rejects = t.fused_rejects; variants }

type fused_result = {
  fr_out : Graph.tensor_id;
  fr_tensor : Tensor.t;
  fr_dims : (Graph.tensor_id * int list) list;
}

let counter t kind = Profile.Counters.record ~profile:t.profile_name ~kind

(* Shared cache lookup: resolve (group × concrete shape tuple) to a
   specialized kernel, compiling at most once per shape and caching
   failures so the op-by-op fallback is taken without recompiling.  Both
   the boxed path ({!fused_run}) and the arena executor's
   destination-passing path go through here.  [tpl] lets a caller
   executing under a variant-masked template array
   ({!Fused_compile.restrict}) name the exact template it consulted;
   masked arrays share template values with the base plan, so variant
   runs land on the same cache entries (the [fe_tpl == tpl] identity
   check below is what enforces this). *)
let fused_kernel t ?tpl (c : Pipeline.compiled) ~gid
    ~(args : (int list * Tensor.dtype) list) =
  if t.kind <> Fused then None
  else
    match (match tpl with Some _ -> tpl | None -> c.Pipeline.fused.(gid)) with
    | None -> None
    | Some tpl ->
      let key = gid, args in
      let entry =
        match Hashtbl.find_opt t.fused_cache key with
        | Some e when e.fe_tpl == tpl ->
          if e.fe_kernel <> None then begin
            t.fused_hits <- t.fused_hits + 1;
            counter t "fused-cache-hit"
          end;
          Some e
        | _ ->
          let nvar =
            Option.value ~default:0 (Hashtbl.find_opt t.fused_variants gid)
          in
          if nvar >= fused_variant_cap then begin
            counter t "fused-variant-overflow";
            None
          end
          else begin
            t.fused_misses <- t.fused_misses + 1;
            counter t "fused-cache-miss";
            let kernel =
              match
                Fused_compile.specialize c.Pipeline.graph tpl ~tiles:(tiles_for t)
                  ~args:(Array.of_list args)
              with
              | Ok k -> Some k
              | Error _ -> None
            in
            let e = { fe_tpl = tpl; fe_kernel = kernel } in
            Hashtbl.replace t.fused_cache key e;
            Hashtbl.replace t.fused_variants gid (nvar + 1);
            Some e
          end
      in
      (match entry with
      | Some { fe_kernel = Some k; _ } -> Some k
      | Some { fe_kernel = None; _ } | None ->
        t.fused_rejects <- t.fused_rejects + 1;
        counter t "fused-reject";
        None)

let fused_run t ?tpl (c : Pipeline.compiled) ~gid
    ~(fetch : Graph.tensor_id -> Tensor.t) =
  if t.kind <> Fused then None
  else
    match (match tpl with Some _ -> tpl | None -> c.Pipeline.fused.(gid)) with
    | None -> None
    | Some tpl ->
      let args_t = Array.map fetch tpl.Fused_compile.t_slots in
      let shapes =
        Array.to_list (Array.map (fun x -> Tensor.dims x, Tensor.dtype x) args_t)
      in
      (match fused_kernel t ~tpl c ~gid ~args:shapes with
      | Some k ->
        let out = k.Fused_compile.k_run ~par:(par_of t) args_t in
        Some
          {
            fr_out = k.Fused_compile.k_out;
            fr_tensor = out;
            fr_dims = k.Fused_compile.k_dims;
          }
      | None -> None)

let map2 t f x y =
  match t.pool with
  | Some pool
    when Domain_pool.size pool > 1
         && Tensor.is_float_dtype (Tensor.dtype x)
         && Tensor.dtype x = Tensor.dtype y
         && Tensor.dims x = Tensor.dims y
         && Tensor.numel x >= 2 * grain ->
    let len = Tensor.numel x in
    let out = Tensor.zeros (Tensor.dtype x) (Tensor.dims x) in
    let body : int -> int -> unit =
      match Tensor.storage_f x, Tensor.storage_f y, Tensor.storage_f out with
      | Tensor.FB32 sx, Tensor.FB32 sy, Tensor.FB32 d ->
        fun lo hi ->
          for i = lo to hi - 1 do
            BA1.unsafe_set d i (f (BA1.unsafe_get sx i) (BA1.unsafe_get sy i))
          done
      | Tensor.FB64 sx, Tensor.FB64 sy, Tensor.FB64 d ->
        fun lo hi ->
          for i = lo to hi - 1 do
            BA1.unsafe_set d i (f (BA1.unsafe_get sx i) (BA1.unsafe_get sy i))
          done
      | _ -> assert false
    in
    let chunks = (len + grain - 1) / grain in
    Domain_pool.run pool chunks (fun ci ->
        let lo = ci * grain in
        body lo (min len (lo + grain)));
    out
  | _ -> Tensor.map2 f x y
