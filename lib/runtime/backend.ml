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
  versions : Multi_version.table;
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
let pool_size t = match t.pool with Some p -> Domain_pool.size p | None -> 1
let shutdown t = Option.iter Domain_pool.shutdown t.pool

let par_of t =
  match t.pool with Some p -> Domain_pool.par p | None -> Sod2_tensor.Blocked.sequential

(* The kernel versions a heavy op dispatches on; [None] on a naive
   backend, where every heavy op takes the naive reference loop. *)
let versions t = match t.kind with Naive -> None | Blocked | Parallel | Fused -> Some t.versions

let gemm_kernel ?cls t = Multi_version.gemm_kernel ?cls ~par:(par_of t) (versions t)

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
    Sod2_tensor.Blocked.gemm_i8_dequant ~par:(par_of t) ~tiles:(Multi_version.tiles t.versions cls)
      ~za:zx ~zb:0
      ~epilogue:(fun _ acc -> float_of_int acc *. scale)
      ~ep_off:co ~m ~n ~k ~a:(Tensor.storage_i8 qa) ~ao:0
      ~b:(Tensor.storage_i8 qw.Quant.q) ~bo:0 ~c ~co ();
    [ m; n ]
  | _ ->
    Sod2_error.failf ~op:"MatMul" Sod2_error.Shape_mismatch
      "Backend.matmul_q8_into: expects float x [m;k] against int8 weight [k;n]"

(* Quantized NCHW convolution into a float destination.  Per-channel
   weight scales (and the float bias, when present) are folded into the
   dequantization epilogue: the output-channel index of element [ei] is
   [ei / (oh·ow) mod m] because [ep_off] makes epilogue indices
   output-relative. *)
let conv2d_q8_into ?cls t ~stride ~pad ~dilation ~groups x (qw : Quant.qtensor) bias
    ~c ~co =
  match Tensor.dims x, Tensor.dims qw.Quant.q with
  | ([ n; ch; h; w ] as xdims), ([ m; cg; kh; kw ] as wdims) ->
    let sx, zx, qa = dyn_quant_activation x in
    let wscales = Quant.channel_scales qw.Quant.qscheme in
    let sp =
      match Linalg.conv2d_out_dims ~stride ~pad ~dilation xdims wdims with
      | [ _; _; oh; ow ] -> oh * ow
      | _ -> assert false
    in
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
      | Some c -> c
      | None -> Multi_version.conv_class ~stride ~pad ~dilation xdims wdims
    in
    Sod2_tensor.Blocked.conv2d_i8_dequant_into ~par:(par_of t)
      ~tiles:(Multi_version.tiles t.versions cl)
      ~zx ~zw:0 ~epilogue ~ep_off:co ~stride ~pad ~dilation ~groups
      ~x:(Tensor.storage_i8 qa) ~xoff:0 ~xdims:[| n; ch; h; w |]
      ~w:(Tensor.storage_i8 qw.Quant.q) ~woff:0 ~wdims:[| m; cg; kh; kw |] ~c ~co ()
  | _ ->
    Sod2_error.failf ~op:"Conv" Sod2_error.Shape_mismatch
      "Backend.conv2d_q8_into: expects float x NCHW against int8 weight OIHW"

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

let counter t kind = Profile.Counters.record ~profile:t.profile_name ~kind

(* The cache lookup: resolve (group × concrete shape tuple) to a
   specialized kernel, compiling at most once per shape and caching
   failures so the op-by-op fallback is taken without recompiling.  The
   executor calls it once per group execution.  The [fe_tpl == tpl]
   identity check keeps a backend from serving a kernel specialized for
   another artifact's template. *)
let fused_kernel t (c : Pipeline.compiled) ~gid
    ~(args : (int list * Tensor.dtype) list) =
  if t.kind <> Fused then None
  else
    match c.Pipeline.fused.(gid) with
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
                Fused_compile.specialize c.Pipeline.graph tpl ~versions:t.versions
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
