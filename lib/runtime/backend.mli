(** Kernel-backend selection: naive reference loops, cache-blocked
    kernels, or blocked kernels driven by the domain pool.

    A backend bundles the per-shape-class kernel versions
    ({!Multi_version.table}) with an optional {!Domain_pool.t}.  It owns
    no float kernels: {!Kernels.run_into} runs every operator, heavy ones
    through {!Multi_version.heavy_into} with {!versions} and {!par_of}.
    [Naive] reproduces the reference interpreter bit-exactly and is what
    {!Kernels.run} uses when no backend is given, so guarded fallback and
    golden comparisons stay byte-stable. *)

type kind =
  | Naive  (** reference scalar loop nests *)
  | Blocked  (** packed, register-tiled kernels, single domain *)
  | Parallel  (** blocked kernels and block-program maps over a domain pool *)
  | Fused
      (** Parallel, plus whole fusion groups execute as single compiled
          kernels ({!Fused_compile}) with a per-(group × shape) cache *)

val kind_name : kind -> string
val kind_of_string : string -> kind option

type t

val create : ?versions:Multi_version.table -> ?threads:int -> ?profile:string -> kind -> t
(** [create kind] — [versions] defaults to the untuned table; [threads]
    (Parallel/Fused only) defaults to the host's recommended domain count;
    [profile] names the device in {!Profile.Counters} records. *)

val for_compiled : kind -> Pipeline.compiled -> t
(** Backend using the compiled artifact's tuned version table and device
    core count. *)

val kind_of : t -> kind

val pool_size : t -> int
(** Domains the pool actually uses (1 when no pool). *)

val shutdown : t -> unit
(** Joins the pool's worker domains, if any. *)

val versions : t -> Multi_version.table option
(** The version table heavy operators dispatch on
    ({!Multi_version.heavy_into}); [None] on a [Naive] backend. *)

val gemm_kernel : ?cls:Multi_version.shape_class -> t -> Linalg.gemm_kernel
(** {!Multi_version.gemm_kernel} for this backend; [cls] pins the shape
    class (compile-time resolution), otherwise the observed extents
    classify. *)

(** {1 Int8 weight-quantized execution}

    The runtime half of dynamic-range quantization: weights arrive as
    compile-time int8 payloads ({!Pipeline.quant_weights}), the float
    activation is calibrated and quantized per-tensor at call time, the
    packed int8 kernels accumulate in int32, and the dequantization
    epilogue (scale product, per-channel for conv, plus bias) is folded
    into the micro-tile write-back — the output is float again, so
    quantized nodes compose with the arena/engine machinery unchanged.
    These paths run the blocked int8 kernels for every backend kind and
    shape class.  The executor calls them only on non-naive backends, so
    the same quantized artifact runs float, bit-exact against
    {!Reference}, on the naive backend. *)

val matmul_q8_into :
  ?cls:Multi_version.shape_class -> t -> Tensor.t -> Quant.qtensor ->
  c:Tensor.fbuf -> co:int -> int list
(** [matmul_q8_into t x qw ~c ~co] — float [x : [m;k]] times int8
    weight [qw : [k;n]] (per-tensor symmetric), written as float into [c]
    at element offset [co] (every output element is overwritten); returns
    the dims. *)

val conv2d_q8_into :
  ?cls:Multi_version.shape_class -> t -> stride:int * int ->
  pad:int * int * int * int -> dilation:int * int -> groups:int ->
  Tensor.t -> Quant.qtensor -> Tensor.t option ->
  c:Tensor.fbuf -> co:int -> int list
(** Quantized NCHW convolution: float activation, int8 OIHW weight
    (per-channel symmetric over axis 0), optional float bias folded into
    the epilogue; written as float into [c] at element offset [co],
    returns the dims. *)

(** {1 Fused-group execution} *)

type fused_stats = {
  hits : int;  (** executions served by a cached specialized kernel *)
  misses : int;  (** specializations compiled (first sight of a shape) *)
  rejects : int;  (** executions that fell back to op-by-op kernels *)
  variants : int;  (** live specialized kernels across all groups *)
}

val fused_stats : t -> fused_stats
(** This backend's fused-kernel cache counters.  The same events are also
    recorded process-globally in {!Profile.Counters} under the kinds
    ["fused-cache-hit"], ["fused-cache-miss"], ["fused-reject"] and
    ["fused-variant-overflow"]. *)

val par_of : t -> Sod2_tensor.Blocked.par
(** The parallel runner backing this backend's kernels (sequential when it
    has no pool) — what callers pass to {!Fused_compile.kernel} entry
    points obtained from {!fused_kernel}. *)

val fused_kernel :
  t -> Pipeline.compiled -> gid:int ->
  args:(int list * Tensor.dtype) list -> Fused_compile.kernel option
(** Resolve fusion group [gid] under the concrete slot shapes [args] to a
    specialized kernel, through the per-(group × shapes) cache —
    compiling on first sight, caching failures.  [None] means op-by-op
    execution (non-[Fused] backend, no template, failed specialization, or
    the group's live-variant budget exhausted).  The cache checks
    template identity, so a stale template from another artifact can
    never be served.  A [None] for a templated group on a [Fused]
    backend counts one reject, so the executor calls this exactly once
    per group execution; on
    [Some k] it writes the terminal result through [k.k_run_into] into
    the destination it chose for [k.k_out] in [k.k_dtype]. *)
