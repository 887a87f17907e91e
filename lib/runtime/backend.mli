(** Kernel-backend selection: naive reference loops, cache-blocked
    kernels, or blocked kernels driven by the domain pool.

    A backend bundles the autotuner's per-shape-class configurations
    ({!Multi_version.table}) with an optional {!Domain_pool.t}; each heavy
    call site resolves a shape class (preferring the compile-time RDP
    resolution when the caller has one) and runs the matching kernel
    variant.  [Naive] reproduces the reference interpreter bit-exactly and
    is what {!Kernels.run} uses when no backend is given, so guarded
    fallback and golden comparisons stay byte-stable. *)

type kind =
  | Naive  (** reference scalar loop nests *)
  | Blocked  (** packed, register-tiled kernels, single domain *)
  | Parallel  (** blocked kernels + domain pool + parallel elementwise *)
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

val versions : t -> Multi_version.table
(** The version table kernel call sites currently select from. *)

val set_versions : t -> Multi_version.table -> unit
(** Swap the version table in place.  The write is a single immutable-
    record pointer store, so concurrent kernel calls see either the old or
    the new table wholesale — the engine's drift re-tuner uses this to
    retarget live workers without stopping them. *)

val pool_size : t -> int
(** Domains the pool actually uses (1 when no pool). *)

val shutdown : t -> unit
(** Joins the pool's worker domains, if any. *)

val gemm_kernel : ?cls:Multi_version.shape_class -> t -> Linalg.gemm_kernel
(** The inner GEMM this backend selects; [cls] pins the shape class
    (compile-time resolution), otherwise the observed extents classify. *)

val matmul : ?cls:Multi_version.shape_class -> t -> Tensor.t -> Tensor.t -> Tensor.t

val matmul_into :
  ?cls:Multi_version.shape_class -> t -> Tensor.view -> Tensor.view ->
  c:Tensor.fbuf -> co:int -> int list
(** Destination-passing {!matmul} through this backend's inner GEMM;
    writes into [c] at element offset [co], returns the result dims. *)

val gemm :
  ?cls:Multi_version.shape_class -> t -> alpha:float -> beta:float -> trans_a:bool ->
  trans_b:bool -> Tensor.t -> Tensor.t -> Tensor.t option -> Tensor.t

val conv2d :
  ?cls:Multi_version.shape_class -> t -> stride:int * int ->
  pad:int * int * int * int -> dilation:int * int -> groups:int ->
  Tensor.t -> Tensor.t -> Tensor.t option -> Tensor.t

val conv2d_into :
  ?cls:Multi_version.shape_class -> t -> stride:int * int ->
  pad:int * int * int * int -> dilation:int * int -> groups:int ->
  Tensor.view -> Tensor.view -> Tensor.view option ->
  c:Tensor.fbuf -> co:int -> int list
(** Destination-passing {!conv2d} (naive loops or blocked im2col by shape
    class); writes into [c] at element offset [co], returns the result
    dims. *)

val conv1d :
  ?cls:Multi_version.shape_class -> t -> stride:int -> pad:int * int ->
  dilation:int -> groups:int -> Tensor.t -> Tensor.t -> Tensor.t option -> Tensor.t

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

val matmul_q8 :
  ?cls:Multi_version.shape_class -> t -> Tensor.t -> Quant.qtensor -> Tensor.t
(** [matmul_q8 t x qw] — float [x : [m;k]] times int8 weight
    [qw : [k;n]] (per-tensor symmetric), float result. *)

val matmul_q8_into :
  ?cls:Multi_version.shape_class -> t -> Tensor.t -> Quant.qtensor ->
  c:Tensor.fbuf -> co:int -> int list
(** Destination-passing {!matmul_q8}: writes into [c] at element offset
    [co] (every output element is overwritten), returns the dims. *)

val conv2d_q8 :
  ?cls:Multi_version.shape_class -> t -> stride:int * int ->
  pad:int * int * int * int -> dilation:int * int -> groups:int ->
  Tensor.t -> Quant.qtensor -> Tensor.t option -> Tensor.t
(** Quantized NCHW convolution: float activation, int8 OIHW weight
    (per-channel symmetric over axis 0), optional float bias folded into
    the epilogue. *)

val conv2d_q8_into :
  ?cls:Multi_version.shape_class -> t -> stride:int * int ->
  pad:int * int * int * int -> dilation:int * int -> groups:int ->
  Tensor.t -> Quant.qtensor -> Tensor.t option ->
  c:Tensor.fbuf -> co:int -> int list
(** Destination-passing {!conv2d_q8}. *)

val map_f : t -> (float -> float) -> Tensor.t -> Tensor.t
(** Elementwise map, chunked over the pool for large float tensors;
    otherwise {!Tensor.map_f}. *)

val map2 : t -> (float -> float -> float) -> Tensor.t -> Tensor.t -> Tensor.t
(** Binary elementwise map, parallel for large same-shape float tensors;
    broadcasts and integer tensors take the sequential path. *)

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

type fused_result = {
  fr_out : Graph.tensor_id;  (** the terminal output tensor's id *)
  fr_tensor : Tensor.t;  (** its value *)
  fr_dims : (Graph.tensor_id * int list) list;
      (** concrete dims of every member output (internal ones are never
          materialized — these let the executor track dims and traffic) *)
}

val par_of : t -> Sod2_tensor.Blocked.par
(** The parallel runner backing this backend's kernels (sequential when it
    has no pool) — what callers pass to {!Fused_compile.kernel} entry
    points obtained from {!fused_kernel}. *)

val fused_kernel :
  t -> ?tpl:Fused_compile.template -> Pipeline.compiled -> gid:int ->
  args:(int list * Tensor.dtype) list -> Fused_compile.kernel option
(** Resolve fusion group [gid] under the concrete slot shapes [args] to a
    specialized kernel, through the per-(group × shapes) cache —
    compiling on first sight, caching failures.  [None] means op-by-op
    execution (non-[Fused] backend, no template, failed specialization, or
    variant budget exhausted).  [tpl] overrides the artifact's base
    template for [gid] — the executor passes the entry it consulted in a
    plan variant's masked array ({!Fused_compile.restrict}); because
    masked arrays share template {e values} with the base plan, variant
    and base runs resolve to the same cache entries (the cache checks
    template identity, so a stale template from another artifact can
    never be served).  The arena executor uses this directly so it can
    drive [k_run_into] with destination slots; {!fused_run} wraps it for
    the boxed path. *)

val fused_run :
  t -> ?tpl:Fused_compile.template -> Pipeline.compiled -> gid:int ->
  fetch:(Graph.tensor_id -> Tensor.t) -> fused_result option
(** Execute fusion group [gid] as one compiled kernel.  [fetch] supplies
    the group's external input tensors.  Returns [None] — meaning the
    caller must run the group op-by-op — when the backend is not [Fused],
    the group has no template, specialization failed for these shapes
    (e.g. I64 element inputs), or the group exhausted its live-variant
    budget.  Specializations are cached per (group × concrete shapes), so
    repeated samples skip recompilation.  Only use a backend with the
    artifact it was created for ({!for_compiled}): kernels are validated
    against the template by physical identity. *)
