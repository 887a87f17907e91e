(** Kernel-backend selection: naive reference loops, or cache-blocked
    kernels over a domain pool with fused groups.

    A backend bundles its kind with the resources its kernels run on.  It
    owns no float kernels: {!Kernels.run_into} runs every operator, heavy
    ones through {!Multi_version.heavy_kernel} with {!blocked} and
    {!par_of}.
    [Naive] reproduces the reference interpreter bit-exactly and is what
    {!Kernels.run} uses when no backend is given, so guarded fallback and
    golden comparisons stay byte-stable.  A [Blocked] backend owns a
    {!Domain_pool.t} sized by the host and runs each templated fusion
    group as one cached fused kernel ({!fused_kernel}); op-by-op
    execution on blocked kernels is an artifact whose templates are
    withheld ([{ c with fused = Array.map (fun _ -> None) c.fused }]). *)

type kind =
  | Naive  (** reference scalar loop nests, op by op *)
  | Blocked
      (** packed, register-tiled kernels and block-program maps over a
          domain pool; whole fusion groups execute as single compiled
          kernels ({!Fused_compile}) with a per-(group × shape) cache *)

val kind_name : kind -> string
val kind_of_string : string -> kind option
(** Inverts {!kind_name}; ["fused"], the spelling from before every
    blocked backend ran fused groups, also reads as [Blocked]. *)

type t

val create : ?versions:Multi_version.table -> ?threads:int -> ?profile:string -> kind -> t
(** [create kind] — [threads] (the pool of a [Blocked] backend) defaults
    to the host's recommended domain count, and the pool clamps it to the
    host; {!Engine} divides the host across its workers, and
    [~threads:1] gives a single-domain backend.  [profile] names the
    device in {!Profile.Counters} records.  [versions] is accepted and
    ignored: the kernels have one tiling. *)

val for_compiled : kind -> Pipeline.compiled -> t
(** A backend over the whole host whose counters are recorded under the
    compiled artifact's profile name. *)

val pool_size : t -> int
(** Domains the pool actually uses (1 when no pool). *)

val shutdown : t -> unit
(** Joins the pool's worker domains, if any. *)

val blocked : t -> bool
(** Whether heavy operators may run the blocked kernels
    ({!Multi_version.heavy_kernel}): every kind but [Naive]. *)

val gemm_kernel : t -> Linalg.gemm_kernel
(** {!Multi_version.gemm_kernel} for this backend: the extents of each
    product classify it. *)

val record : t -> string -> unit
(** Count one event of the kind in {!Profile.Counters}, under this
    backend's profile — how an int8 execution counts its
    ["quant-kernel"]. *)

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
    execution (naive backend, no template, failed specialization, or
    the group's live-variant budget exhausted).  The cache checks
    template identity, so a stale template from another artifact can
    never be served.  A [None] for a templated group on a [Blocked]
    backend counts one reject, so the executor calls this exactly once
    per group execution; on
    [Some k] it writes the terminal result through [k.k_run_into] into
    the destination it chose for [k.k_out] in [k.k_dtype]. *)
