type kind =
  | Naive
  | Blocked

let kind_name = function Naive -> "naive" | Blocked -> "blocked"

(* "fused" is the spelling of [Blocked] from before fused groups ran on
   every blocked backend; existing specs still name it. *)
let kind_of_string = function
  | "naive" -> Some Naive
  | "blocked" | "fused" -> Some Blocked
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
  pool : Domain_pool.t option;
  profile_name : string;
  fused_cache : (int * (int list * Tensor.dtype) list, fused_entry) Hashtbl.t;
  fused_variants : (int, int) Hashtbl.t;  (* gid -> cached variant count *)
  mutable fused_hits : int;
  mutable fused_misses : int;
  mutable fused_rejects : int;
}

let create ?versions:_ ?threads ?(profile = "unprofiled") kind =
  let pool =
    match kind with
    | Blocked ->
      Some
        (Domain_pool.create
           (Option.value threads ~default:(Domain.recommended_domain_count ())))
    | Naive -> None
  in
  {
    kind;
    pool;
    profile_name = profile;
    fused_cache = Hashtbl.create 32;
    fused_variants = Hashtbl.create 8;
    fused_hits = 0;
    fused_misses = 0;
    fused_rejects = 0;
  }

let for_compiled kind (c : Pipeline.compiled) = create ~profile:c.Pipeline.profile.Profile.name kind

let pool_size t = match t.pool with Some p -> Domain_pool.size p | None -> 1
let shutdown t = Option.iter Domain_pool.shutdown t.pool

let par_of t =
  match t.pool with Some p -> Domain_pool.par p | None -> Sod2_tensor.Blocked.sequential

let blocked t = t.kind <> Naive
let gemm_kernel t = Multi_version.gemm_kernel ~par:(par_of t) ~blocked:(blocked t)

let record t kind = Profile.Counters.record ~profile:t.profile_name ~kind

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

(* The cache lookup: resolve (group × concrete shape tuple) to a
   specialized kernel, compiling at most once per shape and caching
   failures so the op-by-op fallback is taken without recompiling.  The
   executor calls it once per group execution.  The [fe_tpl == tpl]
   identity check keeps a backend from serving a kernel specialized for
   another artifact's template. *)
let fused_kernel t (c : Pipeline.compiled) ~gid
    ~(args : (int list * Tensor.dtype) list) =
  match c.Pipeline.fused.(gid) with
  | Some tpl when blocked t -> (
    let key = gid, args in
    let entry =
      match Hashtbl.find_opt t.fused_cache key with
      | Some e when e.fe_tpl == tpl ->
        if e.fe_kernel <> None then begin
          t.fused_hits <- t.fused_hits + 1;
          record t "fused-cache-hit"
        end;
        Some e
      | _ ->
        let nvar = Option.value ~default:0 (Hashtbl.find_opt t.fused_variants gid) in
        if nvar >= fused_variant_cap then begin
          record t "fused-variant-overflow";
          None
        end
        else begin
          t.fused_misses <- t.fused_misses + 1;
          record t "fused-cache-miss";
          let kernel =
            match Fused_compile.specialize c.Pipeline.graph tpl ~args:(Array.of_list args) with
            | Ok k -> Some k
            | Error _ -> None
          in
          let e = { fe_tpl = tpl; fe_kernel = kernel } in
          Hashtbl.replace t.fused_cache key e;
          Hashtbl.replace t.fused_variants gid (nvar + 1);
          Some e
        end
    in
    match entry with
    | Some { fe_kernel = Some k; _ } -> Some k
    | Some { fe_kernel = None; _ } | None ->
      t.fused_rejects <- t.fused_rejects + 1;
      record t "fused-reject";
      None)
  | _ -> None
