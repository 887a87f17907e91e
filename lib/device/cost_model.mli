(** Roofline-style analytical cost model.

    An operator execution with concrete input/output extents costs
    [max (flops / throughput, bytes / bandwidth) + dispatch overhead],
    where the effective bandwidth degrades by the profile's spill penalty
    when the working set exceeds the cache.  Kernel quality enters as an
    {e efficiency} factor in [\[0, 1\]] — the fraction of peak throughput
    the chosen kernel version attains (multi-version code generation picks
    versions with higher efficiency for the observed shape class).

    Fused groups are costed as a single launch whose arithmetic is the sum
    over members but whose traffic counts only group-external tensors —
    which is precisely why fusion pays (Fig. 4). *)

val flops : Op.t -> in_dims:int list list -> out_dims:int list list -> float
(** Arithmetic work of one operator execution (floating-point ops). *)

val op_time_us :
  Profile.t -> ?efficiency:float -> Op.t -> in_dims:int list list ->
  out_dims:int list list -> float
(** Latency of a single (unfused) operator execution; memory traffic is
    billed at 4 bytes per element. *)

val group_time_us :
  Profile.t -> ?efficiency:float ->
  (Op.t * int list list * int list list) list ->
  external_bytes:int -> float
(** Latency of a fused group: one dispatch, summed flops, only
    [external_bytes] of memory traffic. *)

val malloc_time_us : Profile.t -> bytes:int -> float
(** Cost of one dynamic allocation of the given size. *)

