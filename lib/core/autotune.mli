(** Genetic-algorithm auto-tuner for heavy-kernel configurations (§4.4.2).

    SoD² generates multiple optimized versions of hotspot kernels (GEMM and
    CONV) and selects among them by shape class at run time.  Here a kernel
    version is a point in a schedule space — tiling, unrolling, thread
    count, vectorization — whose quality on a given problem size and device
    is predicted by an analytical efficiency model (fraction of the
    device's peak throughput attained).  The tuner searches the space with
    a small genetic algorithm, as the paper's DNNFusion-based tuner does;
    a random-search baseline is provided for the ablation. *)

type config = {
  tile_m : int;
  tile_n : int;
  tile_k : int;
  unroll : int;
  threads : int;
  vectorize : bool;
}

val default_config : config
(** The generic kernel a framework ships without tuning. *)

val efficiency : Profile.t -> config -> m:int -> n:int -> k:int -> float
(** Predicted fraction of peak throughput for a GEMM of the given extents
    (convolutions are lowered to implicit GEMM).  In [\[0.05, 0.95\]];
    deterministic. *)

val tune :
  ?generations:int -> ?population:int -> Profile.t -> Rng.t ->
  m:int -> n:int -> k:int -> config * float
(** GA search over the {!efficiency} model; returns the best configuration
    and its efficiency.  {!default_config} seeds the incumbent, so the
    winner never scores worse than the untuned default. *)

val random_search :
  ?trials:int -> Profile.t -> Rng.t -> m:int -> n:int -> k:int -> config * float
(** Uniform random search with the same evaluation budget as {!tune}'s
    default (for comparing search strategies). *)

val pp_config : Format.formatter -> config -> unit
