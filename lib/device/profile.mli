(** Analytical device profiles.

    The paper's testbeds are Snapdragon 888 and 835 phones; those are not
    available here, so each device is modelled by the handful of parameters
    that drive the latency and memory behaviour the paper measures: peak
    arithmetic throughput, memory bandwidth, last-level cache size, kernel
    dispatch overhead, dynamic-allocation cost, and the framework
    re-initialization costs of Table 1.  The constants are calibrated so
    that the relative effects reported in the paper (re-initialization
    dwarfing inference, GPU allocation being far costlier than CPU
    allocation, weaker SoCs amplifying memory effects) hold; absolute
    milliseconds are not claimed. *)

type target =
  | Cpu
  | Gpu

type t = {
  name : string;  (** e.g. "sd888-cpu" *)
  soc : string;  (** e.g. "Snapdragon 888" *)
  target : target;
  gflops : float;  (** sustained arithmetic throughput, GFLOP/s *)
  mem_bw_gbs : float;  (** sustained memory bandwidth, GB/s *)
  cache_bytes : int;  (** last-level cache capacity *)
  launch_overhead_us : float;  (** fixed dispatch cost per kernel *)
  malloc_base_us : float;  (** fixed cost of one dynamic allocation *)
  malloc_us_per_mb : float;  (** size-dependent allocation cost *)
  shape_fn_us : float;  (** cost of one runtime shape-function call (à la Nimble) *)
  reinit_shape_pass_us_per_op : float;
      (** shape propagation + layout selection during re-initialization (SL) *)
  reinit_tuning_us_per_op : float;  (** schedule and tuning during re-initialization (ST) *)
  cache_spill_penalty : float;
      (** bandwidth divisor applied when an operator's working set exceeds
          the cache *)
  pressure_coeff : float;
      (** sensitivity of execution latency to the inference's total memory
          footprint (cache-thrash coupling); mobile GPUs are markedly more
          sensitive to memory and data movement (§5.3) *)
}

val sd888_cpu : t
val sd888_gpu : t
val sd835_cpu : t
val sd835_gpu : t

val all : t list

val by_name : string -> t option

val pp : Format.formatter -> t -> unit

(** {1 Guarded-execution incident counters}

    Process-global counters the guarded executor bumps whenever a runtime
    guard fires or a plan partition is demoted to reference interpretation
    (see {!Guarded_exec} in the runtime library).  Keyed by device-profile
    name and incident kind so production monitoring can tell a bad plan on
    one device class from a systemic RDP soundness bug. *)

module Counters : sig
  val record : profile:string -> kind:string -> unit

  val add : profile:string -> kind:string -> int -> unit
  (** [add n] bumps the counter by [n] in one table access — the engine
      uses it when an overload/crash event settles a whole batch of
      requests at once.  [n <= 0] is a no-op. *)

  val count : profile:string -> kind:string -> int
  val by_kind : unit -> (string * int) list
  (** Aggregated over profiles, sorted by kind name. *)

  val total : unit -> int
  val reset : unit -> unit
end
