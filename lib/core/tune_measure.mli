(** Measured kernel tuning: the ground-truth half of the closed tuning
    loop (paper §4.4.2 + Vortex's measured strategy ranking).

    A {!measurer} times one candidate {!Autotune.config} on the real
    blocked kernel at fixed problem extents and returns its wall time in
    µs — exactly the [?measure] callback {!Autotune.tune} wants for its
    [Measured]/[Hybrid] objectives.  Timing discipline: warmup run, repeat
    count calibrated so every sample spans ≳200 µs, minimum over
    [rounds], on the monotonized {!Clock}.

    Every candidate measurement is recorded in {!Profile.Counters} under
    the kind ["tune-measurement"] — the counter the engine's
    zero-measurements-at-serving-time guarantee is verified against. *)

type measurer = Autotune.config -> float
(** Wall time of one kernel invocation under the candidate config, µs
    (min-of-rounds; always > 0). *)

val counter_kind : string
(** ["tune-measurement"]. *)

val measurement_count : unit -> int
(** Process-global number of candidate measurements so far (all profiles),
    from {!Profile.Counters}. *)

val gemm_measurer :
  ?dt:Tensor.dtype -> ?par:Blocked.par -> ?rounds:int -> ?profile:string ->
  m:int -> n:int -> k:int -> unit -> measurer
(** Times [Blocked.gemm] on deterministic m×k · k×n operands.  [par]
    (default {!Blocked.sequential}) supplies the parallel runner — pass
    the serving backend's ({!Backend.par_of}) to tune what will actually
    run.  Operand buffers are allocated once per measurer. *)

val conv_measurer :
  ?dt:Tensor.dtype -> ?par:Blocked.par -> ?rounds:int -> ?profile:string ->
  n:int -> ci:int -> co:int -> kh:int -> kw:int -> h:int -> w:int -> unit ->
  measurer
(** Times [Blocked.conv2d_im2col] (stride 1, pad 1, NCHW/OIHW). *)

val tune_class :
  ?objective:Autotune.objective -> ?seed:int -> ?rounds:int ->
  ?generations:int -> ?population:int -> ?finalists:int -> ?par:Blocked.par ->
  Profile.t -> dt:Tensor.dtype -> Multi_version.shape_class ->
  Autotune.config * float
(** Tune one shape class at its canonical representative
    ({!Multi_version.representatives}); returns the winner and its
    measured time in µs.  Default objective is [Hybrid] (analytical
    pruning, measured finals). *)

val tune_table :
  ?objective:Autotune.objective -> ?seed:int -> ?rounds:int ->
  ?generations:int -> ?population:int -> ?finalists:int -> ?par:Blocked.par ->
  Profile.t -> dt:Tensor.dtype -> Multi_version.table
(** A full measured version table: {!tune_class} per shape class,
    assembled with {!Multi_version.of_configs} — the measured counterpart
    of {!Multi_version.build}. *)
