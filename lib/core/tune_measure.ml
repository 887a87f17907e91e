(* Measurement harness backing the autotuner's Measured/Hybrid objectives:
   candidate configs are timed on the real blocked kernels at a class
   representative, min-of-rounds over a calibrated repeat loop. *)

let counter_kind = "tune-measurement"

type measurer = Autotune.config -> float

let tiles_of_config (c : Autotune.config) =
  Blocked.tiles_of ~tile_m:c.Autotune.tile_m ~tile_n:c.Autotune.tile_n
    ~tile_k:c.Autotune.tile_k ~unroll:c.Autotune.unroll

(* Deterministic non-trivial operand data (no subnormals, mixed signs). *)
let filled dt len =
  let buf = Tensor.fbuf_create dt len in
  for i = 0 to len - 1 do
    Tensor.fbuf_set buf i (float_of_int ((i mod 13) - 6) *. 0.125)
  done;
  buf

let record ~profile = Profile.Counters.record ~profile ~kind:counter_kind

let measurement_count () =
  match List.assoc_opt counter_kind (Profile.Counters.by_kind ()) with
  | Some n -> n
  | None -> 0

let gemm_measurer ?(dt = Tensor.F32) ?(par = Blocked.sequential) ?(rounds = 3)
    ?(profile = "unprofiled") ~m ~n ~k () : measurer =
  let a = filled dt (m * k) in
  let b = filled dt (k * n) in
  let c = Tensor.fbuf_create dt (m * n) in
  fun cfg ->
    record ~profile;
    let tiles = tiles_of_config cfg in
    Clock.time_us ~rounds (fun () ->
        Blocked.gemm ~par ~tiles ~m ~n ~k ~a ~ao:0 ~b ~bo:0 ~c ~co:0 ())

let conv_measurer ?(dt = Tensor.F32) ?(par = Blocked.sequential) ?(rounds = 3)
    ?(profile = "unprofiled") ~n ~ci ~co ~kh ~kw ~h ~w () : measurer =
  let x = Tensor.of_fbuf [ n; ci; h; w ] (filled dt (n * ci * h * w)) in
  let wt = Tensor.of_fbuf [ co; ci; kh; kw ] (filled dt (co * ci * kh * kw)) in
  fun cfg ->
    record ~profile;
    let tiles = tiles_of_config cfg in
    Clock.time_us ~rounds (fun () ->
        ignore
          (Blocked.conv2d_im2col ~par ~tiles ~stride:(1, 1) ~pad:(1, 1, 1, 1)
             ~dilation:(1, 1) ~groups:1 x wt None))

let tune_class ?(objective = Autotune.Hybrid) ?(seed = 7) ?(rounds = 3)
    ?(generations = 12) ?(population = 16) ?(finalists = 6)
    ?(par = Blocked.sequential) (p : Profile.t) ~dt cls =
  let m, n, k = List.assoc cls Multi_version.representatives in
  let measure = gemm_measurer ~dt ~par ~rounds ~profile:p.Profile.name ~m ~n ~k () in
  let rng = Rng.create seed in
  let cfg, _ =
    Autotune.tune ~generations ~population ~objective ~measure ~finalists p rng ~m ~n
      ~k
  in
  cfg, measure cfg

let tune_table ?(objective = Autotune.Hybrid) ?(seed = 7) ?rounds ?generations
    ?population ?finalists ?par p ~dt =
  let tuned idx cls =
    fst
      (tune_class ~objective ~seed:(seed + idx) ?rounds ?generations ?population
         ?finalists ?par p ~dt cls)
  in
  Multi_version.of_configs
    ~fat:(tuned 0 Multi_version.Fat)
    ~regular:(tuned 1 Multi_version.Regular)
    ~skinny:(tuned 2 Multi_version.Skinny)
    ~tiny:(tuned 3 Multi_version.Tiny)
