(** Quantization schemes and gemmlowp-style fixed-point requantization.

    A {!scheme} maps float values to signed bytes ([q = round(x/scale) +
    zero_point], clamped to [[-128, 127]]) either uniformly
    ({!Per_tensor}) or with one scale per slice of a chosen axis
    ({!Per_channel}, symmetric — zero points pinned to 0, matching the
    deployed per-channel weight formats and the row-sum zero-point
    correction the packed int8 kernels rely on).

    The fixed-point half is a transcription of the gemmlowp / TFLite
    reference requantization onto OCaml's native ints:
    {!srdhm} ∘ {!rounding_divide_by_pot} applied through
    {!multiply_by_quantized_multiplier} turns an int32 accumulator into
    an int8 output value with no float arithmetic.  {!Reference} in the
    runtime carries an independent transcription of the same spec; the
    qcheck suites hold the two bit-for-bit equal. *)

type scheme =
  | Per_tensor of { scale : float; zero_point : int }
  | Per_channel of { axis : int; scales : float array; zero_points : int array }

type qtensor = { q : Tensor.t; qscheme : scheme }
(** A quantized payload ({!Tensor.I8}) carrying the scheme that decodes
    it — the currency of the pipeline's weight-quantization table. *)

(** {1 Fixed-point primitives} *)

val clamp_i8 : int -> int
(** Clamp to the int8 rails [[-128, 127]]. *)

val srdhm : int -> int -> int
(** [SaturatingRoundingDoublingHighMul a b]: high 32 bits of [2·a·b],
    rounded; the lone int32 overflow case [int32_min·int32_min]
    saturates to [int32_max], as in gemmlowp. *)

val rounding_divide_by_pot : int -> int -> int
(** [rounding_divide_by_pot x e] divides by [2^e] rounding to nearest,
    ties away from zero.  [e ≤ 0] returns [x]. *)

val quantize_multiplier : float -> int * int
(** Decompose a positive real multiplier [m] as [(qm, shift)] with
    [m = qm · 2^(shift-31)], [qm ∈ [2^30, 2^31)].  Raises
    [Invalid_argument] on [m ≤ 0]. *)

val multiply_by_quantized_multiplier : int -> qm:int -> shift:int -> int
(** Fixed-point [x · qm · 2^(shift-31)]; the left-shifted operand
    saturates to the int32 range first. *)

(** {1 Requantization: int32 accumulator → int8} *)

type requant = { qm : int; shift : int; zp : int }
(** One output channel's requantization: fixed-point multiplier plus the
    output zero point. *)

val requant_of_multiplier : multiplier:float -> zp:int -> requant

val requant_of_scales :
  in_scale:float -> w_scale:float -> out_scale:float -> zp_out:int -> requant
(** The GEMM epilogue multiplier [in_scale·w_scale/out_scale]:
    accumulators carry the product of the input scales; the output wants
    its own. *)

val requantize_one : requant -> int -> int
(** Scale, round, add the output zero point, clamp to [[-128, 127]] —
    the complete scalar requantization the fused kernel epilogues fold
    into their write-back. *)

(** {1 Choosing and applying schemes} *)

val choose_per_tensor : ?symmetric:bool -> Tensor.t -> scheme
(** Min/max calibration over a float tensor; the range always includes
    0 so zero stays exactly representable.  [symmetric] pins the zero
    point to 0 (weights). *)

val choose_per_channel : axis:int -> Tensor.t -> scheme
(** Symmetric per-channel calibration along [axis] (e.g. axis 0 for
    OIHW conv weights). *)

val quantize : Tensor.t -> scheme -> qtensor
(** Float tensor → {!Tensor.I8} payload under the scheme (round half
    away from zero, clamped). *)

val quantize_activation : Tensor.view -> qtensor
(** The activation side of dynamic-range quantization: asymmetric
    {!choose_per_tensor} calibration and {!quantize} of a float view's
    values, read in place; the scale and zero point are hoisted out of
    the element loop, so it allocates only its int8 payload. *)

val dequantize : qtensor -> Tensor.t
(** {!Tensor.I8} payload → {!Tensor.F32}: [(q - zp) · scale]. *)

val scale_of : scheme -> float
(** Per-tensor scale; raises [Invalid_argument] on per-channel. *)

val zero_point_of : scheme -> int
(** Per-tensor zero point; raises [Invalid_argument] on per-channel. *)

val channel_scales : scheme -> float array
(** The scale vector: a singleton for per-tensor schemes. *)
