(** Quantization schemes for dynamic-range int8 inference.

    A {!scheme} maps float values to signed bytes ([q = round(x/scale) +
    zero_point], clamped to [[-128, 127]]) either uniformly
    ({!Per_tensor}) or with one scale per slice of a chosen axis
    ({!Per_channel}, symmetric — zero points pinned to 0, matching the
    deployed per-channel weight formats and the row-sum zero-point
    correction the packed int8 kernels rely on). *)

type scheme =
  | Per_tensor of { scale : float; zero_point : int }
  | Per_channel of { axis : int; scales : float array; zero_points : int array }

type qtensor = { q : Tensor.t; qscheme : scheme }
(** A quantized payload ({!Tensor.I8}) carrying the scheme that decodes
    it — the currency of the pipeline's weight-quantization table. *)

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
