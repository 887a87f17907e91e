(* Quantization schemes: choosing a scale and zero point from float
   data, and quantizing and dequantizing through int8 payloads.  The
   int8 kernels ({!Blocked.gemm_i8_dequant}) take the scales from here
   and dequantize in their write-back; no int8 value is ever produced
   from an accumulator. *)

module BA1 = Bigarray.Array1

type scheme =
  | Per_tensor of { scale : float; zero_point : int }
  | Per_channel of { axis : int; scales : float array; zero_points : int array }

type qtensor = { q : Tensor.t; qscheme : scheme }

let clamp_i8 v = if v > 127 then 127 else if v < -128 then -128 else v

(* ---------------------------------------------------------------- *)
(* Choosing schemes from float data                                  *)

let float_view t =
  if Tensor.is_float_dtype (Tensor.dtype t) then Tensor.view_f t
  else invalid_arg "Quant: scheme selection wants a float tensor"

(* Element access for the loops below, defined here so it inlines: a
   float returned from a call into another module is boxed. *)
let[@inline] fget buf i =
  match buf with
  | Tensor.FB32 b -> BA1.unsafe_get b i
  | Tensor.FB64 b -> BA1.unsafe_get b i

(* Read in place.  The zero value must stay exactly representable
   (padding, ReLU cut-offs), so the range always includes 0. *)
let range_of (v : Tensor.view) =
  let mn = ref 0.0 and mx = ref 0.0 in
  for i = v.Tensor.voff to v.Tensor.voff + Tensor.view_numel v - 1 do
    let x = fget v.Tensor.vbuf i in
    if x < !mn then mn := x;
    if x > !mx then mx := x
  done;
  (!mn, !mx)

let per_tensor_of_range ~symmetric mn mx =
  if symmetric then begin
    let a = Float.max (Float.abs mn) (Float.abs mx) in
    let scale = if a = 0.0 then 1.0 else a /. 127.0 in
    Per_tensor { scale; zero_point = 0 }
  end
  else begin
    let scale = if mx = mn then 1.0 else (mx -. mn) /. 255.0 in
    let zp = clamp_i8 (int_of_float (Float.round (-128.0 -. (mn /. scale)))) in
    Per_tensor { scale; zero_point = zp }
  end

let choose_per_tensor ?(symmetric = false) t =
  let mn, mx = range_of (float_view t) in
  per_tensor_of_range ~symmetric mn mx

(* Per-channel is symmetric by construction (zero points pinned to 0):
   asymmetric per-channel weights would break the row-sum zero-point
   correction the packed kernels rely on, and match no deployed format. *)
let choose_per_channel ~axis t =
  let dims = Tensor.dims_arr t in
  if axis < 0 || axis >= Array.length dims then
    invalid_arg "Quant.choose_per_channel: axis out of range";
  let ch = dims.(axis) in
  let inner = ref 1 in
  for i = axis + 1 to Array.length dims - 1 do
    inner := !inner * dims.(i)
  done;
  let inner = !inner in
  let v = float_view t in
  let maxabs = Array.make ch 0.0 in
  for flat = 0 to Tensor.view_numel v - 1 do
    let c = flat / inner mod ch in
    let a = Float.abs (Tensor.fbuf_get v.Tensor.vbuf (v.Tensor.voff + flat)) in
    if a > maxabs.(c) then maxabs.(c) <- a
  done;
  let scales =
    Array.map (fun a -> if a = 0.0 then 1.0 else a /. 127.0) maxabs
  in
  Per_channel { axis; scales; zero_points = Array.make ch 0 }

(* ---------------------------------------------------------------- *)
(* Applying schemes                                                  *)

(* The scheme's scales and zero points, and how a flat index finds its
   entry: [flat / inner mod channels] (a per-tensor scheme is one channel
   that every index finds). *)
let channels scheme dims =
  match scheme with
  | Per_tensor { scale; zero_point } -> [| scale |], [| zero_point |], 1, 1
  | Per_channel { axis; scales; zero_points } ->
    if axis < 0 || axis >= Array.length dims then
      invalid_arg "Quant: scheme axis out of range for tensor";
    if Array.length scales <> dims.(axis) then
      invalid_arg "Quant: scheme channel count mismatches tensor";
    let inner = Array.fold_left ( * ) 1 (Array.sub dims (axis + 1) (Array.length dims - axis - 1)) in
    scales, zero_points, inner, dims.(axis)

(* [Tensor.saturating_int_of_float], inlined for the loop below. *)
let[@inline] sat_int v =
  if Float.is_nan v then 0
  else if v >= float_of_int max_int then max_int
  else if v <= float_of_int min_int then min_int
  else int_of_float v

(* A float view quantized under [scheme], read in place; the loop reads
   the buffer and the scale without boxing either. *)
let quantize_view (v : Tensor.view) scheme =
  let scales, zps, inner, ch = channels scheme (Array.of_list v.Tensor.vdims) in
  let n = Tensor.view_numel v and xb = v.Tensor.vbuf and xo = v.Tensor.voff in
  let q = BA1.create Bigarray.int8_signed Bigarray.c_layout n in
  for i = 0 to n - 1 do
    let c = i / inner mod ch in
    let x = Float.round (fget xb (xo + i) /. Array.unsafe_get scales c) in
    BA1.unsafe_set q i (clamp_i8 (sat_int x + Array.unsafe_get zps c))
  done;
  { q = Tensor.of_i8buf v.Tensor.vdims q; qscheme = scheme }

let quantize t scheme = quantize_view (float_view t) scheme

let quantize_activation v =
  let mn, mx = range_of v in
  quantize_view v (per_tensor_of_range ~symmetric:false mn mx)

let dequantize { q; qscheme } =
  if Tensor.dtype q <> Tensor.I8 then
    invalid_arg "Quant.dequantize: expected an i8 tensor";
  let scales, zps, inner, ch = channels qscheme (Tensor.dims_arr q) in
  let data = Tensor.data_i q in
  let out =
    Array.mapi (fun i v -> float_of_int (v - zps.(i / inner mod ch)) *. scales.(i / inner mod ch)) data
  in
  Tensor.of_floats Tensor.F32 (Tensor.dims q) out

let scale_of = function
  | Per_tensor { scale; _ } -> scale
  | Per_channel _ -> invalid_arg "Quant.scale_of: per-channel scheme"

let zero_point_of = function
  | Per_tensor { zero_point; _ } -> zero_point
  | Per_channel _ -> invalid_arg "Quant.zero_point_of: per-channel scheme"

let channel_scales = function
  | Per_tensor { scale; _ } -> [| scale |]
  | Per_channel { scales; _ } -> scales
