(** Cache-blocked, register-tiled GEMM and im2col convolution — the "real"
    multi-version kernel backend (§4.4.2).

    The naive loop nests in {!Linalg} remain the bit-exact reference; this
    module provides the optimized variants the autotuner's tile/thread
    choices actually steer:

    - {!gemm} packs A by row tile and B by column block into panels (so
      the inner loop touches contiguous memory), computes 4×2 register
      micro-tiles whose accumulators are unboxed local floats, and runs
      (row tile × column block) tasks that a parallel runner can execute
      concurrently;
    - {!conv2d_im2col_into} lowers convolution (grouped, strided, dilated,
      padded) onto that GEMM by materializing the im2col column matrix per
      (image, group).

    Packing panels and column buffers are per-participant scratch, taken
    from a shared free list and given back after each task, bounded in
    size and reused across calls: once a shape has been seen, a float
    {!gemm} or {!conv2d_im2col_into} allocates only a constant few words
    per call, whatever the extents.

    The module is deliberately runtime-agnostic: parallelism arrives
    through the {!par} record so the tensor library does not depend on the
    runtime's domain pool. *)

type par = { run : int -> (int -> unit) -> unit }
(** [run n f] evaluates [f 0 .. f (n-1)], possibly concurrently.  Tasks
    must be independent.  {!sequential} is the inline default. *)

val sequential : par

(** A free list of reusable scratch.  Take-and-return rather than
    domain-local storage, so systhreads sharing a domain never share a
    value. *)
module Pool : sig
  type 'a t

  val create : (unit -> 'a) -> 'a t
  (** A pool whose [take] builds a value with the maker when empty. *)

  val take : 'a t -> 'a
  val give : 'a t -> 'a -> unit

  val use : 'a t -> ('a -> 'b) -> 'b
  (** [use p f] runs [f] on a taken value and gives it back, also when
      [f] raises. *)
end

type tiles = {
  tm : int;  (** macro row-tile height (parallel work unit) *)
  tn : int;  (** column-tile width within a packed column block *)
  tk : int;  (** kept for the autotuner's config space; packing is full-depth *)
  kunroll : int;  (** kept for the autotuner's config space; the micro-kernel always unrolls by 4 *)
}

val default_tiles : tiles

val tiles_of : tile_m:int -> tile_n:int -> tile_k:int -> unroll:int -> tiles
(** Sanitize an autotuner configuration into usable tile extents (clamped
    to sane minima so degenerate configs cannot starve the kernel). *)

val gemm :
  ?par:par -> ?tiles:tiles -> m:int -> n:int ->
  k:int -> a:Tensor.fbuf -> ao:int -> b:Tensor.fbuf -> bo:int ->
  c:Tensor.fbuf -> co:int -> unit -> unit
(** [gemm ~m ~n ~k ~a ~ao ~b ~bo ~c ~co] accumulates the row-major product
    [A(m×k) · B(k×n)] into [C(m×n)]: [c += a·b], reading each operand at
    its flat offset.  [C] is {e accumulated into}, not overwritten, so
    callers zero- or bias-initialize it. *)

val conv2d_im2col_into :
  ?par:par -> ?tiles:tiles -> stride:int * int -> pad:int * int * int * int ->
  dilation:int * int -> groups:int -> Tensor.view -> Tensor.view ->
  Tensor.view option -> c:Tensor.fbuf -> co:int -> int list
(** The blocked counterpart of {!Linalg.conv2d_into}: same NCHW/OIHW
    layouts, same validation, same output bits, written into [c] at
    element offset [co] (its dims are returned).  Internally each (image,
    group) pair becomes a [mg × (oh·ow) × (cg·kh·kw)] GEMM over the packed
    column matrix — except depthwise convolutions (one output channel per
    group, more than one group), which run a direct tap loop in
    {!Linalg.conv2d_into}'s summation order, bit for bit. *)

(** {1 Int8 path}

    Quantized GEMM/conv over packed int8 panels with the requantization
    (or dequantization) epilogue fused into the micro-tile write-back.
    Unlike the float {!gemm}, the destination is {e overwritten}:
    packing is full-depth, so the complete int32 accumulator for every
    element exists exactly once — at write-back, where the epilogue
    consumes it.  No int32 intermediate is ever materialized.

    The A panel packs two rows per native word (one multiply computes
    two multiply-accumulates — the reason the scalar int8 kernel beats
    the f32 one); zero points are handled by the row/column-sum
    correction [Σ(a-za)(b-zb) = Σab − zb·Σa − za·Σb + k·za·zb], so the
    epilogue always sees the exact zero-point-corrected accumulator.
    The depth is capped at 65536 so the packed accumulator fields cannot
    overflow ([Invalid_argument] beyond). *)

val gemm_i8 :
  ?par:par -> ?tiles:tiles -> za:int -> zb:int ->
  epilogue:(int -> int -> int) -> ?ep_off:int -> m:int -> n:int -> k:int ->
  a:Tensor.i8buf -> ao:int -> b:Tensor.i8buf -> bo:int ->
  c:Tensor.i8buf -> co:int -> unit -> unit
(** [epilogue ei acc] maps element [ei]'s corrected int32 accumulator to
    its int8 output value (typically {!Quant.requantize_one}); the store
    clamps to [[-128, 127]] regardless, so the rails are authoritative.
    [ei] is the element's flat index into [c] minus [ep_off] (default
    [0]): pass [~ep_off:co] for destination-relative indices. *)

val gemm_i8_dequant :
  ?par:par -> ?tiles:tiles -> za:int -> zb:int ->
  epilogue:(int -> int -> float) -> ?ep_off:int -> m:int -> n:int -> k:int ->
  a:Tensor.i8buf -> ao:int -> b:Tensor.i8buf -> bo:int ->
  c:Tensor.fbuf -> co:int -> unit -> unit
(** Same kernel, float write-back: the epilogue dequantizes the
    accumulator (scale, bias, activation) straight into a float
    destination — the dynamic-quantization form the executor uses so
    quantized nodes compose with the float arena machinery. *)

val conv2d_i8_into :
  ?par:par -> ?tiles:tiles -> zx:int -> zw:int ->
  epilogue:(int -> int -> int) -> ?ep_off:int ->
  stride:int * int -> pad:int * int * int * int -> dilation:int * int ->
  groups:int -> x:Tensor.i8buf -> xoff:int -> xdims:int array ->
  w:Tensor.i8buf -> woff:int -> wdims:int array ->
  c:Tensor.i8buf -> co:int -> unit -> int list
(** Quantized im2col convolution (NCHW/OIHW, grouped/strided/dilated/
    padded like {!conv2d_im2col_into}), int8 destination.  [zx]/[zw] are
    the input/weight zero points; padding taps hold [zx] so they
    dequantize to zero.  Returns the output dims [N;M;Oh;Ow]. *)

val conv2d_i8_dequant_into :
  ?par:par -> ?tiles:tiles -> zx:int -> zw:int ->
  epilogue:(int -> int -> float) -> ?ep_off:int ->
  stride:int * int -> pad:int * int * int * int -> dilation:int * int ->
  groups:int -> x:Tensor.i8buf -> xoff:int -> xdims:int array ->
  w:Tensor.i8buf -> woff:int -> wdims:int array ->
  c:Tensor.fbuf -> co:int -> unit -> int list
(** Float write-back variant of {!conv2d_i8_into}: the epilogue folds
    dequantization and the (float) bias into the store. *)
