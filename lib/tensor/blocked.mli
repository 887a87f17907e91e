(** Cache-blocked, register-tiled GEMM and im2col convolution — the "real"
    multi-version kernel backend (§4.4.2).

    The naive loop nests in {!Linalg} remain the bit-exact reference; this
    module provides the optimized variants the autotuner's tile/thread
    choices actually steer:

    - {!gemm} packs A by row tile and B by column block into float64
      panels (so the inner loop touches contiguous memory), computes 4×8
      register micro-tiles from them, and runs (row tile × column block)
      tasks that a parallel runner can execute concurrently; the packers
      and the tile are a C stub of 4-lane f64 vectors ([gemm_stubs.c]);
    - {!conv2d_im2col_into} lowers convolution (grouped, strided, dilated,
      padded) onto that GEMM per (image, group) by implicit im2col: the B
      packer gathers the column matrix's octets straight from the image,
      and no column matrix is built.

    Packing panels (and the int8 path's column buffers) are
    per-participant scratch, taken from a shared free list and given back
    after each task, bounded in size and reused across calls: once a shape
    has been seen, a float {!gemm} or {!conv2d_im2col_into} allocates only
    a constant few words per call, whatever the extents.

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
}
(** The extents the kernels read.  Packing is full-depth and the
    micro-kernel's tile is fixed, so an autotuner configuration's depth
    tile and unroll factor have no counterpart here. *)

val default_tiles : tiles

val tiles_of : tile_m:int -> tile_n:int -> tiles
(** Sanitize an autotuner configuration's tile extents into usable ones
    (clamped to sane minima so degenerate configs cannot starve the
    kernel). *)

val gemm :
  ?par:par -> ?tiles:tiles -> m:int -> n:int ->
  k:int -> a:Tensor.fbuf -> ao:int -> b:Tensor.fbuf -> bo:int ->
  c:Tensor.fbuf -> co:int -> unit -> unit
(** [gemm ~m ~n ~k ~a ~ao ~b ~bo ~c ~co] accumulates the row-major product
    [A(m×k) · B(k×n)] into [C(m×n)]: [c += a·b], reading each operand at
    its flat offset.  [C] is {e accumulated into}, not overwritten, so
    callers zero- or bias-initialize it.  Each element's sum is one
    ascending-k chain of f64 multiply-then-add, added to [C] once: bit
    for bit {!Linalg.naive_kernel} on finite operands. *)

val conv2d_im2col_into :
  ?par:par -> ?tiles:tiles -> stride:int * int -> pad:int * int * int * int ->
  dilation:int * int -> groups:int -> Tensor.view -> Tensor.view ->
  Tensor.view option -> c:Tensor.fbuf -> co:int -> int list
(** The blocked counterpart of {!Linalg.conv2d_into}: same NCHW/OIHW
    layouts, same validation, same output bits, written into [c] at
    element offset [co] (its dims are returned).  Internally each (image,
    group) pair becomes a [mg × (oh·ow) × (cg·kh·kw)] GEMM whose B, the
    im2col column matrix, is packed straight from the image (a padding
    tap packs +0.0) — except depthwise convolutions (one output channel
    per group, more than one group), which run a direct tap loop in
    {!Linalg.conv2d_into}'s summation order, bit for bit. *)

(** {1 Int8 path}

    Quantized GEMM/conv over packed int8 panels with the dequantization
    fused into the micro-tile write-back.  Unlike the float {!gemm}, the
    destination is {e overwritten}: packing is full-depth, so the
    complete accumulator for every element exists exactly once — at
    write-back, where it is dequantized.  No integer intermediate is
    ever materialized.

    The A panel packs three rows per native word (one multiply computes
    three multiply-accumulates); zero points are handled by the row/column-sum
    correction [Σ(a-za)(b-zb) = Σab − zb·Σa − za·Σb + k·za·zb], so the
    write-back always sees the exact zero-point-corrected accumulator.
    The depth is capped at 65536 so the packed accumulator fields cannot
    overflow ([Invalid_argument] beyond, before any work). *)

val gemm_i8_dequant :
  ?par:par -> ?tiles:tiles -> za:int -> zb:int -> scale:float array ->
  bias:float array -> m:int -> n:int -> k:int -> a:Tensor.i8buf -> ao:int ->
  b:Tensor.i8buf -> bo:int -> c:Tensor.fbuf -> co:int -> unit -> unit
(** Row [i]'s corrected accumulator [acc] dequantizes as [float acc *.
    scale.(i) +. bias.(i)] straight into a float destination — the
    dynamic-quantization form the executor uses so quantized nodes
    compose with the float arena machinery.  An array of one element
    applies to every row ([-0.0] is the bias that adds nothing, bit for
    bit); otherwise it needs an entry per row ([Invalid_argument]).  Into
    an F64 destination with [~scale:[|1.0|] ~bias:[|-0.0|]] the stored
    values are the accumulators themselves, exactly (their magnitude stays
    below 2^53).  The store is monomorphic, so it allocates nothing per
    element. *)

val conv2d_i8_dequant_into :
  ?par:par -> ?tiles:tiles -> zx:int -> zw:int -> scale:float array ->
  bias:float array -> stride:int * int -> pad:int * int * int * int ->
  dilation:int * int -> groups:int -> x:Tensor.i8buf -> xoff:int ->
  xdims:int array -> w:Tensor.i8buf -> woff:int -> wdims:int array ->
  c:Tensor.fbuf -> co:int -> unit -> int list
(** Quantized im2col convolution (NCHW/OIHW, grouped/strided/dilated/
    padded like {!conv2d_im2col_into}) with {!gemm_i8_dequant}'s
    write-back: output channel [ch] stores [float acc *. scale.(ch) +.
    bias.(ch)], the arrays indexed like its rows (one element, or one per
    output channel).  [zx]/[zw] are the input/weight zero points; padding
    taps hold [zx] so they dequantize to zero.  Returns the output dims
    [N;M;Oh;Ow]. *)
