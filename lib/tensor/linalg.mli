(** The naive destination-passing kernels for matmul, Gemm, convolution
    and pooling, plus their output-shape rules.  Each writes its result
    into a float buffer at an element offset; the runtime's one entry per
    operator ([Kernels.run_into], with [Multi_version.heavy_into] choosing
    between these loops and the blocked ones) is how they run.  Layouts
    follow ONNX conventions: matmul uses trailing two axes with
    numpy-style batch broadcasting, convolutions are NCHW with OIHW
    weights (a 1-d convolution runs as one of unit height). *)

type gemm_kernel =
  m:int -> n:int -> k:int ->
  a:Tensor.fbuf -> ao:int -> b:Tensor.fbuf -> bo:int ->
  c:Tensor.fbuf -> co:int -> unit
(** One flat row-major [(m×k)·(k×n)] product accumulated into C at the
    given offsets ([c += a·b]), over raw float storage in any precision.
    The pluggable unit the blocked/parallel backend swaps in;
    {!naive_kernel} is the reference.

    Numerical contract shared by every implementation: each output element
    is accumulated in double precision over the full depth [k] in ascending
    order and folded into [C] with a single store — the store is the only
    rounding point under f32, making naive and blocked kernels bit-identical
    on finite inputs. *)

val naive_kernel : gemm_kernel

val gemm_i8_naive :
  za:int -> zb:int -> epilogue:(int -> int -> int) -> ?ep_off:int ->
  m:int -> n:int -> k:int -> a:Tensor.i8buf -> ao:int ->
  b:Tensor.i8buf -> bo:int -> c:Tensor.i8buf -> co:int -> unit -> unit
(** Scalar int8 GEMM with inline zero-point subtraction: the epilogue
    receives Σ(a-za)(b-zb) per element and returns the int8 value (the
    store clamps to the rails).  [C] is overwritten, not accumulated —
    same contract as [Blocked.gemm_i8], whose shape-class dispatcher
    uses this for tiny extents where packing overhead dominates. *)

val check_conv_groups : c:int -> groups:int -> cg:int -> unit
(** Validates grouped-convolution channel bookkeeping: [groups > 0],
    [c mod groups = 0] and [c / groups = cg].  Raises a structured
    {!Sod2_error.Error} (shape-mismatch) otherwise. *)

val matmul_out_dims : int list -> int list -> int list
(** Result dims of a matmul of operands of the given dims (numpy
    promotion of 1-d operands and batch broadcast applied); raises
    [Invalid_argument] on incompatible operands.  Sizes the destination
    before {!matmul_into} runs. *)

val matmul_into :
  ?inner:gemm_kernel -> Tensor.view -> Tensor.view ->
  c:Tensor.fbuf -> co:int -> int list
(** [matmul_into a b ~c ~co] contracts the last axis of [a] with the
    second-to-last of [b] (leading axes broadcast) and writes the product
    into [c] starting at element offset [co] (the window is zeroed first
    — [inner], default {!naive_kernel}, accumulates), reading the operands
    through offset-carrying views.  Returns the result dims. *)

val gemm_into :
  ?inner:gemm_kernel ->
  ?alpha:float -> ?beta:float -> ?trans_a:bool -> ?trans_b:bool ->
  Tensor.view -> Tensor.view -> Tensor.view option ->
  c:Tensor.fbuf -> co:int -> int list
(** ONNX [Gemm], [alpha * op(a) @ op(b) + beta * c] on 2-d operands with
    unidirectional broadcast of [c], into [c] at [co]: transposed operands
    go through scratch tensors, alpha/beta are folded in place on the
    destination window.  Returns the result dims. *)

val conv2d_into :
  ?stride:int * int -> ?pad:int * int * int * int -> ?dilation:int * int ->
  ?groups:int -> Tensor.view -> Tensor.view -> Tensor.view option ->
  c:Tensor.fbuf -> co:int -> int list
(** [conv2d_into x w b ~c ~co] with [x : N×C×H×W], [w : M×(C/g)×Kh×Kw]
    and optional bias [b : M] writes the [N×M×Oh×Ow] result into [c] at
    element offset [co] and returns those dims.  [pad] is (top, left,
    bottom, right).  Each element sums its taps in double precision from
    zero and adds the bias at the one rounding store. *)

val pool2d_out_dims :
  kernel:int * int -> ?stride:int * int -> ?pad:int * int * int * int -> int list ->
  int list
(** Output dims of a 2-d pool over an [N×C×H×W] input; raises
    [Invalid_argument] on any other rank. *)

val pool2d_into :
  kind:[ `Max | `Avg ] -> kernel:int * int -> ?stride:int * int ->
  ?pad:int * int * int * int -> Tensor.view -> c:Tensor.fbuf -> co:int -> int list
(** Max or average pooling of the view into [c] at element offset [co];
    returns the output dims.  Each window is walked ky then kx over its
    in-bounds taps; max keeps a tap when [v > acc], average divides by
    the in-bounds tap count (ONNX [count_include_pad = 0]), and a window
    wholly in padding yields 0. *)

val global_pool_out_dims : int list -> int list
(** [N×C×spatial…] → [N×C×1×…×1]; raises [Invalid_argument] below rank 3. *)

val global_avg_pool_into : Tensor.view -> c:Tensor.fbuf -> co:int -> int list
(** Global average pooling, [N×C×spatial…] → [N×C×1×…×1], into [c] at
    element offset [co]; returns the output dims. *)

val conv2d_out_dim : in_:int -> kernel:int -> stride:int -> pad_begin:int ->
  pad_end:int -> dilation:int -> int
(** The ONNX output-extent formula shared by conv and pooling:
    [floor ((in + pads - ((k-1)*d + 1)) / stride) + 1]. *)

val conv2d_out_dims :
  stride:int * int -> pad:int * int * int * int -> dilation:int * int -> int list ->
  int list -> int list
(** [conv2d_out_dims ~stride ~pad ~dilation xdims wdims] — the output dims
    [[N; M; OH; OW]] of an NCHW input against an OIHW weight.  Raises
    [Invalid_argument] when either is not rank 4. *)
