(** Dense n-dimensional tensors, row-major and contiguous.

    Storage is a {!Bigarray.Array1} with an element kind chosen by the
    tensor's {!dtype}: 4-byte IEEE singles for {!F32}, 8-byte doubles for
    {!F64}, sign-extended bytes for {!I8} and native 8-byte words for
    {!I64}.  [byte_size t = numel t * bytes_per_elem (dtype t)] holds by
    construction — the single accounting invariant the memory planner and
    the arena executor rely on.  All kernels used by the runtime live in
    {!Linalg}, {!Transform} and {!Reduction}; this module provides
    representation, creation, indexing and broadcast-aware elementwise
    maps. *)

type dtype =
  | F32  (** 4-byte IEEE single-precision floats *)
  | F64  (** 8-byte IEEE double-precision floats *)
  | I8  (** signed bytes (quantized payloads) *)
  | I64  (** native integers, 8 bytes (also booleans: 0 / 1) *)

val bytes_per_elem : dtype -> int
(** Bytes of storage per element — the single source of truth for all byte
    accounting ({!byte_size}, [Executor.bytes_of_dims], [Mem_plan]). *)

val is_float_dtype : dtype -> bool
val dtype_name : dtype -> string

(** {1 Raw float storage}

    The destination-passing kernels' backing type: a 1-d Bigarray whose
    constructor pins the element kind, so kernels that match on it get
    monomorphic (direct-load) element access. *)

type f32buf = (float, Bigarray.float32_elt, Bigarray.c_layout) Bigarray.Array1.t
type f64buf = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t
type i8buf = (int, Bigarray.int8_signed_elt, Bigarray.c_layout) Bigarray.Array1.t
type i64buf = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

type fbuf =
  | FB32 of f32buf
  | FB64 of f64buf

val fbuf_create : dtype -> int -> fbuf
(** Fresh uninitialized buffer; raises [Invalid_argument] on an integer
    dtype. *)

val fbuf_len : fbuf -> int
val fbuf_dtype : fbuf -> dtype

val fbuf_get : fbuf -> int -> float
(** Generic (kind-polymorphic) element access — fine on cold paths; hot
    loops should match on the constructor instead. *)

val fbuf_set : fbuf -> int -> float -> unit
(** Stores round to the buffer's precision (f32 stores round to single). *)

val fbuf_fill : fbuf -> int -> int -> float -> unit
(** [fbuf_fill buf off len v] fills [buf.[off, off+len)] with [v]. *)

val fbuf_blit : src:fbuf -> soff:int -> dst:fbuf -> doff:int -> len:int -> unit
(** Cross-kind blits convert element-wise (f64→f32 rounds). *)

val round_f32 : float -> float
(** Nearest single-precision value — exactly what an f32 store performs,
    computed independently of any store (kernels round by storing). *)

val saturating_int_of_float : float -> int
(** NaN → 0; values beyond the [int] range clamp to [min_int]/[max_int];
    in-range values truncate toward zero.  The conversion {!cast} applies
    float→integer. *)

type t

(** {1 Creation} *)

val create_f : int list -> float array -> t
(** [create_f dims data] copies [data] into a fresh {!F32} tensor of shape
    [dims] (each element rounds to single precision).  Raises
    [Invalid_argument] if sizes disagree. *)

val create_i : int list -> int array -> t
(** Copies [data] into a fresh {!I64} tensor. *)

val of_floats : dtype -> int list -> float array -> t
(** Like {!create_f} with an explicit float dtype ({!F32} or {!F64}). *)

val of_ints : dtype -> int list -> int array -> t
(** Like {!create_i} with an explicit integer dtype; {!I8} saturates. *)

val zeros : dtype -> int list -> t
val full_f : int list -> float -> t
val full_i : int list -> int -> t
val scalar_f : float -> t
val scalar_i : int -> t

val of_int_list : int list -> t
(** 1-d integer tensor holding the given values (e.g. a shape vector). *)

val init_f : int list -> (int array -> float) -> t
(** [init_f dims f] builds an {!F32} tensor whose element at multi-index
    [ix] is [f ix]. *)

val rand_uniform : Rng.t -> int list -> t
(** Uniform {!F32} floats in [\[-1, 1)]. *)

val rand_normal : Rng.t -> ?stddev:float -> int list -> t

(** {1 Inspection} *)

val dims : t -> int list
val dims_arr : t -> int array
val rank : t -> int
val numel : t -> int
val dtype : t -> dtype

val data_f : t -> float array
(** Copy-out snapshot of a float tensor's elements.  Mutating the result
    does not write through — use {!set_f} or views for that.  Raises
    [Invalid_argument] on an integer tensor. *)

val data_i : t -> int array
(** Copy-out snapshot of an integer tensor's elements. *)

val storage_f : t -> fbuf
(** The live backing buffer of a float tensor (shared, writes visible);
    raises [Invalid_argument] on an integer tensor. *)

val of_fbuf : int list -> fbuf -> t
(** Wraps a buffer as a tensor without copying; the buffer is shared. *)

val storage_i8 : t -> i8buf
(** The live backing buffer of an {!I8} tensor — what the packed int8
    kernels read and write; raises [Invalid_argument] otherwise. *)

val of_i8buf : int list -> i8buf -> t
(** Wraps an int8 buffer as an {!I8} tensor without copying. *)

val to_int_list : t -> int list
(** Elements of an integer tensor, flattened. *)

val byte_size : t -> int
(** [numel t * bytes_per_elem (dtype t)] — matches storage exactly. *)

(** {1 Offset-carrying views}

    The destination-passing kernels' currency: a window of a float buffer —
    an arena slot, or a whole boxed tensor at offset 0 — with its own
    shape.  Views share storage; nothing is copied until {!of_view} has to
    box a proper sub-window. *)

type view = {
  vbuf : fbuf;  (** backing storage, shared *)
  voff : int;  (** element offset of the window *)
  vdims : int list;
}

val view_f : t -> view
(** O(1) whole-tensor view; raises [Invalid_argument] on an integer
    tensor. *)

val view_dtype : view -> dtype

val sub_view : buf:fbuf -> off:int -> dims:int list -> view
(** View of [buf] at element offset [off]; raises [Invalid_argument] when
    the window falls outside the buffer. *)

val view_reshape : view -> int list -> view
(** O(1) dims change; element counts must agree. *)

val view_numel : view -> int

val of_view : view -> t
(** Box a view as a tensor.  Shares the buffer when the view spans it
    entirely (offset 0, full length); copies the window otherwise. *)

val copy_view : view -> t
(** Box a view as a tensor, always copying — a snapshot independent of the
    backing buffer (arena slots get recycled). *)

val broadcast2_into :
  (float -> float -> float) -> view -> view -> fbuf -> int -> int array
(** [broadcast2_into f x y dst doff] writes the broadcasting binary map of
    [f] over the views into [dst] at element offset [doff] by one stride
    walk, and returns the output dims.  [f] sees the stored operand values;
    the store into [dst] is the single rounding point. *)

(** {1 Indexing} *)

val strides : t -> int array

val broadcast_strides : int array -> int -> int array
(** [broadcast_strides src r] are the strides of shape [src] right-aligned
    in a rank-[r] broadcast, 0 on every size-1 and missing axis. *)

val innermost : int array -> int
(** Last entry, or 1 of an empty array: the row length of a shape, or the
    innermost stride of a stride table, for {!iter_rows} (a rank-0 walk
    is one row of length 1). *)

(** {1 Stride walking}

    Element-rearranging kernels (reductions, broadcasts, transposes,
    slices, concatenation) read and write storage in place through
    stride tables rather than per-element index arrays. *)

val iter_rows : int array -> int array -> int array -> (int -> int -> int -> unit) -> unit
(** [iter_rows dims sa sb f] visits the [dims]-shaped index space in
    row-major order one last-axis row at a time, calling [f flat oa ob]
    with the row's flat position and its offsets under the stride tables
    [sa] and [sb].  A rank-0 space is one row of length 1.  It allocates
    one index array per call. *)

val strided : t -> off:int -> strides:int array -> int list -> t
(** [strided t ~off ~strides dims] is a fresh tensor of shape [dims] and
    [t]'s dtype whose element at index [ix] is [t]'s storage element
    [off + Σ ix.(i) · strides.(i)] (bounds-checked). *)

val blit_strided :
  src:t -> soff:int -> sstr:int array -> dst:t -> doff:int -> dstr:int array ->
  int array -> unit
(** [blit_strided ~src ~soff ~sstr ~dst ~doff ~dstr dims] copies the
    [dims]-shaped box at storage offset [soff] under strides [sstr] in
    [src] to [doff] under [dstr] in [dst] (bounds-checked).  Float kinds
    convert through the store; float into integer storage or back raises
    [Invalid_argument]. *)

val empty : dtype -> int list -> t
(** An uninitialized tensor, for kernels that write every element. *)

val promote_f : dtype -> dtype -> dtype
(** The float dtype a binary map of the two kinds stores in. *)

val ravel : int array -> int array -> int
(** [ravel dims ix] is the flat offset of multi-index [ix].  Raises a
    structured {!Sod2_error.Error} ([Shape_mismatch]) when any axis index
    falls outside [\[0, dims.(i))] — out-of-range indices used to alias
    neighbouring rows silently. *)

val unravel : int array -> int -> int array

val get_f : t -> int array -> float
val set_f : t -> int array -> float -> unit
val get_i : t -> int array -> int
val set_i : t -> int array -> int -> unit

(** {1 Shape manipulation} *)

val reshape : t -> int list -> t
(** O(1); shares storage. Raises if element counts differ. *)

val broadcast_dims : int array -> int array -> int array
(** Numpy broadcast of two shapes; raises [Invalid_argument] when
    incompatible. *)

val broadcast_to : t -> int list -> t
(** Materialized broadcast (one stride walk). *)

(** {1 Elementwise operations} *)

val map_f : (float -> float) -> t -> t
(** Kind-preserving float map (an f32 tensor maps to an f32 tensor). *)

val map_i : (int -> int) -> t -> t

val map2 : (float -> float -> float) -> t -> t -> t
(** Broadcasting binary map over float tensors; mixed-precision operands
    promote to {!F64}. *)

val map2i : (int -> int -> int) -> t -> t -> t

val cast : t -> dtype -> t
(** Precision/type conversion, total over all dtype pairs.
    Float→integer saturates ({!saturating_int_of_float}: NaN → 0,
    out-of-range clamps, in-range truncates toward zero — then an
    [-128, 127] clamp for {!I8}); integer→float converts exactly for
    int8/int values a double represents exactly, so [I8 → F32 → I8]
    round-trips including at the rails; [I8 → I64] widens losslessly and
    [I64 → I8] saturates; f64→f32 rounds to nearest; same-dtype casts
    return the tensor unchanged. *)

(** {1 Comparison and printing} *)

val equal : t -> t -> bool
(** Exact structural equality (shape, dtype and elements). *)

val approx_equal : ?eps:float -> t -> t -> bool
(** Float comparison within absolute/relative tolerance [eps]
    (default 1e-5), exiting on the first mismatch; equal values
    (infinities included) and matching NaNs agree, a one-sided NaN or
    infinity does not, and integer tensors compare exactly.  Float tensors of different precision compare by
    value. *)

val pp : Format.formatter -> t -> unit
(** Prints dtype, shape and (for small tensors) elements. *)

val to_string : t -> string
