(** Scalar reference semantics for elementwise operators, and the block
    evaluator that runs them over float storage.

    The scalar functions are the single source of truth for one element of
    a Unary/Binary/Clip op: the boxed reference kernels call them, and the
    block loops of this module inline them, so op-by-op, arena and fused
    execution compute the same bits.  A block program ({!stage}) is what
    fused groups and the arena's pointwise kernels run: one instruction per
    operator, each a loop over a block of a few hundred elements, with
    values in registers whose storage kind is the dtype the reference would
    have stored — every store rounds where the reference rounds. *)

val erf : float -> float
(** Abramowitz–Stegun approximation of the error function, |err| < 1.5e-7. *)

val unary_fn : Op.unary -> float -> float
(** Float semantics of a unary operator. *)

val float_binary_fn : Op.binary -> float -> float -> float
(** Float semantics of a binary operator (comparisons return 0.0/1.0). *)

val clip_fn : float -> float -> float -> float
(** [clip_fn lo hi v]: Clip's semantics, [min hi (max lo v)]. *)

val int_binary_fn : Op.binary -> int -> int -> int
(** Integer semantics of a binary operator, used for I64×I64 inputs. *)

(** {1 Index maps} *)

(** A map from a consumer's flat index to a flat source offset, walked by
    odometer. *)
type imap = {
  m_dims : int array;  (** consumer dims, none of them 1 *)
  m_strides : int array;  (** source stride per consumer dim *)
}

val stride_map : od:int array -> ss:int array -> imap option
(** The map reading consumer index [ix] of the [od] index space at source
    offset [Σ ix.(d) · ss.(d)]; [None] when it is the identity on flat
    order. *)

val broadcast_map : od:int array -> fd:int array -> imap option
(** Numpy-style right-aligned broadcast of a [fd]-shaped source into the
    [od] index space; [None] when it is the identity on flat order. *)

val transpose_map : od:int array -> ind:int array -> perm:int list -> imap option
(** Transpose of an [ind]-shaped source by [perm], read in the output's
    [od] index space. *)

(** {1 Block programs} *)

type loc =
  | R32 of int  (** f32 register [i] *)
  | R64 of int  (** f64 register [i] *)
  | Leaf of int
      (** caller storage [i] (see {!run}), addressed in place at its offset
          plus the block start *)

type norm = {
  n_x : loc;
  n_dst : loc;
  n_params : int array;  (** leaves of scale, bias, mean, var *)
  n_per_channel : bool array;  (** per parameter: [C] elements, else 1 *)
  n_eps : float;
  n_channels : int;
  n_inner : int;  (** elements per channel run: the product of dims past axis 1 *)
  n_round : bool array;
      (** f32 rounding after (x−mean), after /sd and after ×scale: the
          dtypes the reference's four-map chain stores these steps in *)
}

type instr =
  | Unary of Op.unary * loc * loc  (** op, source, destination *)
  | Binary of Op.binary * loc * loc * loc
  | Clip of float * float * loc * loc
  | Copy of loc * loc  (** a store into the destination's kind: casts *)
  | Where of loc * loc * loc * loc  (** condition, then, else, destination *)
  | Gather of int * imap * loc  (** leaf read through a non-identity map *)
  | Splat of int * loc  (** a one-element leaf broadcast *)
  | Norm of norm  (** BatchNorm over an [N×C×…] index space *)

val norm :
  x:loc -> dst:loc -> eps:float -> dims:int array -> xdt:Tensor.dtype ->
  params:int array -> pdts:Tensor.dtype array -> pnums:int array -> instr
(** The BatchNorm instruction for an input of [dims] (rank ≥ 2, channels
    on axis 1) and dtype [xdt]: [params] are the leaves of scale, bias,
    mean and var, [pdts] their dtypes and [pnums] their element counts
    (each [C] or 1).  Its rounding points are the reference's. *)

type stage = {
  code : instr array;  (** in execution order *)
  n : int;  (** elements in the stage's index space *)
  regs32 : int;  (** registers the code names *)
  regs64 : int;
}

val run : par:Blocked.par -> stage -> Tensor.fbuf array -> int array -> unit
(** [run ~par st bufs offs] evaluates [st] over flat indices [0, st.n):
    leaf [l] is [bufs.(l)] at element offset [offs.(l)].  Large stages
    split into chunks across [par], each on a register file taken from a
    shared pool; a warm call allocates a constant few words, whatever
    [st.n].  Instructions read leaves and registers at the current flat
    index only (gathers excepted), so a leaf may be read and then
    overwritten in place by the same program. *)
