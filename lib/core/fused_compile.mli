(** Fused-group kernel compilation (§4.2 fused code generation).

    Lowers fusion groups into single executable kernels: each member
    becomes one instruction of a block program ({!Op_semantics.stage}) run
    over blocks of a few hundred elements, with no intermediate tensor and
    no boxed element; broadcasts and transposes become precomputed index
    maps, and heavy anchors (MatMul/Gemm/Conv/Conv1d) run the blocked
    kernels before the program runs over their stored result.

    Compile time produces {!template}s (one per eligible group); the first
    execution under concrete dims {!specialize}s a template into a
    {!kernel} — the runtime side of bounded multi-version code generation,
    where each still-ambiguous broadcast collapses to one concrete variant.
    Kernels are cached by the backend per (group × shape).

    Registers store in the dtypes the op-by-op reference stores in, and
    the block loops inline the {!Op_semantics} scalar functions the
    reference kernels call, so fused execution is bit-for-bit equal to
    unfused execution — anchored groups included, since the blocked
    kernels sum in the naive order. *)

type template = {
  t_gid : int;
  t_members : Graph.node list;  (** in topological order *)
  t_anchor : Graph.node option;  (** heavy first member, when present *)
  t_out : Graph.tensor_id;  (** the terminal (only materialized) output *)
  t_slots : Graph.tensor_id array;  (** external element inputs, slot order *)
  t_versions : int;  (** broadcast versions bounded at fusion time *)
}

type kernel = {
  k_out : Graph.tensor_id;
  k_dims : (Graph.tensor_id * int list) list;
      (** concrete output dims of every member, terminal included *)
  k_dtype : Tensor.dtype;
      (** the terminal output's dtype: what the op-by-op reference stores
          it in, and so the dtype of the destination the caller supplies *)
  k_run_into :
    par:Blocked.par -> Tensor.view array -> c:Tensor.fbuf -> co:int -> unit;
      (** args arrive as offset-carrying views in slot order; the terminal
          result is written into [c] at element offset [co] — a planned
          arena slot or a fresh buffer, whichever the executor chose.  No
          output allocation happens here. *)
}

val plan :
  ?quantized:(Graph.node -> bool) -> Graph.t -> Fusion.plan ->
  template option array
(** Per-group templates, indexed by group id.  [None] for singleton groups
    and groups containing an operator the block compiler cannot
    lower (reductions terminate groups but are not pointwise; data-
    dependent reshapes; I64-producing casts; …) — those keep op-by-op
    execution.  [quantized] (default: nothing) marks nodes the runtime
    will dispatch to int8 weight-quantized kernels; their groups get no
    template, since the fused float kernel would silently bypass
    quantization. *)

val specialize :
  Graph.t -> template -> args:(int list * Tensor.dtype) array -> (kernel, string) result
(** Compile the template against concrete slot dims/dtypes (slot order).
    The anchor runs {!Multi_version.heavy_kernel} as a blocked backend
    does, classifying the problem by its extents as op-by-op execution does.
    [Error] means this shape
    cannot be fused soundly (I64 element inputs, non-concrete member
    shapes, …) and the caller should fall back to op-by-op execution. *)
