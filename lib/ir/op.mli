(** The operator vocabulary of the computational-graph IR.

    The set mirrors the ONNX operators the paper classifies (Table 2) plus
    the customized [<Switch, Combine>] pair SoD² introduces for dynamic
    control flow.  Attributes are typed fields of each constructor; operands
    that ONNX passes as {e input tensors} (a [Reshape] target shape, [Slice]
    bounds, [TopK]'s [k] …) are graph inputs here too, which is exactly what
    makes those operators {e Input Shape & Value Determined}. *)

type unary =
  | Relu
  | LeakyRelu of float  (** negative-slope coefficient *)
  | Sigmoid
  | Tanh
  | Exp
  | Log
  | Sqrt
  | Neg
  | Abs
  | Erf
  | Gelu
  | HardSwish
  | Softplus
  | Floor
  | Ceil
  | Round
  | Not
  | Identity
  | Sign
  | Reciprocal
  | Softsign

type binary =
  | Add
  | Sub
  | Mul
  | Div
  | Pow
  | Max2
  | Min2
  | Mod2
  | Equal
  | Less
  | Greater
  | And
  | Or

type reduce_kind =
  | Rsum
  | Rmean
  | Rmax
  | Rmin
  | Rprod
  | Rl2

type conv_attrs = {
  stride : int * int;
  pads : int * int * int * int;  (** top, left, bottom, right *)
  dilation : int * int;
  groups : int;
}

type pool_attrs = {
  kernel : int * int;
  pool_stride : int * int;
  pool_pads : int * int * int * int;
}

type resize_mode =
  | Nearest

type t =
  (* elementwise *)
  | Unary of unary
  | Binary of binary
  | Clip of float * float
  | Cast of Tensor.dtype
  | Where
  (* linear algebra *)
  | MatMul
  | Gemm of { alpha : float; beta : float; trans_a : bool; trans_b : bool }
  | Conv of conv_attrs  (** 2-d, NCHW *)
  | Conv1d of { stride1 : int; pads1 : int * int; dilation1 : int; groups1 : int }
  | MaxPool of pool_attrs
  | AveragePool of pool_attrs
  | GlobalAveragePool
  (* normalization / softmax *)
  | BatchNorm of { eps : float }
  | LayerNorm of { eps : float }
  | GroupNorm of { num_groups : int; eps : float }
  | InstanceNorm of { eps : float }
      (** normalization over each channel's spatial extent *)
  | Softmax of { axis : int }
  | LogSoftmax of { axis : int }
  (* reductions and search *)
  | Reduce of { rkind : reduce_kind; axes : int list; keepdims : bool }
      (** [axes = []] reduces all axes *)
  | ArgMax of { axis : int; keepdims : bool }
  | ArgMin of { axis : int; keepdims : bool }
  | CumSum of { axis : int }
  (* layout *)
  | Transpose of int list
  | Reshape  (** inputs: data, shape (int tensor; may contain one -1) *)
  | Flatten of { axis : int }
  | Squeeze of int list
  | Unsqueeze of int list
  | Concat of { axis : int }
  | Split of { axis : int; sizes : int list }
  | Slice  (** inputs: data, starts, ends, axes, steps *)
  | Gather of { axis : int }
  | Pad of { pad_value : float }  (** inputs: data, pads (int tensor, rank*2) *)
  | Expand  (** inputs: data, shape *)
  | Tile  (** inputs: data, repeats *)
  | Resize of resize_mode  (** inputs: data, sizes (int tensor, spatial) *)
  | Upsample of { scales : int list }  (** static integer scales per spatial axis *)
  | DepthToSpace of { block : int }
  | SpaceToDepth of { block : int }
  (* shape producers *)
  | ShapeOf  (** ONNX [Shape] *)
  | SizeOf  (** ONNX [Size] *)
  | ConstantOfShape of { fill : float }  (** inputs: shape *)
  | EyeLike
  | Range  (** inputs: start, limit, delta (int scalars) *)
  | OneHot of { depth : int }
  (* execution-determined *)
  | TopK of { axis : int; largest : bool }  (** inputs: data, k (int scalar) *)
  | NonZero
  | NonMaxSuppression of { max_out : int; iou_threshold : float }
  | If
  | Loop
  (* control flow (the paper's customized pair) *)
  | Switch of { branches : int }  (** inputs: data, pred; one output per branch *)
  | Combine of { branches : int }  (** inputs: branch outputs …, pred *)

val name : t -> string
(** Mnemonic used in printing, DOT export and statistics. *)

val n_outputs : t -> int
(** Number of output tensors the operator produces. *)

val is_heavy : t -> bool
(** Compute-dominant operators (convolutions, matmul, gemm) that anchor
    fusion groups and are candidates for multi-version codegen. *)

val is_control_flow : t -> bool

val is_view : t -> bool
(** Reshape, Flatten, Squeeze, Unsqueeze: the output is the data input
    (input 0) under new dims, element for element in the same order. *)

val pp : Format.formatter -> t -> unit
