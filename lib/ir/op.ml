type unary =
  | Relu
  | LeakyRelu of float
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
  pads : int * int * int * int;
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
  | Unary of unary
  | Binary of binary
  | Clip of float * float
  | Cast of Tensor.dtype
  | Where
  | MatMul
  | Gemm of { alpha : float; beta : float; trans_a : bool; trans_b : bool }
  | Conv of conv_attrs
  | Conv1d of { stride1 : int; pads1 : int * int; dilation1 : int; groups1 : int }
  | MaxPool of pool_attrs
  | AveragePool of pool_attrs
  | GlobalAveragePool
  | BatchNorm of { eps : float }
  | LayerNorm of { eps : float }
  | GroupNorm of { num_groups : int; eps : float }
  | InstanceNorm of { eps : float }
  | Softmax of { axis : int }
  | LogSoftmax of { axis : int }
  | Reduce of { rkind : reduce_kind; axes : int list; keepdims : bool }
  | ArgMax of { axis : int; keepdims : bool }
  | ArgMin of { axis : int; keepdims : bool }
  | CumSum of { axis : int }
  | Transpose of int list
  | Reshape
  | Flatten of { axis : int }
  | Squeeze of int list
  | Unsqueeze of int list
  | Concat of { axis : int }
  | Split of { axis : int; sizes : int list }
  | Slice
  | Gather of { axis : int }
  | Pad of { pad_value : float }
  | Expand
  | Tile
  | Resize of resize_mode
  | Upsample of { scales : int list }
  | DepthToSpace of { block : int }
  | SpaceToDepth of { block : int }
  | ShapeOf
  | SizeOf
  | ConstantOfShape of { fill : float }
  | EyeLike
  | Range
  | OneHot of { depth : int }
  | TopK of { axis : int; largest : bool }
  | NonZero
  | NonMaxSuppression of { max_out : int; iou_threshold : float }
  | If
  | Loop
  | Switch of { branches : int }
  | Combine of { branches : int }

let unary_name = function
  | Relu -> "Relu"
  | LeakyRelu _ -> "LeakyRelu"
  | Sigmoid -> "Sigmoid"
  | Tanh -> "Tanh"
  | Exp -> "Exp"
  | Log -> "Log"
  | Sqrt -> "Sqrt"
  | Neg -> "Neg"
  | Abs -> "Abs"
  | Erf -> "Erf"
  | Gelu -> "Gelu"
  | HardSwish -> "HardSwish"
  | Softplus -> "Softplus"
  | Floor -> "Floor"
  | Ceil -> "Ceil"
  | Round -> "Round"
  | Not -> "Not"
  | Identity -> "Identity"
  | Sign -> "Sign"
  | Reciprocal -> "Reciprocal"
  | Softsign -> "Softsign"

let binary_name = function
  | Add -> "Add"
  | Sub -> "Sub"
  | Mul -> "Mul"
  | Div -> "Div"
  | Pow -> "Pow"
  | Max2 -> "Max"
  | Min2 -> "Min"
  | Mod2 -> "Mod"
  | Equal -> "Equal"
  | Less -> "Less"
  | Greater -> "Greater"
  | And -> "And"
  | Or -> "Or"

let reduce_name = function
  | Rsum -> "ReduceSum"
  | Rmean -> "ReduceMean"
  | Rmax -> "ReduceMax"
  | Rmin -> "ReduceMin"
  | Rprod -> "ReduceProd"
  | Rl2 -> "ReduceL2"

let name = function
  | Unary u -> unary_name u
  | Binary b -> binary_name b
  | Clip _ -> "Clip"
  | Cast _ -> "Cast"
  | Where -> "Where"
  | MatMul -> "MatMul"
  | Gemm _ -> "Gemm"
  | Conv _ -> "Conv"
  | Conv1d _ -> "Conv1d"
  | MaxPool _ -> "MaxPool"
  | AveragePool _ -> "AveragePool"
  | GlobalAveragePool -> "GlobalAveragePool"
  | BatchNorm _ -> "BatchNormalization"
  | LayerNorm _ -> "LayerNormalization"
  | GroupNorm _ -> "GroupNormalization"
  | InstanceNorm _ -> "InstanceNormalization"
  | Softmax _ -> "Softmax"
  | LogSoftmax _ -> "LogSoftmax"
  | Reduce { rkind; _ } -> reduce_name rkind
  | ArgMax _ -> "ArgMax"
  | ArgMin _ -> "ArgMin"
  | CumSum _ -> "CumSum"
  | Transpose _ -> "Transpose"
  | Reshape -> "Reshape"
  | Flatten _ -> "Flatten"
  | Squeeze _ -> "Squeeze"
  | Unsqueeze _ -> "Unsqueeze"
  | Concat _ -> "Concat"
  | Split _ -> "Split"
  | Slice -> "Slice"
  | Gather _ -> "Gather"
  | Pad _ -> "Pad"
  | Expand -> "Expand"
  | Tile -> "Tile"
  | Resize _ -> "Resize"
  | Upsample _ -> "Upsample"
  | DepthToSpace _ -> "DepthToSpace"
  | SpaceToDepth _ -> "SpaceToDepth"
  | ShapeOf -> "Shape"
  | SizeOf -> "Size"
  | ConstantOfShape _ -> "ConstantOfShape"
  | EyeLike -> "EyeLike"
  | Range -> "Range"
  | OneHot _ -> "OneHot"
  | TopK _ -> "TopK"
  | NonZero -> "NonZero"
  | NonMaxSuppression _ -> "NonMaxSuppression"
  | If -> "If"
  | Loop -> "Loop"
  | Switch _ -> "Switch"
  | Combine _ -> "Combine"

let n_outputs = function
  | TopK _ -> 2
  | Split { sizes; _ } -> List.length sizes
  | Switch { branches } -> branches
  | _ -> 1

let is_heavy = function
  | MatMul | Gemm _ | Conv _ | Conv1d _ -> true
  | _ -> false

let is_control_flow = function
  | Switch _ | Combine _ | If | Loop -> true
  | _ -> false

let is_view = function
  | Reshape | Flatten _ | Squeeze _ | Unsqueeze _ -> true
  | _ -> false

let pp ppf op = Format.pp_print_string ppf (name op)
