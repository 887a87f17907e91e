type category =
  | Isdo
  | Isdos
  | Isvdos
  | Edo

let base_category : Op.t -> category = function
  | Op.ShapeOf | Op.SizeOf | Op.EyeLike | Op.ConstantOfShape _ -> Isdo
  | Op.Unary _ | Op.Binary _ | Op.Clip _ | Op.Cast _ | Op.Where | Op.MatMul | Op.Gemm _
  | Op.Conv _ | Op.Conv1d _ | Op.MaxPool _ | Op.AveragePool _ | Op.GlobalAveragePool
  | Op.BatchNorm _ | Op.LayerNorm _ | Op.GroupNorm _ | Op.InstanceNorm _
  | Op.Softmax _ | Op.LogSoftmax _
  | Op.Reduce _ | Op.ArgMax _ | Op.ArgMin _ | Op.CumSum _ | Op.Transpose _
  | Op.Flatten _ | Op.Squeeze _ | Op.Unsqueeze _ | Op.Concat _ | Op.Split _
  | Op.Gather _ | Op.DepthToSpace _ | Op.SpaceToDepth _ | Op.OneHot _ | Op.Upsample _
    -> Isdos
  | Op.Reshape | Op.Slice | Op.Pad _ | Op.Expand | Op.Tile | Op.Resize _ | Op.Range
  | Op.TopK _ -> Isvdos
  | Op.NonZero | Op.NonMaxSuppression _ | Op.If | Op.Loop | Op.Switch _ | Op.Combine _
    -> Edo

let value_inputs : Op.t -> int list = function
  | Op.Reshape -> [ 1 ]
  | Op.Slice -> [ 1; 2; 3; 4 ]
  | Op.Pad _ -> [ 1 ]
  | Op.Expand -> [ 1 ]
  | Op.Tile -> [ 1 ]
  | Op.Resize _ -> [ 1 ]
  | Op.Range -> [ 0; 1; 2 ]
  | Op.TopK _ -> [ 1 ]
  | Op.ConstantOfShape _ -> [ 0 ]
  | _ -> []

let classify op ~value_known =
  match base_category op with
  | Isvdos ->
    if List.for_all value_known (value_inputs op) then Isdos else Isvdos
  | c -> c

let category_name = function
  | Isdo -> "Input Shape Determined Output"
  | Isdos -> "Input Shape Determined Output Shape"
  | Isvdos -> "Input Shape & Value Determined Output Shape"
  | Edo -> "Execution Determined Output"
