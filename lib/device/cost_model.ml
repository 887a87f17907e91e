let prod dims = List.fold_left (fun acc d -> acc * max 1 d) 1 dims

let numel_out out_dims = match out_dims with [] -> 0 | d :: _ -> prod d

let fnumel dims = float_of_int (prod dims)

let flops op ~in_dims ~out_dims =
  let out_n = float_of_int (numel_out out_dims) in
  match (op : Op.t) with
  | Op.Conv { groups; _ } -> (
    match in_dims with
    | _ :: w :: _ -> (
      match w with
      | [ _m; cg; kh; kw ] ->
        ignore groups;
        2.0 *. out_n *. float_of_int (cg * kh * kw)
      | _ -> out_n)
    | _ -> out_n)
  | Op.Conv1d _ -> (
    match in_dims with
    | _ :: [ _m; cg; k ] :: _ -> 2.0 *. out_n *. float_of_int (cg * k)
    | _ -> out_n)
  | Op.MatMul | Op.Gemm _ -> (
    match in_dims with
    | a :: _ :: _ when List.length a >= 1 ->
      let k = List.nth a (List.length a - 1) in
      2.0 *. out_n *. float_of_int (max 1 k)
    | _ -> out_n)
  | Op.MaxPool { kernel = kh, kw; _ } | Op.AveragePool { kernel = kh, kw; _ } ->
    out_n *. float_of_int (kh * kw)
  | Op.GlobalAveragePool -> (
    match in_dims with x :: _ -> fnumel x | [] -> out_n)
  | Op.Softmax _ | Op.LogSoftmax _ -> (
    match in_dims with x :: _ -> 5.0 *. fnumel x | [] -> out_n)
  | Op.BatchNorm _ | Op.LayerNorm _ | Op.GroupNorm _ | Op.InstanceNorm _ -> (
    match in_dims with x :: _ -> 8.0 *. fnumel x | [] -> out_n)
  | Op.Reduce _ | Op.ArgMax _ | Op.ArgMin _ | Op.CumSum _ -> (
    match in_dims with x :: _ -> fnumel x | [] -> out_n)
  | Op.Unary (Op.Exp | Op.Log | Op.Sqrt | Op.Tanh | Op.Sigmoid | Op.Erf | Op.Gelu
             | Op.Softplus | Op.HardSwish) -> 4.0 *. out_n
  | Op.TopK _ -> (
    (* sort-dominated *)
    match in_dims with
    | x :: _ ->
      let n = fnumel x in
      n *. Float.max 1.0 (log (Float.max 2.0 n))
    | [] -> out_n)
  | Op.NonZero | Op.NonMaxSuppression _ -> (
    match in_dims with x :: _ -> 2.0 *. fnumel x | [] -> out_n)
  | _ -> out_n

(* Traffic is billed at f32 width, the element kind the device model's
   profiles are calibrated for. *)
let bytes_moved ~in_dims ~out_dims =
  List.fold_left (fun acc d -> acc + (4 * prod d)) 0 (in_dims @ out_dims)

let default_efficiency = 0.45

let roofline (p : Profile.t) ~efficiency ~fl ~bytes =
  let working_set = bytes in
  let bw =
    if working_set > p.cache_bytes then p.mem_bw_gbs /. p.cache_spill_penalty
    else p.mem_bw_gbs
  in
  let compute_us = fl /. (p.gflops *. efficiency) /. 1000.0 in
  let memory_us = float_of_int bytes /. (bw *. 1000.0) in
  Float.max compute_us memory_us

let op_time_us p ?(efficiency = default_efficiency) op ~in_dims ~out_dims =
  let fl = flops op ~in_dims ~out_dims in
  let bytes = bytes_moved ~in_dims ~out_dims in
  roofline p ~efficiency ~fl ~bytes +. p.launch_overhead_us

let group_time_us p ?(efficiency = default_efficiency) members ~external_bytes =
  let fl =
    List.fold_left
      (fun acc (op, in_dims, out_dims) -> acc +. flops op ~in_dims ~out_dims)
      0.0 members
  in
  roofline p ~efficiency ~fl ~bytes:external_bytes +. p.launch_overhead_us

let malloc_time_us (p : Profile.t) ~bytes =
  p.malloc_base_us +. (p.malloc_us_per_mb *. (float_of_int bytes /. 1048576.0))
