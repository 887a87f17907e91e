(* ---------------------------------------------------------------- *)
(* Scalar int8 reference: direct zero-point-subtracting loop nests,
   deliberately written without {!Quant} or {!Blocked} — the qcheck
   suites hold the packed kernels' accumulators bit-for-bit equal to
   these, so a slip in their SWAR or row-sum algebra surfaces as a test
   failure instead of cancelling out. *)

(* Corrected accumulators of the quantized product, row-major:
   acc[i,j] = Σ_p (a[i,p] - za)(b[p,j] - zb). *)
let gemm_i8_acc ~za ~zb ~m ~n ~k a b =
  let da = Tensor.data_i a and db = Tensor.data_i b in
  let out = Array.make (m * n) 0 in
  for i = 0 to m - 1 do
    for j = 0 to n - 1 do
      let acc = ref 0 in
      for p = 0 to k - 1 do
        acc := !acc + ((da.((i * k) + p) - za) * (db.((p * n) + j) - zb))
      done;
      out.((i * n) + j) <- !acc
    done
  done;
  out

(* Direct quantized convolution (NCHW / OIHW): every tap outside the
   input contributes (zx - zx) = 0, mirroring zero-point padding. *)
let conv2d_i8_acc ~zx ~zw ~stride ~pad ~dilation ~groups x w =
  let dx = Tensor.dims_arr x and dw = Tensor.dims_arr w in
  let n = dx.(0) and c = dx.(1) and h = dx.(2) and wd = dx.(3) in
  let m = dw.(0) and cg = dw.(1) and kh = dw.(2) and kw = dw.(3) in
  let sh, sw = stride in
  let pt, pl, pb, pr = pad in
  let dh, dw_ = dilation in
  Linalg.check_conv_groups ~c ~groups ~cg;
  let oh = Linalg.conv2d_out_dim ~in_:h ~kernel:kh ~stride:sh ~pad_begin:pt ~pad_end:pb ~dilation:dh in
  let ow = Linalg.conv2d_out_dim ~in_:wd ~kernel:kw ~stride:sw ~pad_begin:pl ~pad_end:pr ~dilation:dw_ in
  let mg = m / groups in
  let xd = Tensor.data_i x and wdt = Tensor.data_i w in
  let out = Array.make (n * m * oh * ow) 0 in
  for ni = 0 to n - 1 do
    for mi = 0 to m - 1 do
      let g = mi / mg in
      for oy = 0 to oh - 1 do
        for ox = 0 to ow - 1 do
          let acc = ref 0 in
          for ci = 0 to cg - 1 do
            let cin = (g * cg) + ci in
            for ky = 0 to kh - 1 do
              let iy = (oy * sh) - pt + (ky * dh) in
              if iy >= 0 && iy < h then
                for kx = 0 to kw - 1 do
                  let ix = (ox * sw) - pl + (kx * dw_) in
                  if ix >= 0 && ix < wd then
                    acc :=
                      !acc
                      + ((xd.((((((ni * c) + cin) * h) + iy) * wd) + ix) - zx)
                        * (wdt.((((((mi * cg) + ci) * kh) + ky) * kw) + kx) - zw))
                done
            done
          done;
          out.((((((ni * m) + mi) * oh) + oy) * ow) + ox) <- !acc
        done
      done
    done
  done;
  (out, [ n; m; oh; ow ])

let branch_of_pred ~tensor t =
  match Tensor.to_int_list (Tensor.cast t Tensor.I64) with
  | b :: _ -> b
  | [] ->
    Sod2_error.failf ~tensor Sod2_error.Shape_mismatch
      "Reference: control-flow predicate tensor t%d is empty" tensor

let run (g : Graph.t) ~inputs =
  Validate.check_inputs g inputs;
  let value : Tensor.t option array = Array.make (Graph.tensor_count g) None in
  for tid = 0 to Graph.tensor_count g - 1 do
    match (Graph.tensor g tid).Graph.kind with
    | Graph.Const t -> value.(tid) <- Some t
    | Graph.Input _ | Graph.Activation -> ()
  done;
  List.iter (fun (tid, t) -> value.(tid) <- Some t) inputs;
  let avail tid = value.(tid) <> None in
  let fetch tid = Option.get value.(tid) in
  Array.iter
    (fun (nd : Graph.node) ->
      match nd.Graph.op with
      | Op.Switch { branches } ->
        if List.for_all avail nd.Graph.inputs then begin
          let data = List.hd nd.Graph.inputs in
          let pred = List.nth nd.Graph.inputs 1 in
          let b = max 0 (min (branches - 1) (branch_of_pred ~tensor:pred (fetch pred))) in
          List.iteri
            (fun i tid -> if i = b then value.(tid) <- Some (fetch data))
            nd.Graph.outputs
        end
      | Op.Combine { branches } -> (
        let branch_tids = List.filteri (fun i _ -> i < branches) nd.Graph.inputs in
        match List.rev nd.Graph.inputs with
        | pred :: _ when avail pred -> (
          match List.find_opt avail branch_tids with
          | Some src -> value.(List.hd nd.Graph.outputs) <- Some (fetch src)
          | None -> ())
        | _ -> ())
      | op ->
        (* Nodes on an unselected branch never see their inputs; skipping
           them is the routing semantics, not an error. *)
        if List.for_all avail nd.Graph.inputs then begin
          let outs = Kernels.run op (List.map fetch nd.Graph.inputs) in
          List.iter2 (fun tid t -> value.(tid) <- Some t) nd.Graph.outputs outs
        end)
    (Graph.nodes g);
  List.map
    (fun tid ->
      match value.(tid) with
      | Some t -> tid, t
      | None ->
        Sod2_error.failf ~tensor:tid Sod2_error.Plan_violation
          "Reference.run: graph output %d was never produced" tid)
    (Graph.outputs g)
