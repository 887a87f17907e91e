type opt_flags = {
  fusion : bool;
  sep : bool;
  dmp : bool;
  mvc : bool;
}

let all_opts = { fusion = true; sep = true; dmp = true; mvc = true }
let no_opts = { fusion = false; sep = false; dmp = false; mvc = false }

type compiled = {
  graph : Graph.t;
  rdp : Rdp.t;
  fusion_plan : Fusion.plan;
  exec : Exec_plan.t;
  versions : Multi_version.table;
  fused : Fused_compile.template option array;
  flags : opt_flags;
  profile : Profile.t;
  fdtype : Tensor.dtype;  (** float precision the arena plan is sized for *)
  quant : bool;  (** int8 weight quantization was requested at compile *)
  quant_weights : (Graph.tensor_id, Quant.qtensor) Hashtbl.t;
      (** per-weight-tensor int8 payloads; read-only after compile *)
  mem_symbolic : Mem_plan.symbolic;
  plan_syms : string list;
  control : Control_region.t;
}

let env_with_all_syms g v =
  List.fold_left (fun env s -> Env.bind s v env) Env.empty (Graph.free_syms g)

(* Element-size overrides for the memory plan: tensors whose producer
   statically yields a non-float dtype (shape values, index results,
   integer casts) would otherwise get slots sized as if they held the
   arena's float dtype — under-reserving I64 values by half on f32 plans.
   One-step scan: dtype propagation through views stays with the runtime,
   which never arena-stores a non-float tensor anyway. *)
let int_elem_overrides (g : Graph.t) =
  let tbl = Hashtbl.create 8 in
  let mark tids e = List.iter (fun tid -> Hashtbl.replace tbl tid e) tids in
  Array.iter
    (fun (nd : Graph.node) ->
      match nd.Graph.op with
      | Op.Cast dt when not (Tensor.is_float_dtype dt) ->
        mark nd.Graph.outputs (Tensor.bytes_per_elem dt)
      | Op.ShapeOf | Op.SizeOf | Op.NonZero | Op.Range | Op.ArgMax _ | Op.ArgMin _
      | Op.NonMaxSuppression _ ->
        mark nd.Graph.outputs (Tensor.bytes_per_elem Tensor.I64)
      | Op.TopK _ -> (
        match nd.Graph.outputs with
        | [ _values; indices ] -> mark [ indices ] (Tensor.bytes_per_elem Tensor.I64)
        | _ -> ())
      | _ -> ())
    (Graph.nodes g);
  fun tid -> Hashtbl.find_opt tbl tid

let elem_overrides = int_elem_overrides

(* The weight side of dynamic-range quantization (the TFLite recipe): at
   compile time, constant weights of heavy operators are quantized to int8
   — per-tensor symmetric for MatMul, per-channel over the output axis for
   Conv (OIHW axis 0), both with zero points pinned to 0 so the packed
   kernels' zero-point correction reduces to the activation term.
   Activations are quantized per-tensor at run time by the int8 kernels.  The
   float constants stay in the graph untouched: the same artifact serves
   float execution (naive backend, guarded fallback) bit-exactly. *)
let quant_weight_of g (nd : Graph.node) =
  let const_float tid =
    match Graph.const_value g tid with
    | Some t when Tensor.is_float_dtype (Tensor.dtype t) && Tensor.numel t > 0 ->
      Some t
    | _ -> None
  in
  match nd.Graph.op, nd.Graph.inputs with
  | Op.MatMul, [ _; w ] ->
    Option.bind (const_float w) (fun t ->
        if List.length (Tensor.dims t) = 2 then
          Some (w, Quant.quantize t (Quant.choose_per_tensor ~symmetric:true t))
        else None)
  | Op.Conv _, _ :: w :: _ ->
    Option.bind (const_float w) (fun t ->
        if List.length (Tensor.dims t) = 4 then
          Some (w, Quant.quantize t (Quant.choose_per_channel ~axis:0 t))
        else None)
  | _ -> None

let quant_table g =
  let tbl = Hashtbl.create 8 in
  Array.iter
    (fun nd ->
      match quant_weight_of g nd with
      | Some (w, qt) -> if not (Hashtbl.mem tbl w) then Hashtbl.replace tbl w qt
      | None -> ())
    (Graph.nodes g);
  tbl

(* The int8 payload a node runs on: its weight's entry in the table, for
   the MatMul and Conv nodes {!quant_weight_of} quantizes. *)
let int8_weight tbl (nd : Graph.node) =
  match nd.Graph.op, nd.Graph.inputs with
  | Op.MatMul, [ _; w ] | Op.Conv _, _ :: w :: _ -> Hashtbl.find_opt tbl w
  | _ -> None

let compile ?flags ?(opts = Compile_opts.default) profile graph =
  let flags =
    match flags with
    | Some f -> f
    | None -> { all_opts with fusion = opts.Compile_opts.fusion }
  in
  let float_dtype = opts.Compile_opts.float_dtype in
  let quant = opts.Compile_opts.quant in
  if not (Tensor.is_float_dtype float_dtype) then
    invalid_arg "Pipeline.compile: float_dtype must be F32 or F64";
  Validate.check_exn graph;
  let rdp = Rdp.analyze graph in
  let fusion_plan =
    Fusion.plan ~mode:(if flags.fusion then Fusion.Rdp_based else Fusion.Static_only)
      graph rdp
  in
  let env = env_with_all_syms graph opts.Compile_opts.plan_sym_value in
  let exec =
    Exec_plan.plan
      ~strategy:(if flags.sep then Exec_plan.Optimal_small else Exec_plan.Topological)
      graph rdp fusion_plan ~env
  in
  let versions =
    if flags.mvc then Multi_version.build profile else Multi_version.single_version profile
  in
  let quant_weights = if quant then quant_table graph else Hashtbl.create 0 in
  let fused =
    Fused_compile.plan
      ~quantized:(fun nd -> Option.is_some (int8_weight quant_weights nd))
      graph fusion_plan
  in
  let mem_symbolic =
    Mem_plan.plan_symbolic
      ~strategy:(if flags.dmp then Mem_plan.Peak_first else Mem_plan.Greedy_first_fit)
      ~elem:(Tensor.bytes_per_elem float_dtype)
      ~elem_of:(int_elem_overrides graph) graph rdp fusion_plan
      ~order:exec.Exec_plan.order ~env
  in
  let plan_syms =
    List.concat_map
      (fun (e : Mem_plan.sym_entry) -> Shape.free_syms e.Mem_plan.se_shape)
      (Array.to_list mem_symbolic.Mem_plan.sym_entries @ mem_symbolic.Mem_plan.sym_dynamic)
    |> List.sort_uniq compare
  in
  {
    graph;
    rdp;
    fusion_plan;
    exec;
    versions;
    fused;
    flags;
    profile;
    fdtype = float_dtype;
    quant;
    quant_weights;
    mem_symbolic;
    plan_syms;
    control = Control_region.discover graph;
  }

let compile_checked ?flags ?opts profile graph =
  match Validate.check graph with
  | Error defects -> Error defects
  | Ok () -> Ok (compile ?flags ?opts profile graph)

(* The binding restricted to the shape variables the plan's entries
   actually mention (canonical order).  Unbound variables render as "?"
   so partial bindings with different unresolved sets never collide. *)
let plan_key c env =
  String.concat ";"
    (List.map
       (fun s ->
         match Env.lookup env s with
         | Some v -> s ^ "=" ^ string_of_int v
         | None -> s ^ "=?")
       c.plan_syms)

let instantiated_plan c env = Mem_plan.instantiate c.mem_symbolic ~env

let vet_plan c env p =
  Mem_plan.vet
    ~elem:(Tensor.bytes_per_elem c.fdtype)
    ~predicted:(fun tid -> Shape.eval env (Rdp.shape c.rdp tid))
    p

let plan_env c v = env_with_all_syms c.graph v
