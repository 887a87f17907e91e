(* Bit-identity of the stride-walking kernels against the index-walking
   oracle in [Oracle], over generated shapes: ranks 0–5 with size-0 and
   size-1 axes, every subset of reduced axes, broadcast pairs, and every
   mix of f32/f64 operands.  Floats compare by their bit patterns, so a
   changed rounding point, summation order or NaN choice fails. *)

let bits_equal a b =
  Tensor.dims a = Tensor.dims b
  && Tensor.dtype a = Tensor.dtype b
  &&
  if Tensor.is_float_dtype (Tensor.dtype a) then
    let x = Tensor.data_f a and y = Tensor.data_f b in
    let ok = ref true in
    Array.iteri
      (fun i v -> if Int64.bits_of_float v <> Int64.bits_of_float y.(i) then ok := false)
      x;
    !ok
  else Tensor.data_i a = Tensor.data_i b

let show t = Tensor.to_string t
let dims_s d = "[" ^ String.concat ";" (List.map string_of_int d) ^ "]"

let check what ~want ~got =
  bits_equal want got
  || QCheck2.Test.fail_reportf "%s\nwant %s\ngot  %s" what (show want) (show got)

(* A destination for [Kernels.run_into]: a buffer of the kind it asks
   for, with room on both sides of the window at element offset 3.  The
   window read back as a tensor carries that kind, so [check] also tests
   the dtype the kernel reported. *)
let window_off = 3

let into_window ~dims =
  let buf = ref None in
  let dest _ dt got =
    if got <> dims then
      QCheck2.Test.fail_reportf "destination asked for %s, want %s" (dims_s got) (dims_s dims);
    let b = Tensor.fbuf_create dt (List.fold_left ( * ) 1 dims + window_off + 2) in
    buf := Some b;
    b, window_off
  in
  buf, dest

let window_tensor buf ~dims =
  Tensor.of_view (Tensor.sub_view ~buf:(Option.get !buf) ~off:window_off ~dims)

(* [x]'s elements copied into a larger buffer of its kind, as a view at a
   non-zero offset — where an arena slot puts a pool's input. *)
let offset_view st x =
  let off = 1 + Random.State.int st 5 and n = Tensor.numel x in
  let buf = Tensor.fbuf_create (Tensor.dtype x) (n + off + 2) in
  Tensor.fbuf_fill buf 0 (n + off + 2) 7.0;
  Array.iteri (fun i v -> Tensor.fbuf_set buf (off + i) v) (Tensor.data_f x);
  Tensor.sub_view ~buf ~off ~dims:(Tensor.dims x)

(* Every property draws one seed and builds its case from it, so a failure
   report names the case it found. *)
let prop ?(count = 300) name f =
  QCheck2.Test.make ~name ~count QCheck2.Gen.int (fun seed ->
      f (Random.State.make [| seed |]))

let pick st l = List.nth l (Random.State.int st (List.length l))
let dtype st = pick st [ Tensor.F32; Tensor.F64 ]
let dim st = pick st [ 0; 1; 1; 2; 3; 3 ]
let shape st ~min_rank =
  List.init (min_rank + Random.State.int st (6 - min_rank)) (fun _ -> dim st)

(* Values in [-2, 2), with exact zeros and repeats mixed in so max/min
   ties and signed zeros occur. *)
let tensor st dt dims =
  let n = List.fold_left ( * ) 1 dims in
  Tensor.of_floats dt dims
    (Array.init n (fun _ ->
         match Random.State.int st 8 with
         | 0 -> 0.0
         | 1 -> -0.0
         | 2 -> 1.0
         | _ -> Random.State.float st 4.0 -. 2.0))

let prop_reduce =
  prop "reduce = oracle (every axis subset, rank 0-5)" (fun st ->
      let dims = shape st ~min_rank:0 in
      let r = List.length dims in
      (* a random subset; the empty subset means every axis *)
      let axes =
        List.filter_map
          (fun a ->
            if Random.State.bool st then Some (if Random.State.bool st then a else a - r)
            else None)
          (List.init r Fun.id)
      in
      let kind =
        pick st Reduction.[ Sum; Mean; Max; Min; Prod; L2 ]
      in
      let keepdims = Random.State.bool st in
      let t = tensor st (dtype st) dims in
      check
        (Printf.sprintf "reduce %s axes %s keepdims %b" (dims_s dims) (dims_s axes) keepdims)
        ~want:(Oracle.reduce kind t ~axes ~keepdims)
        ~got:(Reduction.reduce kind t ~axes ~keepdims))

(* A broadcast partner of [dims]: some leading axes dropped, some axes
   collapsed to 1. *)
let partner st dims =
  let drop = Random.State.int st (List.length dims + 1) in
  List.filteri (fun i _ -> i >= drop) dims
  |> List.map (fun d -> if Random.State.int st 3 = 0 then 1 else d)

let prop_map2 =
  prop "map2 = oracle (broadcast pairs, mixed kinds)" (fun st ->
      let dims = shape st ~min_rank:0 in
      let da, db =
        if Random.State.bool st then dims, partner st dims else partner st dims, dims
      in
      let a = tensor st (dtype st) da and b = tensor st (dtype st) db in
      let f =
        pick st [ ( +. ); ( -. ); ( *. ); ( /. ); Float.max; (fun x y -> x -. (2.0 *. y)) ]
      in
      let what = Printf.sprintf "map2 %s %s" (dims_s da) (dims_s db) in
      check what ~want:(Oracle.map2 f a b) ~got:(Tensor.map2 f a b)
      &&
      (* the arena's destination kernel, a block program gathering the
         broadcast operand, into an offset window *)
      let op = pick st [ Op.Add; Op.Sub; Op.Mul; Op.Div; Op.Max2; Op.Min2 ] in
      let want = Oracle.map2 (Op_semantics.float_binary_fn op) a b in
      let dims = Tensor.dims want in
      let buf, dest = into_window ~dims in
      Sod2_runtime.Kernels.run_into (Op.Binary op) [ Tensor.view_f a; Tensor.view_f b ]
        ~dest
      = Some [ dims ]
      && check (what ^ " (into)") ~want ~got:(window_tensor buf ~dims))

let eps st = pick st [ 1e-5; 1e-3; 0.0 ]

let prop_layer_norm =
  prop "layer_norm = oracle" (fun st ->
      let dims = shape st ~min_rank:1 in
      let d = List.nth dims (List.length dims - 1) in
      (* last-axis vectors (the direct loop), broadcast scalars, and
         full-shape parameters (the chain) *)
      let param () =
        tensor st (dtype st)
          (pick st [ [ d ]; [ 1 ]; [ 1; d ]; []; dims ])
      in
      let x = tensor st (dtype st) dims in
      let gamma = param () and beta = param () in
      let eps = eps st in
      let what =
        Printf.sprintf "layer_norm %s gamma %s beta %s" (dims_s dims)
          (dims_s (Tensor.dims gamma)) (dims_s (Tensor.dims beta))
      in
      (* the kernel refuses exactly the parameters that would broadcast the
         input to a larger shape *)
      match
        ( Oracle.layer_norm x ~gamma ~beta ~eps,
          List.hd (Sod2_runtime.Kernels.run (Op.LayerNorm { eps }) [ x; gamma; beta ]) )
      with
      | want, got -> check what ~want ~got
      | exception Invalid_argument _ -> (
        match Oracle.layer_norm x ~gamma ~beta ~eps with
        | want when Tensor.dims want = dims -> QCheck2.Test.fail_reportf "%s: refused" what
        | _ | (exception Invalid_argument _) -> true))

(* Values for the row kernels' unrolled loops: signed zeros, infinities,
   NaN and subnormals among ordinary ones. *)
let special_tensor st dt dims =
  let n = List.fold_left ( * ) 1 dims in
  Tensor.of_floats dt dims
    (Array.init n (fun _ ->
         match Random.State.int st 12 with
         | 0 -> 0.0
         | 1 -> -0.0
         | 2 -> Float.infinity
         | 3 -> Float.neg_infinity
         | 4 -> Float.nan
         | 5 -> 1e-40
         | _ -> Random.State.float st 4.0 -. 2.0))

(* Rank 1-3 with a last axis of 1-9 elements: every remainder of the
   four-element groups. *)
let row_shape st =
  List.init (Random.State.int st 3) (fun _ -> 1 + Random.State.int st 3)
  @ [ 1 + Random.State.int st 9 ]

(* [run ~c ~co] for a row kernel whose result has [x]'s dims and dtype
   [dt]: into an offset window of a fresh buffer, and — when [dt] is
   [x]'s own kind — in place over [x]'s window.  Both must be [want]. *)
let row_kernel_agrees what st ~want ~dt (x : Tensor.view) run =
  let dims = x.Tensor.vdims in
  let buf, dest = into_window ~dims in
  let c, co = dest 0 dt dims in
  run x ~c ~co;
  check (what ^ " (into)") ~want ~got:(window_tensor buf ~dims)
  && (dt <> Tensor.view_dtype x
     ||
     let own = offset_view st (Tensor.of_view x) in
     run own ~c:own.Tensor.vbuf ~co:own.Tensor.voff;
     check (what ^ " (in place)") ~want ~got:(Tensor.of_view own))

let prop_layer_norm_into =
  prop "layer_norm_into = oracle (offset views, specials, in place)" (fun st ->
      let dims = row_shape st in
      let d = List.nth dims (List.length dims - 1) in
      let x = special_tensor st (dtype st) dims in
      (* shapes that broadcast to exactly [dims] *)
      let shapes =
        List.filter
          (fun p -> List.length p <= List.length dims)
          [ [ d ]; [ 1 ]; [ 1; d ]; []; dims ]
      in
      let param () = special_tensor st (dtype st) (pick st shapes) in
      let gamma = param () and beta = param () in
      let eps = eps st in
      let want = Oracle.layer_norm x ~gamma ~beta ~eps in
      let what =
        Printf.sprintf "layer_norm_into %s %s gamma %s beta %s"
          (Tensor.dtype_name (Tensor.dtype x)) (dims_s dims)
          (dims_s (Tensor.dims gamma)) (dims_s (Tensor.dims beta))
      in
      let gamma = offset_view st gamma and beta = offset_view st beta in
      row_kernel_agrees what st ~want ~dt:(Tensor.dtype want) (offset_view st x)
        (fun x ~c ~co -> Reduction.layer_norm_into ~eps x ~gamma ~beta ~c ~co))

let prop_softmax_into =
  prop "softmax_into = oracle (every axis, offset views, specials, in place)" (fun st ->
      let dims = row_shape st in
      let r = List.length dims in
      let axis = Random.State.int st r in
      let axis = if Random.State.bool st then axis else axis - r in
      let x = special_tensor st (dtype st) dims in
      let want = Oracle.softmax x ~axis in
      let what =
        Printf.sprintf "softmax_into %s %s axis %d" (Tensor.dtype_name (Tensor.dtype x))
          (dims_s dims) axis
      in
      check (what ^ " (boxed)") ~want
        ~got:(List.hd (Sod2_runtime.Kernels.run (Op.Softmax { axis }) [ x ]))
      && row_kernel_agrees what st ~want ~dt:(Tensor.dtype x) (offset_view st x)
           (fun x ~c ~co -> Reduction.softmax_into ~axis x ~c ~co))

let prop_batch_norm =
  prop "batch_norm = oracle (boxed and into an arena window)" (fun st ->
      let dims = shape st ~min_rank:2 in
      let c = List.nth dims 1 in
      let param () = tensor st (dtype st) [ (if Random.State.int st 4 = 0 then 1 else c) ] in
      let x = tensor st (dtype st) dims in
      let scale = param () and bias = param () and mean = param () and var = param () in
      let var = Tensor.map_f Float.abs var in
      let eps = eps st in
      let want = Oracle.batch_norm x ~scale ~bias ~mean ~var ~eps in
      let what = Printf.sprintf "batch_norm %s" (dims_s dims) in
      let op = Op.BatchNorm { eps } in
      check what ~want
        ~got:(List.hd (Sod2_runtime.Kernels.run op [ x; scale; bias; mean; var ]))
      &&
      (* the destination-passing form writes at an offset into a larger
         buffer of the result's kind *)
      let buf, dest = into_window ~dims in
      let v = Tensor.view_f in
      Sod2_runtime.Kernels.run_into op [ v x; v scale; v bias; v mean; v var ] ~dest
      = Some [ dims ]
      && check (what ^ " (into)") ~want ~got:(window_tensor buf ~dims))

let prop_group_norm =
  prop "group_norm = oracle" (fun st ->
      let groups = 1 + Random.State.int st 3 in
      let c = groups * (1 + Random.State.int st 2) in
      let dims = dim st :: c :: List.init (Random.State.int st 3) (fun _ -> dim st) in
      let x = tensor st (dtype st) dims in
      let gamma = tensor st (dtype st) [ c ] and beta = tensor st (dtype st) [ c ] in
      let eps = eps st in
      let want = Oracle.group_norm x ~groups ~gamma ~beta ~eps in
      let what = Printf.sprintf "group_norm %s groups %d" (dims_s dims) groups in
      check (what ^ " (boxed)") ~want
        ~got:
          (List.hd
             (Sod2_runtime.Kernels.run
                (Op.GroupNorm { num_groups = groups; eps })
                [ x; gamma; beta ]))
      &&
      let gamma = offset_view st gamma and beta = offset_view st beta in
      row_kernel_agrees what st ~want ~dt:(Tensor.dtype want) (offset_view st x)
        (fun x ~c ~co ->
          ignore
            (Sod2_runtime.Kernels.run_into
               (Op.GroupNorm { num_groups = groups; eps })
               [ x; gamma; beta ]
               ~dest:(fun _ _ _ -> c, co))))

(* Shuffles run on every storage kind. *)
let any_tensor st dims =
  match Random.State.int st 4 with
  | 0 -> tensor st Tensor.F32 dims
  | 1 -> tensor st Tensor.F64 dims
  | k ->
    let n = List.fold_left ( * ) 1 dims in
    Tensor.of_ints
      (if k = 2 then Tensor.I8 else Tensor.I64)
      dims
      (Array.init n (fun _ -> Random.State.int st 255 - 127))

let shuffle st l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  Array.to_list a

let prop_transpose =
  prop "transpose = oracle" (fun st ->
      let dims = shape st ~min_rank:0 in
      let perm = shuffle st (List.init (List.length dims) Fun.id) in
      let t = any_tensor st dims in
      let what = Printf.sprintf "transpose %s perm %s" (dims_s dims) (dims_s perm) in
      let want = Oracle.transpose t perm in
      check what ~want ~got:(Transform.transpose t perm)
      && ((not (Tensor.is_float_dtype (Tensor.dtype t)))
         ||
         (* the destination kernel, between offset windows *)
         let dims = Tensor.dims want in
         let buf, dest = into_window ~dims in
         Sod2_runtime.Kernels.run_into (Op.Transpose perm) [ offset_view st t ] ~dest
         = Some [ dims ]
         && check (what ^ " (into)") ~want ~got:(window_tensor buf ~dims)))

let prop_slice =
  prop "slice = oracle (negative bounds and steps)" (fun st ->
      let dims = shape st ~min_rank:1 in
      let r = List.length dims in
      let axes = List.filter (fun _ -> Random.State.bool st) (List.init r Fun.id) in
      let bound () = Random.State.int st 9 - 4 in
      let starts = List.map (fun _ -> bound ()) axes in
      let ends = List.map (fun _ -> bound ()) axes in
      let steps = List.map (fun _ -> pick st [ 1; 1; 2; -1; -2; 3 ]) axes in
      let t = any_tensor st dims in
      (* A negative-step slice of an empty axis counts one element and
         reads out of range unless another axis is empty: both sides must
         then refuse. *)
      let float = Tensor.is_float_dtype (Tensor.dtype t) in
      (* the destination kernel, between offset windows, for float data *)
      let into dims =
        let buf, dest = into_window ~dims in
        let ints = List.map Tensor.of_int_list [ starts; ends; axes; steps ] in
        match Sod2_runtime.Kernels.run_into ~ints Op.Slice [ offset_view st t ] ~dest with
        | Some [ d ] when d = dims -> window_tensor buf ~dims
        | _ -> QCheck2.Test.fail_reportf "slice %s: the kernel declined" (dims_s dims)
      in
      match Oracle.slice t ~starts ~ends ~axes ~steps with
      | exception Sod2_error.Error _ -> (
        match Transform.slice t ~starts ~ends ~axes ~steps () with
        | exception Invalid_argument _ -> (
          (not float)
          ||
          match into [] with
          | exception Invalid_argument _ -> true
          | _ -> QCheck2.Test.fail_reportf "slice %s: the kernel read out of range" (dims_s dims))
        | _ -> QCheck2.Test.fail_reportf "slice %s: read out of range" (dims_s dims))
      | want ->
        let what =
          Printf.sprintf "slice %s axes %s starts %s ends %s steps %s" (dims_s dims)
            (dims_s axes) (dims_s starts) (dims_s ends) (dims_s steps)
        in
        check what ~want ~got:(Transform.slice t ~starts ~ends ~axes ~steps ())
        && ((not float) || check (what ^ " (into)") ~want ~got:(into (Tensor.dims want))))

let prop_concat =
  prop "concat and split = oracle" (fun st ->
      let dims = shape st ~min_rank:1 in
      let r = List.length dims in
      let axis = Random.State.int st r in
      let kind = any_tensor st [] in
      let part () =
        let dims = List.mapi (fun i d -> if i = axis then dim st else d) dims in
        if Tensor.is_float_dtype (Tensor.dtype kind) then tensor st (Tensor.dtype kind) dims
        else Tensor.cast (tensor st Tensor.F64 dims) (Tensor.dtype kind)
      in
      let parts = List.init (1 + Random.State.int st 3) (fun _ -> part ()) in
      let axis_arg = if Random.State.bool st then axis else axis - r in
      let joined = Transform.concat parts ~axis:axis_arg in
      let what = Printf.sprintf "concat of %d on axis %d" (List.length parts) axis in
      check what ~want:(Oracle.concat parts ~axis:axis_arg) ~got:joined
      &&
      let sizes = List.map (fun p -> (Tensor.dims_arr p).(axis)) parts in
      List.for_all2
        (fun want got -> check (what ^ " (split back)") ~want ~got)
        parts
        (Transform.split joined ~axis ~sizes)
      && ((not (Tensor.is_float_dtype (Tensor.dtype joined)))
         ||
         (* the destination kernels: the pieces from offset windows into
            one, and each piece back into its own *)
         let buf, dest = into_window ~dims:(Tensor.dims joined) in
         Sod2_runtime.Kernels.run_into (Op.Concat { axis = axis_arg })
           (List.map (offset_view st) parts) ~dest
         = Some [ Tensor.dims joined ]
         && check (what ^ " (into)") ~want:joined ~got:(window_tensor buf ~dims:(Tensor.dims joined))
         &&
         (* the destination kernel: each piece into its own offset window *)
         let wins = ref [] in
         let dest i dt dims =
           let buf, dest = into_window ~dims in
           wins := (i, (buf, dims)) :: !wins;
           dest i dt dims
         in
         Sod2_runtime.Kernels.run_into (Op.Split { axis = axis_arg; sizes })
           [ offset_view st joined ] ~dest
         = Some (List.map Tensor.dims parts)
         && List.for_all2
              (fun i want ->
                let buf, dims = List.assoc i !wins in
                check (what ^ " (split into)") ~want ~got:(window_tensor buf ~dims))
              (List.init (List.length parts) Fun.id)
              parts))

(* Gather on any axis, with indices of rank 0–2 mixing negative ones:
   the boxed form on any dtype and, for float data, the destination
   kernel between offset windows, against the index-walking oracle; an
   index outside the axis is refused. *)
let prop_gather =
  prop "gather = oracle (any axis, negative and multi-dimensional indices)" (fun st ->
      let dims = shape st ~min_rank:1 in
      let r = List.length dims in
      let axis = Random.State.int st r in
      let e = List.nth dims axis in
      let idims =
        (* an empty axis takes only an empty index list *)
        List.init (if e = 0 then 1 else Random.State.int st 3) (fun _ -> if e = 0 then 0 else dim st)
      in
      let ids = List.init (List.fold_left ( * ) 1 idims) (fun _ -> Random.State.int st (2 * e) - e) in
      let indices = Tensor.create_i idims (Array.of_list ids) in
      let axis_arg = if Random.State.bool st then axis else axis - r in
      let t = any_tensor st dims in
      let want = Oracle.gather_axis t ~indices ~axis:axis_arg in
      let what =
        Printf.sprintf "gather %s axis %d indices %s %s" (dims_s dims) axis_arg (dims_s idims)
          (dims_s ids)
      in
      check what ~want ~got:(Transform.gather t ~indices ~axis:axis_arg)
      && ((not (Tensor.is_float_dtype (Tensor.dtype t)))
         ||
         let gather ids =
           let dims = Tensor.dims want in
           let buf, dest = into_window ~dims in
           match
             Sod2_runtime.Kernels.run_into ~ints:[ ids ] (Op.Gather { axis = axis_arg })
               [ offset_view st t ] ~dest
           with
           | Some [ d ] when d = dims -> window_tensor buf ~dims
           | _ -> QCheck2.Test.fail_reportf "%s: the kernel declined" what
         in
         check (what ^ " (into)") ~want ~got:(gather indices)
         &&
         match gather (Tensor.of_int_list [ e ]) with
         | exception Sod2_error.Error { cls = Sod2_error.Shape_mismatch; _ } -> true
         | _ -> QCheck2.Test.fail_reportf "%s: index %d outside the axis was read" what e))

(* Nearest Resize to any extents and Upsample by integer scales, ranks
   2–5, between offset windows, against the index-walking oracle. *)
let prop_resize =
  prop "nearest resize and upsample = oracle (between arena windows)" (fun st ->
      let dims = shape st ~min_rank:2 in
      let x = tensor st (dtype st) dims in
      let spatial = List.filteri (fun i _ -> i >= 2) dims in
      let op, out =
        if Random.State.bool st then
          let out = List.map (fun e -> if e = 0 then 0 else Random.State.int st 7) spatial in
          Op.Resize Op.Nearest, out
        else
          let scales = List.map (fun _ -> 1 + Random.State.int st 3) spatial in
          Op.Upsample { scales }, List.map2 ( * ) spatial scales
      in
      let want = Oracle.resize_nearest x out in
      let what = Printf.sprintf "%s %s to %s" (Op.name op) (dims_s dims) (dims_s out) in
      let dims = Tensor.dims want in
      let buf, dest = into_window ~dims in
      let ints = match op with Op.Resize _ -> [ Tensor.of_int_list out ] | _ -> [] in
      Sod2_runtime.Kernels.run_into ~ints op [ offset_view st x ] ~dest = Some [ dims ]
      && check what ~want ~got:(window_tensor buf ~dims))

(* Boxed [Kernels.run] and [run_into] from and to windows at non-zero
   offsets, against the index-walking oracle.  Pads reach past the kernel,
   so some windows lie wholly in padding. *)
let prop_pool =
  prop "max/avg/global-avg pool = oracle (boxed and between arena windows)" (fun st ->
      let dt = dtype st in
      (* widths up to 13: interior windows go four at a time, with tails *)
      let x = tensor st dt [ 1 + Random.State.int st 2; 1 + Random.State.int st 3;
                             1 + Random.State.int st 6; 1 + Random.State.int st 13 ] in
      let h = List.nth (Tensor.dims x) 2 and w = List.nth (Tensor.dims x) 3 in
      let pad () = Random.State.int st 4 in
      let pt = pad () and pl = pad () and pb = pad () and pr = pad () in
      let kernel = 1 + Random.State.int st (min 4 (h + pt + pb)),
                   1 + Random.State.int st (min 4 (w + pl + pr)) in
      let stride = 1 + Random.State.int st 3, 1 + Random.State.int st 3 in
      let pads = pt, pl, pb, pr in
      let op, want =
        match Random.State.int st 3 with
        | 0 ->
          Op.MaxPool { kernel; pool_stride = stride; pool_pads = pads },
          Oracle.pool2d `Max x ~kernel ~stride ~pad:pads
        | 1 ->
          Op.AveragePool { kernel; pool_stride = stride; pool_pads = pads },
          Oracle.pool2d `Avg x ~kernel ~stride ~pad:pads
        | _ -> Op.GlobalAveragePool, Oracle.global_avg_pool x
      in
      let dims = Tensor.dims want in
      let what =
        Printf.sprintf "%s %s kernel %dx%d stride %dx%d pads %d,%d,%d,%d" (Op.name op)
          (dims_s (Tensor.dims x)) (fst kernel) (snd kernel) (fst stride) (snd stride)
          pt pl pb pr
      in
      check what ~want ~got:(List.hd (Sod2_runtime.Kernels.run op [ x ]))
      &&
      let buf, dest = into_window ~dims in
      Sod2_runtime.Kernels.run_into op [ offset_view st x ] ~dest = Some [ dims ]
      && check (what ^ " (into)") ~want ~got:(window_tensor buf ~dims))

let suite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_reduce;
      prop_map2;
      prop_layer_norm;
      prop_layer_norm_into;
      prop_softmax_into;
      prop_batch_norm;
      prop_group_norm;
      prop_transpose;
      prop_slice;
      prop_concat;
      prop_gather;
      prop_resize;
      prop_pool;
    ]
