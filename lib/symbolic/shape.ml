type t =
  | Undef
  | Ranked of Dim.t array
  | Nac

let scalar = Ranked [||]
let of_dims l = Ranked (Array.of_list l)
let of_ints l = of_dims (List.map Dim.of_int l)
let of_exprs l = of_dims (List.map Dim.of_expr l)

let rank = function
  | Ranked d -> Some (Array.length d)
  | Undef | Nac -> None

let dims = function
  | Ranked d -> Some d
  | Undef | Nac -> None

let dim s i =
  match s with
  | Undef -> Dim.undef
  | Nac -> Dim.nac
  | Ranked d ->
    let n = Array.length d in
    let i = if i < 0 then n + i else i in
    if i < 0 || i >= n then Dim.nac else d.(i)

let numel = function
  | Undef | Nac -> None
  | Ranked d ->
    let exprs = Array.to_list d |> List.map Dim.as_expr in
    if List.for_all Option.is_some exprs then
      Some (Expr.product (List.map Option.get exprs))
    else None

let is_fully_known = function
  | Ranked d -> Array.for_all (fun x -> Dim.as_const x <> None) d
  | Undef | Nac -> false

let is_symbolically_known = function
  | Ranked d -> Array.for_all (fun x -> Dim.as_expr x <> None) d
  | Undef | Nac -> false

let as_ints = function
  | Ranked d when Array.for_all (fun x -> Dim.as_const x <> None) d ->
    Some (Array.to_list d |> List.map (fun x -> Option.get (Dim.as_const x)))
  | Ranked _ | Undef | Nac -> None

let eval env = function
  | Undef | Nac -> None
  | Ranked d ->
    let vals = Array.to_list d |> List.map (Dim.eval env) in
    if List.for_all Option.is_some vals then Some (List.map Option.get vals) else None

let equal a b =
  match a, b with
  | Undef, Undef | Nac, Nac -> true
  | Ranked da, Ranked db ->
    Array.length da = Array.length db
    && Array.for_all2 (fun x y -> Dim.equal x y) da db
  | Undef, (Ranked _ | Nac) | Ranked _, (Undef | Nac) | Nac, (Undef | Ranked _) -> false

let meet a b =
  match a, b with
  | Undef, x | x, Undef -> x
  | Nac, _ | _, Nac -> Nac
  | Ranked da, Ranked db ->
    if Array.length da <> Array.length db then Nac
    else Ranked (Array.map2 Dim.meet da db)

let broadcast a b =
  match a, b with
  | Ranked da, Ranked db ->
    let ra = Array.length da and rb = Array.length db in
    let r = max ra rb in
    let unresolved = ref 0 in
    let out =
      Array.init r (fun i ->
          let ia = i - (r - ra) and ib = i - (r - rb) in
          let x = if ia < 0 then Dim.of_int 1 else da.(ia) in
          let y = if ib < 0 then Dim.of_int 1 else db.(ib) in
          let d, resolved = Dim.broadcast x y in
          if not resolved then incr unresolved;
          d)
    in
    Ranked out, !unresolved
  | Nac, _ | _, Nac -> Nac, 0
  | Undef, _ | _, Undef -> Undef, 0

let concat_dim first rest ~axis =
  match first with
  | Undef | Nac -> first
  | Ranked d ->
    let r = Array.length d in
    let axis = if axis < 0 then r + axis else axis in
    if axis < 0 || axis >= r then Nac
    else
      let out = Array.copy d in
      let total =
        List.fold_left
          (fun acc s ->
            match acc, Dim.as_expr (dim s axis) with
            | Some acc, Some e -> Some (Expr.add acc e)
            | _ -> None)
          (Dim.as_expr d.(axis) |> Option.map Fun.id)
          rest
      in
      out.(axis) <- (match total with Some e -> Dim.of_expr e | None -> Dim.undef);
      Ranked out

let free_syms = function
  | Undef | Nac -> []
  | Ranked d ->
    Array.to_list d
    |> List.concat_map (fun x ->
           match Dim.as_expr x with Some e -> Expr.free_syms e | None -> [])
    |> List.sort_uniq String.compare

let pp ppf = function
  | Undef -> Format.pp_print_string ppf "undef"
  | Nac -> Format.pp_print_string ppf "nac"
  | Ranked d ->
    Format.fprintf ppf "[%a]"
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
         Dim.pp)
      (Array.to_list d)

let to_string s = Format.asprintf "%a" pp s
