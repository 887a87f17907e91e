type t = {
  float_dtype : Tensor.dtype;
  quant : bool;
  fusion : bool;
  plan_sym_value : int;
}

let default =
  {
    float_dtype = Tensor.F32;
    quant = false;
    fusion = true;
    plan_sym_value = 64;
  }

let unknown tok =
  Error
    (Printf.sprintf "unknown compile token %S (expected f32|f64|int8|nofuse|sym=N)" tok)

let parse_token opts tok =
  match String.trim tok with
  | "" -> Ok opts
  | "f32" -> Ok { opts with float_dtype = Tensor.F32 }
  | "f64" -> Ok { opts with float_dtype = Tensor.F64 }
  | "int8" -> Ok { opts with quant = true }
  | "nofuse" -> Ok { opts with fusion = false }
  | "fuse" -> Ok { opts with fusion = true }
  | tok -> (
    match String.index_opt tok '=' with
    | None -> unknown tok
    | Some i -> (
      let k = String.sub tok 0 i in
      let v = String.sub tok (i + 1) (String.length tok - i - 1) in
      match k with
      | "sym" -> (
        match int_of_string_opt v with
        | Some n when n > 0 -> Ok { opts with plan_sym_value = n }
        | _ -> Error (Printf.sprintf "bad sym=%S (expected a positive integer)" v))
      (* Compatibility: accepted and ignored.  Gated models run one plan
         and every computed predicate picks its groups; the token stays
         parseable because existing specs still carry it. *)
      | "variants" -> (
        match int_of_string_opt v with
        | Some n when n >= 0 -> Ok opts
        | _ -> Error (Printf.sprintf "bad variants=%S (expected an integer >= 0)" v))
      | _ -> unknown tok))

let of_string s =
  List.fold_left
    (fun acc tok -> Result.bind acc (fun opts -> parse_token opts tok))
    (Ok default)
    (String.split_on_char ',' (String.lowercase_ascii (String.trim s)))

(* Non-default fields only, canonical order — the tail [Executor]'s config
   renderer appends after the exec tokens. *)
let to_tokens opts =
  List.filter_map Fun.id
    [
      (if opts.float_dtype <> default.float_dtype then
         Some (Tensor.dtype_name opts.float_dtype)
       else None);
      (if opts.quant then Some "int8" else None);
      (if not opts.fusion then Some "nofuse" else None);
      (if opts.plan_sym_value <> default.plan_sym_value then
         Some (Printf.sprintf "sym=%d" opts.plan_sym_value)
       else None);
    ]

(* Canonical rendering always leads with the dtype, so the string is
   self-describing even for the all-defaults record. *)
let to_string opts =
  String.concat ","
    (Tensor.dtype_name opts.float_dtype
     :: List.filter (fun tok -> tok <> Tensor.dtype_name opts.float_dtype)
          (to_tokens opts))
