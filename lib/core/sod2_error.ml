type error_class =
  | Invalid_graph
  | Arity_mismatch
  | Dtype_mismatch
  | Shape_mismatch
  | Plan_violation
  | Unbound_symbol
  | Unsupported
  | Io_error
  | Overload
  | Deadline_expired
  | Engine_error

type context = {
  op : string option;
  node : string option;
  tensor : int option;
  step : int option;
  worker : int option;
  key : string option;
}

type t = {
  cls : error_class;
  ctx : context;
  msg : string;
}

exception Error of t

let make ?op ?node ?tensor ?step ?worker ?key cls msg =
  { cls; ctx = { op; node; tensor; step; worker; key }; msg }

let fail ?op ?node ?tensor ?step ?worker ?key cls msg =
  raise (Error (make ?op ?node ?tensor ?step ?worker ?key cls msg))

let failf ?op ?node ?tensor ?step ?worker ?key cls fmt =
  Printf.ksprintf (fun msg -> fail ?op ?node ?tensor ?step ?worker ?key cls msg) fmt

let class_name = function
  | Invalid_graph -> "invalid-graph"
  | Arity_mismatch -> "arity-mismatch"
  | Dtype_mismatch -> "dtype-mismatch"
  | Shape_mismatch -> "shape-mismatch"
  | Plan_violation -> "plan-violation"
  | Unbound_symbol -> "unbound-symbol"
  | Unsupported -> "unsupported"
  | Io_error -> "io-error"
  | Overload -> "overload"
  | Deadline_expired -> "deadline-expired"
  | Engine_error -> "engine-error"

let context_to_string ctx =
  let parts =
    List.filter_map Fun.id
      [
        Option.map (Printf.sprintf "op=%s") ctx.op;
        Option.map (Printf.sprintf "node=%s") ctx.node;
        Option.map (Printf.sprintf "t%d") ctx.tensor;
        Option.map (Printf.sprintf "step %d") ctx.step;
        Option.map (Printf.sprintf "worker %d") ctx.worker;
        Option.map (Printf.sprintf "key=%s") ctx.key;
      ]
  in
  match parts with [] -> "" | parts -> " [" ^ String.concat " " parts ^ "]"

let to_string e =
  Printf.sprintf "%s%s: %s" (class_name e.cls) (context_to_string e.ctx) e.msg

let pp ppf e = Format.pp_print_string ppf (to_string e)

let guard f =
  match f () with
  | v -> Ok v
  | exception Error e -> Error e
  | exception Invalid_argument msg -> Error (make Invalid_graph msg)
  | exception Failure msg -> Error (make Invalid_graph msg)

(* Render structured errors nicely when they escape to the toplevel
   (e.g. an uncaught exception in the CLI). *)
let () =
  Printexc.register_printer (function
    | Error e -> Some ("Sod2_error: " ^ to_string e)
    | _ -> None)
