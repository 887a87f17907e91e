type span = {
  id : int;
  parent : int;
  layer : string;
  name : string;
  rid : int;
  t0 : float;
  t1 : float;
}

let enabled = ref false
let lock = Mutex.create ()
let spans = ref []
let next_id = Atomic.make 0

let set_enabled b = enabled := b

let record_as ~id ~parent ~rid ~layer ~name t0 t1 =
  if !enabled then
    Mutex.protect lock (fun () -> spans := { id; parent; layer; name; rid; t0; t1 } :: !spans)

let record ?(parent = -1) ?(rid = -1) ~layer ~name t0 t1 =
  if !enabled then begin
    let id = Atomic.fetch_and_add next_id 1 in
    record_as ~id ~parent ~rid ~layer ~name t0 t1
  end

(* The id is taken before [f] runs so that spans recorded inside [f] can
   name this one as their parent. *)
let with_span ?(parent = -1) ?(rid = -1) ~layer name f =
  let id = if !enabled then Atomic.fetch_and_add next_id 1 else -1 in
  let t0 = Unix.gettimeofday () in
  let r = f id in
  record_as ~id ~parent ~rid ~layer ~name t0 (Unix.gettimeofday ());
  r

let all () =
  Mutex.protect lock (fun () -> List.sort (fun a b -> compare a.id b.id) !spans)

let self_time all s =
  let covered =
    List.fold_left
      (fun acc c ->
        if c.parent = s.id then acc +. Float.max 0.0 (Float.min c.t1 s.t1 -. Float.max c.t0 s.t0)
        else acc)
      0.0 all
  in
  s.t1 -. s.t0 -. covered

let self_by_layer all =
  List.fold_left
    (fun acc s ->
      let t = self_time all s in
      match List.assoc_opt s.layer acc with
      | Some v -> (s.layer, v +. t) :: List.remove_assoc s.layer acc
      | None -> (s.layer, t) :: acc)
    [] all
  |> List.sort compare

let durations all ~layer ~name =
  List.filter_map
    (fun s -> if s.layer = layer && s.name = name then Some (s.t1 -. s.t0) else None)
    all

(* Chrome trace-event format: opens in chrome://tracing and Perfetto. *)
let to_chrome all =
  let origin = List.fold_left (fun m s -> Float.min m s.t0) infinity all in
  Json.Arr
    (List.map
       (fun s ->
         Json.Obj
           [
             "name", Json.Str s.name;
             "cat", Json.Str s.layer;
             "ph", Json.Str "X";
             "ts", Json.Num (Float.round ((s.t0 -. origin) *. 1e6));
             "dur", Json.Num (Float.round ((s.t1 -. s.t0) *. 1e6));
             "pid", Json.Num 1.0;
             "tid", Json.Num (float_of_int (max 0 s.rid));
             "args",
             Json.Obj
               [
                 "id", Json.Num (float_of_int s.id);
                 "parent", Json.Num (float_of_int s.parent);
                 "rid", Json.Num (float_of_int s.rid);
               ];
           ])
       all)
