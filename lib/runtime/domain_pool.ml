type job = {
  gen : int;
  count : int;
  body : int -> unit;
}

type t = {
  workers : int;  (* domains beyond the caller; 0 = fully inline *)
  mutex : Mutex.t;
  cond : Condition.t;  (* signalled on new job and on shutdown *)
  done_cond : Condition.t;  (* signalled when a worker finishes a job *)
  mutable job : job option;
  mutable next : int Atomic.t;  (* work-stealing cursor of the current job *)
  mutable active : int;  (* workers still inside the current job *)
  mutable completed_gen : int;
  mutable fault : exn option;
  mutable shutdown : bool;
  mutable domains : unit Domain.t list;
}

let size t = t.workers + 1

let run_slice job next fault =
  let n = job.count in
  let rec loop () =
    let i = Atomic.fetch_and_add next 1 in
    if i < n then begin
      (match job.body i with
      | () -> ()
      | exception e -> (
        match Atomic.get fault with
        | Some _ -> ()
        | None -> Atomic.set fault (Some e)));
      loop ()
    end
  in
  loop ()

let worker t =
  let last_gen = ref 0 in
  let rec wait () =
    Mutex.lock t.mutex;
    let rec await () =
      if t.shutdown then begin
        Mutex.unlock t.mutex;
        None
      end
      else
        match t.job with
        | Some j when j.gen > !last_gen ->
          last_gen := j.gen;
          let next = t.next in
          Mutex.unlock t.mutex;
          Some (j, next)
        | _ ->
          Condition.wait t.cond t.mutex;
          await ()
    in
    match await () with
    | None -> ()
    | Some (j, next) ->
      let fault = Atomic.make None in
      run_slice j next fault;
      Mutex.lock t.mutex;
      (match Atomic.get fault with
      | Some e when t.fault = None -> t.fault <- Some e
      | _ -> ());
      t.active <- t.active - 1;
      if t.active = 0 then begin
        t.completed_gen <- j.gen;
        Condition.broadcast t.done_cond
      end;
      Mutex.unlock t.mutex;
      wait ()
  in
  wait ()

let create requested =
  let avail = Domain.recommended_domain_count () in
  let n = max 1 (min requested avail) in
  let t =
    {
      workers = n - 1;
      mutex = Mutex.create ();
      cond = Condition.create ();
      done_cond = Condition.create ();
      job = None;
      next = Atomic.make 0;
      active = 0;
      completed_gen = 0;
      fault = None;
      shutdown = false;
      domains = [];
    }
  in
  t.domains <- List.init t.workers (fun _ -> Domain.spawn (fun () -> worker t));
  t

let run t count body =
  if count > 0 then
    if t.workers = 0 || count = 1 then
      for i = 0 to count - 1 do
        body i
      done
    else begin
      Mutex.lock t.mutex;
      let gen = (match t.job with Some j -> j.gen | None -> 0) + 1 in
      let job = { gen; count; body } in
      t.job <- Some job;
      t.next <- Atomic.make 0;
      t.active <- t.workers;
      t.fault <- None;
      Condition.broadcast t.cond;
      let next = t.next in
      Mutex.unlock t.mutex;
      (* The caller is a full participant, then blocks (no spinning — the
         pool must behave on single-core hosts where spinning would starve
         the workers it is waiting on). *)
      let fault = Atomic.make None in
      run_slice job next fault;
      Mutex.lock t.mutex;
      (match Atomic.get fault with
      | Some e when t.fault = None -> t.fault <- Some e
      | _ -> ());
      while t.completed_gen < gen && not t.shutdown do
        Condition.wait t.done_cond t.mutex
      done;
      let fault = t.fault in
      t.fault <- None;
      Mutex.unlock t.mutex;
      match fault with Some e -> raise e | None -> ()
    end

let par t = { Blocked.run = (fun count body -> run t count body) }

let shutdown t =
  Mutex.lock t.mutex;
  if not t.shutdown then begin
    t.shutdown <- true;
    Condition.broadcast t.cond;
    Condition.broadcast t.done_cond
  end;
  Mutex.unlock t.mutex;
  List.iter Domain.join t.domains;
  t.domains <- []
