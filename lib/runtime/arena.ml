type t = { mutable buf : Tensor.fbuf option; mutable grows : int }

let create () = { buf = None; grows = 0 }

let ensure t dtype elems =
  let needs_realloc =
    match t.buf with
    | None -> true
    | Some b -> Tensor.fbuf_dtype b <> dtype || Tensor.fbuf_len b < elems
  in
  if needs_realloc then begin
    let b = Tensor.fbuf_create dtype elems in
    Tensor.fbuf_fill b 0 elems 0.0;
    t.buf <- Some b;
    t.grows <- t.grows + 1
  end;
  Option.get t.buf

let capacity_bytes t =
  match t.buf with
  | None -> 0
  | Some b -> Tensor.fbuf_len b * Tensor.bytes_per_elem (Tensor.fbuf_dtype b)

let grows t = t.grows
