(** Grow-only arena storage for planned execution (§4.4.1 runtime side).

    One flat float buffer ({!Tensor.fbuf}) backs every planned tensor slot
    of an inference; its element kind is the compiled artifact's float
    dtype, so slot offsets computed in bytes divide exactly by
    [Tensor.bytes_per_elem].  The buffer only ever grows: steady-state runs
    with a binding already seen reuse the existing storage, so the second
    call onward performs no allocation at all.  Contents are {e not}
    cleared between runs — kernels overwrite their slots
    (destination-passing writes initialize the window first). *)

type t

val create : unit -> t
(** An empty arena (capacity 0); the first {!ensure} sizes it. *)

val ensure : t -> Tensor.dtype -> int -> Tensor.fbuf
(** [ensure t dtype elems] returns the backing buffer, reallocating only
    when the current capacity is below [elems] or the stored kind differs
    from [dtype].  The returned buffer may be larger than requested; a
    fresh buffer is zero-filled. *)

val capacity_bytes : t -> int
(** Current capacity in bytes ([capacity × bytes_per_elem kind]); 0 for an
    empty arena. *)

val grows : t -> int
(** Number of (re)allocations performed so far — a steady-state run adds
    zero. *)
