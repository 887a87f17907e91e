(* Bigarray-backed dense tensors.  Each dtype owns a distinct storage kind
   so that [byte_size t = numel t * bytes_per_elem (dtype t)] holds by
   construction — the accounting invariant the memory planner and the
   arena executor build on. *)

module BA1 = Bigarray.Array1

type dtype =
  | F32
  | F64
  | I8
  | I64

let bytes_per_elem = function F32 -> 4 | I8 -> 1 | F64 | I64 -> 8
let is_float_dtype = function F32 | F64 -> true | I8 | I64 -> false
let dtype_name = function F32 -> "f32" | F64 -> "f64" | I8 -> "i8" | I64 -> "i64"

type f32buf = (float, Bigarray.float32_elt, Bigarray.c_layout) BA1.t
type f64buf = (float, Bigarray.float64_elt, Bigarray.c_layout) BA1.t
type i8buf = (int, Bigarray.int8_signed_elt, Bigarray.c_layout) BA1.t
type i64buf = (int, Bigarray.int_elt, Bigarray.c_layout) BA1.t

(* Float storage, the runtime's kernel currency.  The constructors keep the
   element kind statically known wherever a hot loop has matched on them —
   monomorphic [BA1.unsafe_get] compiles to a direct load, the polymorphic
   accessor is a C call. *)
type fbuf =
  | FB32 of f32buf
  | FB64 of f64buf

type ibuf =
  | IB8 of i8buf
  | IB64 of i64buf

type data =
  | Fd of fbuf
  | Id of ibuf

type t = { shape : int array; data : data }

(* Rounds a double to the nearest single-precision value — the exact
   operation an f32 store performs, by bit-casting rather than storing. *)
let round_f32 v = Int32.float_of_bits (Int32.bits_of_float v)

(* Saturating float→int conversion: plain [int_of_float] is unspecified on
   NaN and out-of-range values.  NaN maps to 0; values beyond the int range
   clamp; everything else truncates toward zero.  [float_of_int max_int]
   rounds up to 2^62, so comparing with [>=] is exact. *)
let saturating_int_of_float v =
  if Float.is_nan v then 0
  else if v >= float_of_int max_int then max_int
  else if v <= float_of_int min_int then min_int
  else int_of_float v

let saturating_int8_of_int v = if v > 127 then 127 else if v < -128 then -128 else v

(* ---------------------------------------------------------------- *)
(* Buffer helpers                                                    *)

let fbuf_create dtype n =
  match dtype with
  | F32 -> FB32 (BA1.create Bigarray.float32 Bigarray.c_layout n)
  | F64 -> FB64 (BA1.create Bigarray.float64 Bigarray.c_layout n)
  | I8 | I64 -> invalid_arg "Tensor.fbuf_create: integer dtype"

let fbuf_len = function FB32 b -> BA1.dim b | FB64 b -> BA1.dim b
let fbuf_dtype = function FB32 _ -> F32 | FB64 _ -> F64
(* Inlined, so the loops of this module keep their elements unboxed: the
   match is one predictable branch, and each arm a direct load or store. *)
let[@inline] fbuf_get buf i =
  match buf with FB32 b -> BA1.get b i | FB64 b -> BA1.get b i

let[@inline] fbuf_set buf i v =
  match buf with FB32 b -> BA1.set b i v | FB64 b -> BA1.set b i v

(* A loop rather than [BA1.fill] on a [BA1.sub]: the sub-array proxy is an
   allocation per call. *)
let fbuf_fill buf off len v =
  if len > 0 then begin
    if off < 0 || off + len > fbuf_len buf then
      invalid_arg "Tensor.fbuf_fill: window out of bounds";
    match buf with
    | FB32 b ->
      for i = off to off + len - 1 do
        BA1.unsafe_set b i v
      done
    | FB64 b ->
      for i = off to off + len - 1 do
        BA1.unsafe_set b i v
      done
  end

let fbuf_blit ~src ~soff ~dst ~doff ~len =
  if len > 0 then
    match src, dst with
    | FB32 s, FB32 d -> BA1.blit (BA1.sub s soff len) (BA1.sub d doff len)
    | FB64 s, FB64 d -> BA1.blit (BA1.sub s soff len) (BA1.sub d doff len)
    | FB64 s, FB32 d ->
      for i = 0 to len - 1 do
        BA1.unsafe_set d (doff + i) (BA1.unsafe_get s (soff + i))
      done
    | FB32 s, FB64 d ->
      for i = 0 to len - 1 do
        BA1.unsafe_set d (doff + i) (BA1.unsafe_get s (soff + i))
      done

let ibuf_create dtype n =
  match dtype with
  | I8 -> IB8 (BA1.create Bigarray.int8_signed Bigarray.c_layout n)
  | I64 -> IB64 (BA1.create Bigarray.int Bigarray.c_layout n)
  | F32 | F64 -> invalid_arg "Tensor.ibuf_create: float dtype"

let ibuf_len = function IB8 b -> BA1.dim b | IB64 b -> BA1.dim b
let ibuf_dtype = function IB8 _ -> I8 | IB64 _ -> I64
let ibuf_get buf i = match buf with IB8 b -> BA1.get b i | IB64 b -> BA1.get b i

let ibuf_set buf i v =
  match buf with
  | IB8 b -> BA1.set b i (saturating_int8_of_int v)
  | IB64 b -> BA1.set b i v

(* ---------------------------------------------------------------- *)
(* Creation                                                          *)

let product a = Array.fold_left ( * ) 1 a

let check_size dims n =
  let expected = product dims in
  if expected <> n then
    invalid_arg
      (Printf.sprintf "Tensor: shape wants %d elements, data has %d" expected n)

let of_floats dtype dims data =
  let shape = Array.of_list dims in
  let n = Array.length data in
  check_size shape n;
  match dtype with
  | F32 -> { shape; data = Fd (FB32 (BA1.of_array Bigarray.float32 Bigarray.c_layout data)) }
  | F64 -> { shape; data = Fd (FB64 (BA1.of_array Bigarray.float64 Bigarray.c_layout data)) }
  | I8 | I64 -> invalid_arg "Tensor.of_floats: integer dtype"

let of_ints dtype dims data =
  let shape = Array.of_list dims in
  let n = Array.length data in
  check_size shape n;
  let buf = ibuf_create dtype n in
  for i = 0 to n - 1 do
    ibuf_set buf i data.(i)
  done;
  { shape; data = Id buf }

let create_f dims data = of_floats F32 dims data
let create_i dims data = of_ints I64 dims data

let zeros dtype dims =
  let shape = Array.of_list dims in
  let n = product shape in
  match dtype with
  | F32 | F64 ->
    let buf = fbuf_create dtype n in
    fbuf_fill buf 0 n 0.0;
    { shape; data = Fd buf }
  | I8 | I64 ->
    let buf = ibuf_create dtype n in
    (match buf with
    | IB8 b -> BA1.fill b 0
    | IB64 b -> BA1.fill b 0);
    { shape; data = Id buf }

let full_f dims v =
  let shape = Array.of_list dims in
  let n = product shape in
  let buf = fbuf_create F32 n in
  fbuf_fill buf 0 n v;
  { shape; data = Fd buf }

let full_i dims v =
  let shape = Array.of_list dims in
  let n = product shape in
  let buf = ibuf_create I64 n in
  for i = 0 to n - 1 do
    ibuf_set buf i v
  done;
  { shape; data = Id buf }

let scalar_f v = full_f [] v
let scalar_i v = full_i [] v
let of_int_list l = create_i [ List.length l ] (Array.of_list l)

let dims t = Array.to_list t.shape
let dims_arr t = t.shape
let rank t = Array.length t.shape
let numel t = product t.shape
let dtype t = match t.data with Fd b -> fbuf_dtype b | Id b -> ibuf_dtype b

let storage_f t =
  match t.data with
  | Fd b -> b
  | Id _ -> invalid_arg "Tensor.storage_f: integer tensor"

let of_fbuf dims buf =
  let shape = Array.of_list dims in
  check_size shape (fbuf_len buf);
  { shape; data = Fd buf }

let storage_i8 t =
  match t.data with
  | Id (IB8 b) -> b
  | Id (IB64 _) | Fd _ -> invalid_arg "Tensor.storage_i8: not an i8 tensor"

let of_i8buf dims buf =
  let shape = Array.of_list dims in
  check_size shape (BA1.dim buf);
  { shape; data = Id (IB8 buf) }

(* Copy-out accessors: storage is a Bigarray, so these materialize a fresh
   OCaml array snapshot.  Mutating the result does not affect the tensor —
   use [set_f]/[set_i] (or the view machinery) to write through. *)
let data_f t =
  match t.data with
  | Fd (FB32 b) -> Array.init (BA1.dim b) (fun i -> BA1.unsafe_get b i)
  | Fd (FB64 b) -> Array.init (BA1.dim b) (fun i -> BA1.unsafe_get b i)
  | Id _ -> invalid_arg "Tensor.data_f: integer tensor"

let data_i t =
  match t.data with
  | Id (IB8 b) -> Array.init (BA1.dim b) (fun i -> BA1.unsafe_get b i)
  | Id (IB64 b) -> Array.init (BA1.dim b) (fun i -> BA1.unsafe_get b i)
  | Fd _ -> invalid_arg "Tensor.data_i: float tensor"

let to_int_list t = Array.to_list (data_i t)
let byte_size t = numel t * bytes_per_elem (dtype t)

(* Offset-carrying float views: the destination-passing kernels' currency.
   A view is a window of contiguous elements of [vbuf] starting at [voff],
   interpreted with shape [vdims] — what an arena slot (or a whole boxed
   tensor, at offset 0) looks like to a kernel.  Views share storage,
   and so does the tensor {!of_view} boxes one as. *)
type view = { vbuf : fbuf; voff : int; vdims : int list }

let view_numel v = List.fold_left ( * ) 1 v.vdims
let view_dtype v = fbuf_dtype v.vbuf

let view_f t =
  match t.data with
  | Fd b -> { vbuf = b; voff = 0; vdims = Array.to_list t.shape }
  | Id _ -> invalid_arg "Tensor.view_f: integer tensor"

let sub_view ~buf ~off ~dims =
  let n = List.fold_left ( * ) 1 dims in
  if off < 0 || off + n > fbuf_len buf then
    invalid_arg
      (Printf.sprintf "Tensor.sub_view: window [%d, %d) outside buffer of %d" off
         (off + n) (fbuf_len buf));
  { vbuf = buf; voff = off; vdims = dims }

let view_reshape v dims =
  let n = List.fold_left ( * ) 1 dims in
  if n <> view_numel v then
    invalid_arg "Tensor.view_reshape: element counts differ";
  { v with vdims = dims }

let of_view v =
  let n = view_numel v in
  let buf =
    if v.voff = 0 && n = fbuf_len v.vbuf then v.vbuf
    else
      match v.vbuf with
      | FB32 b -> FB32 (BA1.sub b v.voff n)
      | FB64 b -> FB64 (BA1.sub b v.voff n)
  in
  { shape = Array.of_list v.vdims; data = Fd buf }

let contiguous_strides dims =
  let r = Array.length dims in
  let s = Array.make r 1 in
  for i = r - 2 downto 0 do
    s.(i) <- s.(i + 1) * dims.(i + 1)
  done;
  s

let strides t = contiguous_strides t.shape

(* Strides of [src] right-aligned in a rank-[r] broadcast: 0 on every
   size-1 axis (and on the missing leading ones), so one stride table
   walks [src] as if it had been expanded. *)
let broadcast_strides src r =
  let rs = Array.length src in
  let s = Array.make r 0 in
  let acc = ref 1 in
  for i = rs - 1 downto 0 do
    s.(i + r - rs) <- (if src.(i) = 1 then 0 else !acc);
    acc := !acc * src.(i)
  done;
  s

(* ---------------------------------------------------------------- *)
(* Stride walking                                                    *)

(* Every element-rearranging kernel reduces to one walk: visit the
   [dims]-shaped index space in row-major order, one last-axis row at a
   time, carrying the row's flat position and its offset under two stride
   tables.  An odometer advances the offsets by addition, so a walk
   allocates one index array, not one per element. *)
let iter_rows dims sa sb f =
  let r = Array.length dims in
  if r = 0 then f 0 0 0
  else begin
    let len = dims.(r - 1) in
    let n = product dims in
    if n > 0 then begin
      let idx = Array.make r 0 in
      let oa = ref 0 and ob = ref 0 in
      for q = 0 to (n / len) - 1 do
        f (q * len) !oa !ob;
        let ax = ref (r - 2) in
        while !ax >= 0 do
          let a = !ax in
          let i = idx.(a) + 1 in
          if i < dims.(a) then begin
            idx.(a) <- i;
            oa := !oa + sa.(a);
            ob := !ob + sb.(a);
            ax := -1
          end
          else begin
            idx.(a) <- 0;
            oa := !oa - ((i - 1) * sa.(a));
            ob := !ob - ((i - 1) * sb.(a));
            ax := a - 1
          end
        done
      done
    end
  end

let innermost a = if Array.length a = 0 then 1 else a.(Array.length a - 1)

(* Copy the [dims]-shaped box at [soff] under strides [sstr] in [src] to
   [doff] under [dstr] in [dst].  Float kinds convert through the store
   (an f32 store rounds); the inlined accessors keep elements unboxed. *)
let blit_strided ~src ~soff ~sstr ~dst ~doff ~dstr dims =
  let len = innermost dims and ls = innermost sstr and ld = innermost dstr in
  match src.data, dst.data with
  | Fd s, Fd d ->
    iter_rows dims sstr dstr (fun _ os od ->
        for j = 0 to len - 1 do
          fbuf_set d (doff + od + (j * ld)) (fbuf_get s (soff + os + (j * ls)))
        done)
  | Id s, Id d ->
    iter_rows dims sstr dstr (fun _ os od ->
        for j = 0 to len - 1 do
          ibuf_set d (doff + od + (j * ld)) (ibuf_get s (soff + os + (j * ls)))
        done)
  | Fd _, Id _ | Id _, Fd _ -> invalid_arg "Tensor.blit_strided: float/integer mismatch"

let empty dtype dims =
  let shape = Array.of_list dims in
  let n = product shape in
  match dtype with
  | F32 | F64 -> { shape; data = Fd (fbuf_create dtype n) }
  | I8 | I64 -> { shape; data = Id (ibuf_create dtype n) }

let strided t ~off ~strides dims =
  let out = empty (dtype t) dims in
  blit_strided ~src:t ~soff:off ~sstr:strides ~dst:out ~doff:0
    ~dstr:(contiguous_strides out.shape) out.shape;
  out

let ravel dims ix =
  if Array.length ix <> Array.length dims then
    Sod2_error.failf Sod2_error.Shape_mismatch
      "Tensor.ravel: index of rank %d into shape of rank %d" (Array.length ix)
      (Array.length dims);
  let off = ref 0 in
  let stride = ref 1 in
  for i = Array.length dims - 1 downto 0 do
    if ix.(i) < 0 || ix.(i) >= dims.(i) then
      Sod2_error.failf Sod2_error.Shape_mismatch
        "Tensor.ravel: index %d out of range [0, %d) on axis %d" ix.(i) dims.(i) i;
    off := !off + (ix.(i) * !stride);
    stride := !stride * dims.(i)
  done;
  !off

let unravel dims flat =
  let r = Array.length dims in
  let ix = Array.make r 0 in
  let rem = ref flat in
  for i = r - 1 downto 0 do
    ix.(i) <- !rem mod dims.(i);
    rem := !rem / dims.(i)
  done;
  ix

let get_f t ix =
  match t.data with
  | Fd b -> fbuf_get b (ravel t.shape ix)
  | Id _ -> invalid_arg "Tensor.get_f: integer tensor"

let set_f t ix v =
  match t.data with
  | Fd b -> fbuf_set b (ravel t.shape ix) v
  | Id _ -> invalid_arg "Tensor.set_f: integer tensor"

let get_i t ix =
  match t.data with
  | Id b -> ibuf_get b (ravel t.shape ix)
  | Fd _ -> invalid_arg "Tensor.get_i: float tensor"

let set_i t ix v =
  match t.data with
  | Id b -> ibuf_set b (ravel t.shape ix) v
  | Fd _ -> invalid_arg "Tensor.set_i: float tensor"

let init_f dims f =
  let shape = Array.of_list dims in
  let n = product shape in
  let data = Array.make n 0.0 in
  for flat = 0 to n - 1 do
    data.(flat) <- f (unravel shape flat)
  done;
  of_floats F32 (Array.to_list shape) data

(* An F32 tensor of [draw ()] values in flat order, drawn straight into
   its storage: a model's weights pass through no float array (8 bytes
   an element of garbage beside 4 of weight). *)
let rand_f32 dims draw =
  let shape = Array.of_list dims in
  let b = BA1.create Bigarray.float32 Bigarray.c_layout (product shape) in
  for i = 0 to BA1.dim b - 1 do
    BA1.unsafe_set b i (draw ())
  done;
  { shape; data = Fd (FB32 b) }

let rand_uniform rng dims = rand_f32 dims (fun () -> (Rng.uniform rng *. 2.0) -. 1.0)
let rand_normal rng ?(stddev = 1.0) dims = rand_f32 dims (fun () -> Rng.normal rng *. stddev)

let reshape t dims =
  let shape = Array.of_list dims in
  if product shape <> numel t then
    invalid_arg
      (Printf.sprintf "Tensor.reshape: %d elements into shape of %d" (numel t)
         (product shape));
  { t with shape }

let broadcast_dims a b =
  let ra = Array.length a and rb = Array.length b in
  let r = max ra rb in
  Array.init r (fun i ->
      let ia = i - (r - ra) and ib = i - (r - rb) in
      let x = if ia < 0 then 1 else a.(ia) in
      let y = if ib < 0 then 1 else b.(ib) in
      if x = y then x
      else if x = 1 then y
      else if y = 1 then x
      else
        invalid_arg
          (Printf.sprintf "Tensor.broadcast_dims: %d vs %d at axis %d" x y i))

let broadcast_to t dims =
  let out = Array.of_list dims in
  if broadcast_dims t.shape out <> out then
    invalid_arg "Tensor.broadcast_to: shape is not a broadcast target";
  strided t ~off:0 ~strides:(broadcast_strides t.shape (Array.length out)) dims

(* Monomorphic map loops: the kind is statically known inside each arm, so
   element access is a direct load/store rather than the generic accessor. *)
let map_f f t =
  match t.data with
  | Fd (FB32 src) ->
    let n = BA1.dim src in
    let dst = BA1.create Bigarray.float32 Bigarray.c_layout n in
    for i = 0 to n - 1 do
      BA1.unsafe_set dst i (f (BA1.unsafe_get src i))
    done;
    { t with data = Fd (FB32 dst) }
  | Fd (FB64 src) ->
    let n = BA1.dim src in
    let dst = BA1.create Bigarray.float64 Bigarray.c_layout n in
    for i = 0 to n - 1 do
      BA1.unsafe_set dst i (f (BA1.unsafe_get src i))
    done;
    { t with data = Fd (FB64 dst) }
  | Id _ -> invalid_arg "Tensor.map_f: integer tensor"

let map_i f t =
  match t.data with
  | Id src ->
    let n = ibuf_len src in
    let dst = ibuf_create (ibuf_dtype src) n in
    for i = 0 to n - 1 do
      ibuf_set dst i (f (ibuf_get src i))
    done;
    { t with data = Id dst }
  | Fd _ -> invalid_arg "Tensor.map_i: float tensor"

(* Binary float maps promote to the wider storage kind, so mixed-precision
   operands do not silently truncate the f64 side. *)
let promote_f a b = if a = F64 || b = F64 then F64 else F32
let promote_i a b = if a = I64 || b = I64 then I64 else I8

let fdata t =
  match t.data with Fd b -> b | Id _ -> invalid_arg "Tensor.map2: integer tensor"

let idata t =
  match t.data with Id b -> b | Fd _ -> invalid_arg "Tensor.map2i: float tensor"

(* The broadcasting binary map over views, into [dst] at [doff]: one
   stride-walk over the output shape, stride 0 on each operand's
   broadcast axes.  [f] sees the stored operand values, and the
   destination store is the single rounding point.  Returns the output
   dims. *)
let broadcast2_into f (x : view) (y : view) dst doff =
  let dx = Array.of_list x.vdims and dy = Array.of_list y.vdims in
  let od = broadcast_dims dx dy in
  let r = Array.length od in
  let sx = broadcast_strides dx r and sy = broadcast_strides dy r in
  let len = innermost od and lx = innermost sx and ly = innermost sy in
  let bx = x.vbuf and by = y.vbuf and ox = x.voff and oy = y.voff in
  iter_rows od sx sy (fun o ix iy ->
      for j = 0 to len - 1 do
        fbuf_set dst (doff + o + j)
          (f (fbuf_get bx (ox + ix + (j * lx))) (fbuf_get by (oy + iy + (j * ly))))
      done);
  od

let map2 f a b =
  let out = broadcast_dims a.shape b.shape in
  let n = product out in
  let da = fdata a and db = fdata b in
  if a.shape = b.shape then begin
    (* Same-shape fast path: flat indices line up, no stride walk;
       same-kind operands additionally get a monomorphic loop. *)
    match da, db with
    | FB32 x, FB32 y ->
      let dst = BA1.create Bigarray.float32 Bigarray.c_layout n in
      for i = 0 to n - 1 do
        BA1.unsafe_set dst i (f (BA1.unsafe_get x i) (BA1.unsafe_get y i))
      done;
      { shape = out; data = Fd (FB32 dst) }
    | FB64 x, FB64 y ->
      let dst = BA1.create Bigarray.float64 Bigarray.c_layout n in
      for i = 0 to n - 1 do
        BA1.unsafe_set dst i (f (BA1.unsafe_get x i) (BA1.unsafe_get y i))
      done;
      { shape = out; data = Fd (FB64 dst) }
    | _ ->
      let dst = fbuf_create (promote_f (fbuf_dtype da) (fbuf_dtype db)) n in
      for i = 0 to n - 1 do
        fbuf_set dst i (f (fbuf_get da i) (fbuf_get db i))
      done;
      { shape = out; data = Fd dst }
  end
  else begin
    let dst = fbuf_create (promote_f (fbuf_dtype da) (fbuf_dtype db)) n in
    ignore (broadcast2_into f (view_f a) (view_f b) dst 0);
    { shape = out; data = Fd dst }
  end

let map2i f a b =
  let out = broadcast_dims a.shape b.shape in
  let n = product out in
  let da = idata a and db = idata b in
  let dst = ibuf_create (promote_i (ibuf_dtype da) (ibuf_dtype db)) n in
  if a.shape = b.shape then
    for i = 0 to n - 1 do
      ibuf_set dst i (f (ibuf_get da i) (ibuf_get db i))
    done
  else begin
    let r = Array.length out in
    let sa = broadcast_strides a.shape r and sb = broadcast_strides b.shape r in
    let len = innermost out and la = innermost sa and lb = innermost sb in
    iter_rows out sa sb (fun o ia ib ->
        for j = 0 to len - 1 do
          ibuf_set dst (o + j) (f (ibuf_get da (ia + (j * la))) (ibuf_get db (ib + (j * lb))))
        done)
  end;
  { shape = out; data = Id dst }

let cast t target =
  if dtype t = target then t
  else
    let n = numel t in
    match t.data, target with
    | Fd src, (F32 | F64) ->
      let dst = fbuf_create target n in
      fbuf_blit ~src ~soff:0 ~dst ~doff:0 ~len:n;
      { t with data = Fd dst }
    | Fd src, (I8 | I64) ->
      (* Saturating conversion: NaN → 0, out-of-range clamps, in-range
         truncates toward zero.  [ibuf_set] folds in the i8 clamp. *)
      let dst = ibuf_create target n in
      for i = 0 to n - 1 do
        ibuf_set dst i (saturating_int_of_float (fbuf_get src i))
      done;
      { t with data = Id dst }
    | Id src, (F32 | F64) ->
      let dst = fbuf_create target n in
      for i = 0 to n - 1 do
        fbuf_set dst i (float_of_int (ibuf_get src i))
      done;
      { t with data = Fd dst }
    | Id src, (I8 | I64) ->
      let dst = ibuf_create target n in
      for i = 0 to n - 1 do
        ibuf_set dst i (ibuf_get src i)
      done;
      { t with data = Id dst }

let equal a b =
  a.shape = b.shape
  && dtype a = dtype b
  &&
  let n = numel a in
  match a.data, b.data with
  | Fd x, Fd y ->
    let rec go i = i >= n || (fbuf_get x i = fbuf_get y i && go (i + 1)) in
    go 0
  | Id x, Id y ->
    let rec go i = i >= n || (ibuf_get x i = ibuf_get y i && go (i + 1)) in
    go 0
  | Fd _, Id _ | Id _, Fd _ -> false

let approx_equal ?(eps = 1e-5) a b =
  a.shape = b.shape
  &&
  let n = numel a in
  match a.data, b.data with
  | Fd x, Fd y ->
    (* Early exit on the first mismatch — the randomized equivalence
       suites compare every output tensor, so a full scan after a failure
       is pure waste. *)
    let rec go i =
      i >= n
      ||
      let v = fbuf_get x i and w = fbuf_get y i in
      (* Equal values (infinities included) and matching NaNs count as
         equal (kernels legitimately produce them, e.g. sqrt of a
         negative); a one-sided NaN or infinity is a real mismatch, which
         the finite-distance test catches before the scale (itself
         infinite then) could excuse it. *)
      (v = w
      || (Float.is_nan v && Float.is_nan w)
      ||
      let d = Float.abs (v -. w) in
      let scale = Float.max 1.0 (Float.max (Float.abs v) (Float.abs w)) in
      Float.is_finite d && d <= eps *. scale)
      && go (i + 1)
    in
    go 0
  | Id x, Id y ->
    ibuf_dtype x = ibuf_dtype y
    &&
    let rec go i = i >= n || (ibuf_get x i = ibuf_get y i && go (i + 1)) in
    go 0
  | Fd _, Id _ | Id _, Fd _ -> false

let pp ppf t =
  let dims_s = String.concat "x" (List.map string_of_int (dims t)) in
  let dtype_s = dtype_name (dtype t) in
  if numel t <= 16 then
    match t.data with
    | Fd _ ->
      Format.fprintf ppf "%s[%s](%s)" dtype_s dims_s
        (String.concat " "
           (Array.to_list (Array.map (Printf.sprintf "%.4g") (data_f t))))
    | Id _ ->
      Format.fprintf ppf "%s[%s](%s)" dtype_s dims_s
        (String.concat " " (Array.to_list (Array.map string_of_int (data_i t))))
  else Format.fprintf ppf "%s[%s](%d elements)" dtype_s dims_s (numel t)

let to_string t = Format.asprintf "%a" pp t
