(* Scalar reference semantics for elementwise operators, and the block
   evaluator that runs them over float storage.

   [unary], [binary], [clip] and [where_true] are the single source of
   truth for what one element computes.  The reference kernels call them
   through [unary_fn]/[float_binary_fn]/[clip_fn]; the block loops below
   inline them.  Both live in this one compilation unit on purpose: builds
   are [-opaque], nothing inlines across modules, and a float that crosses
   a call boundary is boxed.

   A block program ({!stage}) is a straight-line list of instructions, one
   per operator, each one loop over a block of a few hundred elements.
   Values live in registers — per-participant Bigarrays whose kind is the
   dtype the op-by-op reference would have stored — so every store rounds
   exactly where the reference rounds, and no element is ever boxed. *)

module BA1 = Bigarray.Array1

(* erf and Gelu are defined once, in C (gemm_stubs.c): an exp-free
   rational erf within 1e-7 of libm's, and Gelu = 0.5·v·(1 + erf(v/√2))
   over it.  Scalar calls cost a direct C call; the block loops below run
   them over f32 and f64 runs in vector C. *)
external erf : (float[@unboxed]) -> (float[@unboxed]) = "sod2_erf_byte" "sod2_erf" [@@noalloc]

external gelu : (float[@unboxed]) -> (float[@unboxed]) = "sod2_gelu_byte" "sod2_gelu"
[@@noalloc]

let[@inline] unary u v =
  match u with
  | Op.Relu ->
    (* [Float.max 0.0 v] exactly (NaN passes through, -0 becomes +0),
       without its sign-bit C calls. *)
    if v > 0.0 then v else if v = v then 0.0 else v
  | Op.LeakyRelu alpha -> if v >= 0.0 then v else alpha *. v
  | Op.Sigmoid -> 1.0 /. (1.0 +. exp (-.v))
  | Op.Tanh -> tanh v
  | Op.Exp -> exp v
  | Op.Log -> log v
  | Op.Sqrt -> sqrt v
  | Op.Neg -> -.v
  | Op.Abs -> Float.abs v
  | Op.Erf -> erf v
  | Op.Gelu -> gelu v
  | Op.HardSwish -> v *. Float.max 0.0 (Float.min 1.0 ((v /. 6.0) +. 0.5))
  | Op.Softplus -> log (1.0 +. exp v)
  | Op.Floor -> Float.floor v
  | Op.Ceil -> Float.ceil v
  | Op.Round -> Float.round v
  | Op.Not -> if v = 0.0 then 1.0 else 0.0
  | Op.Identity -> v
  | Op.Sign -> if v > 0.0 then 1.0 else if v < 0.0 then -1.0 else 0.0
  | Op.Reciprocal -> 1.0 /. v
  | Op.Softsign -> v /. (1.0 +. Float.abs v)

let[@inline] binary b x y =
  match b with
  | Op.Add -> x +. y
  | Op.Sub -> x -. y
  | Op.Mul -> x *. y
  | Op.Div -> x /. y
  | Op.Pow -> Float.pow x y
  | Op.Max2 -> Float.max x y
  | Op.Min2 -> Float.min x y
  | Op.Mod2 ->
    (* ONNX Mod (fmod = 0): the result takes the divisor's sign, like
       Python %.  Float.rem gives the dividend's sign, so shift nonzero
       remainders of opposite sign by one divisor. *)
    let r = Float.rem x y in
    if r <> 0.0 && r < 0.0 <> (y < 0.0) then r +. y else r
  | Op.Equal -> if x = y then 1.0 else 0.0
  | Op.Less -> if x < y then 1.0 else 0.0
  | Op.Greater -> if x > y then 1.0 else 0.0
  | Op.And -> if x <> 0.0 && y <> 0.0 then 1.0 else 0.0
  | Op.Or -> if x <> 0.0 || y <> 0.0 then 1.0 else 0.0

let[@inline] clip lo hi v = Float.min hi (Float.max lo v)

(* The reference casts a Where condition to I64 (saturating: NaN → 0,
   truncation toward zero) and tests it against zero: that is exactly
   |v| ≥ 1, which NaN fails. *)
let[@inline] where_true v = Float.abs v >= 1.0

let unary_fn u v = unary u v
let float_binary_fn b x y = binary b x y
let clip_fn lo hi v = clip lo hi v

let int_binary_fn : Op.binary -> int -> int -> int = function
  | Op.Add -> ( + )
  | Op.Sub -> ( - )
  | Op.Mul -> ( * )
  | Op.Div -> ( / )
  | Op.Pow -> fun a b -> int_of_float (float_of_int a ** float_of_int b)
  | Op.Max2 -> max
  | Op.Min2 -> min
  | Op.Mod2 -> ( mod )
  | Op.Equal -> fun a b -> if a = b then 1 else 0
  | Op.Less -> fun a b -> if a < b then 1 else 0
  | Op.Greater -> fun a b -> if a > b then 1 else 0
  | Op.And -> fun a b -> if a <> 0 && b <> 0 then 1 else 0
  | Op.Or -> fun a b -> if a <> 0 || b <> 0 then 1 else 0

(* ------------------------------------------------------------------ *)
(* Index maps                                                          *)

(* A map sends a consumer's flat index to a flat source offset.  It is
   described per consumer dim by a source stride and walked with an
   odometer: O(rank) per block, nothing per element but the carry
   between runs of the innermost dim.  No offset table is precomputed:
   the load-ahead strided copy below reads runs as fast, and resident
   tables would be most of a serving process's live heap. *)
type imap = {
  m_dims : int array;  (** consumer dims, none of them 1 *)
  m_strides : int array;  (** source stride per consumer dim *)
}

let strides_of (d : int array) =
  let r = Array.length d in
  let s = Array.make r 0 in
  let acc = ref 1 in
  for i = r - 1 downto 0 do
    s.(i) <- !acc;
    acc := !acc * d.(i)
  done;
  s

(* [None] when the map is the identity on flat order.  Unit dims carry no
   coordinate, so an odometer drops them and its innermost run is a real
   one. *)
let stride_map ~od ~ss =
  let ostr = strides_of od in
  let identity = ref true in
  Array.iteri (fun d e -> if e > 1 && ss.(d) <> ostr.(d) then identity := false) od;
  if !identity then None
  else
    let keep = List.filter (fun d -> od.(d) > 1) (List.init (Array.length od) Fun.id) in
    let pick a = Array.of_list (List.map (fun d -> a.(d)) keep) in
    Some { m_dims = pick od; m_strides = pick ss }

(* Numpy-style right-aligned broadcast of [fd] into [od]. *)
let broadcast_map ~od ~fd =
  let r = Array.length od in
  let fr = Array.length fd in
  let fpad = Array.make r 1 in
  Array.blit fd 0 fpad (r - fr) fr;
  let fstr = strides_of fpad in
  let ss = Array.init r (fun d -> if fpad.(d) = 1 then 0 else fstr.(d)) in
  stride_map ~od ~ss

let transpose_map ~od ~ind ~perm =
  let instr = strides_of ind in
  let ss = Array.of_list (List.map (fun p -> instr.(p)) perm) in
  stride_map ~od ~ss

(* ------------------------------------------------------------------ *)
(* Block programs                                                      *)

(* Where an instruction reads or writes.  [R32 i]/[R64 i] are registers
   (block [i] of the participant's f32/f64 register file); [Leaf l] is
   caller storage — a group input, an anchor result, a materialized
   intermediate or the destination — addressed in place at the leaf's
   offset plus the block start. *)
type loc =
  | R32 of int
  | R64 of int
  | Leaf of int

type norm = {
  n_x : loc;
  n_dst : loc;
  n_params : int array;  (** leaves of scale, bias, mean, var *)
  n_per_channel : bool array;  (** per parameter: [C] elements, else 1 *)
  n_eps : float;
  n_channels : int;
  n_inner : int;  (** elements per channel run: the product of dims past axis 1 *)
  n_round : bool array;
      (** f32 rounding after (x−mean), after /sd and after ×scale: the
          dtypes the reference's four-map chain stores these steps in *)
}

type instr =
  | Unary of Op.unary * loc * loc
  | Binary of Op.binary * loc * loc * loc
  | Clip of float * float * loc * loc
  | Copy of loc * loc  (** a store into the destination's kind: casts *)
  | Where of loc * loc * loc * loc
  | Gather of int * imap * loc  (** leaf read through a non-identity map *)
  | Splat of int * loc  (** a one-element leaf broadcast *)
  | Norm of norm  (** BatchNorm over a [N×C×…] index space *)

(* BatchNorm of a [dims]-shaped input of dtype [xdt]: [params] are the
   leaves of scale, bias, mean and var, [pdts] their dtypes, [pnums] their
   element counts.  The reference stores (x − mean) in promote(x, mean),
   / sd in that promoted with var, × scale in that promoted with scale. *)
let norm ~x ~dst ~eps ~dims ~xdt ~params ~pdts ~pnums =
  let d1 = Tensor.promote_f xdt pdts.(2) in
  let d2 = Tensor.promote_f d1 pdts.(3) in
  let d3 = Tensor.promote_f d2 pdts.(0) in
  Norm
    {
      n_x = x;
      n_dst = dst;
      n_params = params;
      n_per_channel = Array.map (fun k -> k <> 1) pnums;
      n_eps = eps;
      n_channels = dims.(1);
      n_inner = Array.fold_left ( * ) 1 (Array.sub dims 2 (Array.length dims - 2));
      n_round = Array.map (fun dt -> dt = Tensor.F32) [| d1; d2; d3 |];
    }

type stage = {
  code : instr array;
  n : int;  (** elements in the stage's index space *)
  regs32 : int;
  regs64 : int;
}

let block = 256

(* One participant's register file, grown to the largest stage seen and
   reused: taken from a pool and given back, as {!Blocked} does for its
   panels.  [b32]/[b64] wrap the register Bigarrays once, so resolving a
   register location allocates nothing. *)
type scratch = {
  mutable r32 : Tensor.f32buf;
  mutable b32 : Tensor.fbuf;
  mutable r64 : Tensor.f64buf;
  mutable b64 : Tensor.fbuf;
  cell : Tensor.f32buf;  (** four f32 lanes: store-based rounding *)
  mutable coord : int array;  (** odometer state of a strided gather *)
}

let pool =
  Blocked.Pool.create (fun () ->
      let r32 = BA1.create Bigarray.float32 Bigarray.c_layout 0 in
      let r64 = BA1.create Bigarray.float64 Bigarray.c_layout 0 in
      {
        r32;
        b32 = Tensor.FB32 r32;
        r64;
        b64 = Tensor.FB64 r64;
        cell = BA1.create Bigarray.float32 Bigarray.c_layout 4;
        coord = [||];
      })

let[@inline] get (b : Tensor.fbuf) i =
  match b with Tensor.FB32 a -> BA1.unsafe_get a i | Tensor.FB64 a -> BA1.unsafe_get a i

let[@inline] set (b : Tensor.fbuf) i v =
  match b with Tensor.FB32 a -> BA1.unsafe_set a i v | Tensor.FB64 a -> BA1.unsafe_set a i v

(* Rounds [v] to single precision by storing it into lane [l] of [cell]:
   the reference's f32 tensor store, as two instructions. *)
let[@inline] round32 (cell : Tensor.f32buf) l v =
  BA1.unsafe_set cell l v;
  BA1.unsafe_get cell l

(* The loops.  Each matches its buffer kinds once and inlines the scalar
   semantics; same-kind f32/f64 operands get monomorphic loops, mixed
   kinds take one predictable branch per access.

   The f32/f32 arms load four elements before computing any.  OCaml's
   amd64 backend loads a single with [cvtss2sd mem, %xmm], which writes
   only the register's low lane and so waits for its previous value: a
   loop that loads one element at a time into one register runs each
   iteration after the whole computation of the one before.  Four loads
   into four registers, then four computations, then four stores (and a
   scalar tail) let the iterations overlap.  Every element's operations
   and rounding points stay as they are, so results are bit-identical;
   and because each group of four loads all its elements before it
   stores any, a loop whose destination is its source runs in place.
   An f32 store converts through one scratch register ([cvtsd2ss] into
   %xmm15, a merge too), so all f32 stores form one chain: a loop that
   rounds through memory mid-computation (the row kernels of
   [Reduction]) steps its four elements through each rounding point
   together; BatchNorm's all-f32 chain, three roundings and a division
   per element, is a C loop instead ([norm_run32]).  f64 arms keep one
   element per step: [movsd] loads carry no merge dependency. *)

(* Relu on an f32 value held in double, without a data-dependent branch:
   for finite [v], [(v + |v|) / 2] is exactly [max 0 v] (the sum of two
   singles cannot round or overflow in double, and -0 gives +0).  ±∞ and
   NaN take [unary]'s form, which is what keeps −∞ at 0. *)
let[@inline] relu32 v = if v -. v = 0.0 then (v +. Float.abs v) *. 0.5 else unary Op.Relu v

let[@inline] unary32 u v = match u with Op.Relu -> relu32 v | u -> unary u v

let[@inline] unary_loop32 u (x : Tensor.f32buf) xo (d : Tensor.f32buf) o len =
  let i = ref 0 in
  while !i + 4 <= len do
    let k = !i in
    let v0 = BA1.unsafe_get x (xo + k) and v1 = BA1.unsafe_get x (xo + k + 1) in
    let v2 = BA1.unsafe_get x (xo + k + 2) and v3 = BA1.unsafe_get x (xo + k + 3) in
    BA1.unsafe_set d (o + k) (unary32 u v0);
    BA1.unsafe_set d (o + k + 1) (unary32 u v1);
    BA1.unsafe_set d (o + k + 2) (unary32 u v2);
    BA1.unsafe_set d (o + k + 3) (unary32 u v3);
    i := k + 4
  done;
  for k = !i to len - 1 do
    BA1.unsafe_set d (o + k) (unary32 u (BA1.unsafe_get x (xo + k)))
  done

(* [erf_block gelu x xo d o len]: Gelu ([gelu = 1]) or erf over [len]
   elements, both buffers of one kind, as a C vector loop that computes
   the scalar [erf]/[gelu] lane by lane: the same bits. *)
external erf_block :
  (int[@untagged]) -> ('a, 'b, Bigarray.c_layout) BA1.t -> (int[@untagged]) ->
  ('a, 'b, Bigarray.c_layout) BA1.t -> (int[@untagged]) -> (int[@untagged]) -> unit
  = "sod2_erf_block_byte" "sod2_erf_block"
[@@noalloc]

(* Matched with a constant operator, an inlined loop carries no
   per-element match: Relu gets its own, and Gelu and Erf (the FFN
   epilogue of transformer models) run as vector C in f32 and f64; the
   rest cost far more than the match. *)
let unary_block u (x : Tensor.fbuf) xo (d : Tensor.fbuf) o len =
  match x, d with
  | Tensor.FB32 x, Tensor.FB32 d -> (
    match u with
    | Op.Relu -> unary_loop32 Op.Relu x xo d o len
    | Op.Gelu -> erf_block 1 x xo d o len
    | Op.Erf -> erf_block 0 x xo d o len
    | u -> unary_loop32 u x xo d o len)
  | Tensor.FB64 x, Tensor.FB64 d -> (
    match u with
    | Op.Gelu -> erf_block 1 x xo d o len
    | Op.Erf -> erf_block 0 x xo d o len
    | u ->
      for i = 0 to len - 1 do
        BA1.unsafe_set d (o + i) (unary u (BA1.unsafe_get x (xo + i)))
      done)
  | x, d ->
    for i = 0 to len - 1 do
      set d (o + i) (unary u (get x (xo + i)))
    done

let[@inline] binary_loop32 b (x : Tensor.f32buf) xo (y : Tensor.f32buf) yo
    (d : Tensor.f32buf) o len =
  let i = ref 0 in
  while !i + 4 <= len do
    let k = !i in
    let x0 = BA1.unsafe_get x (xo + k) and x1 = BA1.unsafe_get x (xo + k + 1) in
    let x2 = BA1.unsafe_get x (xo + k + 2) and x3 = BA1.unsafe_get x (xo + k + 3) in
    let y0 = BA1.unsafe_get y (yo + k) and y1 = BA1.unsafe_get y (yo + k + 1) in
    let y2 = BA1.unsafe_get y (yo + k + 2) and y3 = BA1.unsafe_get y (yo + k + 3) in
    BA1.unsafe_set d (o + k) (binary b x0 y0);
    BA1.unsafe_set d (o + k + 1) (binary b x1 y1);
    BA1.unsafe_set d (o + k + 2) (binary b x2 y2);
    BA1.unsafe_set d (o + k + 3) (binary b x3 y3);
    i := k + 4
  done;
  for k = !i to len - 1 do
    BA1.unsafe_set d (o + k) (binary b (BA1.unsafe_get x (xo + k)) (BA1.unsafe_get y (yo + k)))
  done

(* The four arithmetic operators carry the pointwise traffic of real
   (f32) models, so they get a loop each; the rest share one loop with
   the operator matched per element. *)
let binary_block b (x : Tensor.fbuf) xo (y : Tensor.fbuf) yo (d : Tensor.fbuf) o len =
  match x, y, d with
  | Tensor.FB32 x, Tensor.FB32 y, Tensor.FB32 d -> (
    match b with
    | Op.Add -> binary_loop32 Op.Add x xo y yo d o len
    | Op.Sub -> binary_loop32 Op.Sub x xo y yo d o len
    | Op.Mul -> binary_loop32 Op.Mul x xo y yo d o len
    | Op.Div -> binary_loop32 Op.Div x xo y yo d o len
    | b -> binary_loop32 b x xo y yo d o len)
  | Tensor.FB64 x, Tensor.FB64 y, Tensor.FB64 d ->
    for i = 0 to len - 1 do
      BA1.unsafe_set d (o + i)
        (binary b (BA1.unsafe_get x (xo + i)) (BA1.unsafe_get y (yo + i)))
    done
  | x, y, d ->
    for i = 0 to len - 1 do
      set d (o + i) (binary b (get x (xo + i)) (get y (yo + i)))
    done

let clip_block lo hi (x : Tensor.fbuf) xo (d : Tensor.fbuf) o len =
  (* Rebinding the bounds as arithmetic results (×1 is exact, signed
     zeros included) keeps them unboxed: a branch of the inlined
     [Float.max]/[Float.min] returning a boxed argument would box the
     other branch's value on every element. *)
  let lo = lo *. 1.0 and hi = hi *. 1.0 in
  match x, d with
  | Tensor.FB32 x, Tensor.FB32 d ->
    let i = ref 0 in
    while !i + 4 <= len do
      let k = !i in
      let v0 = BA1.unsafe_get x (xo + k) and v1 = BA1.unsafe_get x (xo + k + 1) in
      let v2 = BA1.unsafe_get x (xo + k + 2) and v3 = BA1.unsafe_get x (xo + k + 3) in
      BA1.unsafe_set d (o + k) (clip lo hi v0);
      BA1.unsafe_set d (o + k + 1) (clip lo hi v1);
      BA1.unsafe_set d (o + k + 2) (clip lo hi v2);
      BA1.unsafe_set d (o + k + 3) (clip lo hi v3);
      i := k + 4
    done;
    for k = !i to len - 1 do
      BA1.unsafe_set d (o + k) (clip lo hi (BA1.unsafe_get x (xo + k)))
    done
  | x, d ->
    for i = 0 to len - 1 do
      set d (o + i) (clip lo hi (get x (xo + i)))
    done

(* [len] source elements [ist] apart, from [so], into [d] at [o]: a copy
   when [ist = 1]. *)
let strided_copy (s : Tensor.fbuf) so ist (d : Tensor.fbuf) o len =
  match s, d with
  | Tensor.FB32 s, Tensor.FB32 d ->
    let i = ref 0 in
    while !i + 4 <= len do
      let k = !i in
      let p = so + (k * ist) in
      let v0 = BA1.unsafe_get s p and v1 = BA1.unsafe_get s (p + ist) in
      let v2 = BA1.unsafe_get s (p + (2 * ist)) and v3 = BA1.unsafe_get s (p + (3 * ist)) in
      BA1.unsafe_set d (o + k) v0;
      BA1.unsafe_set d (o + k + 1) v1;
      BA1.unsafe_set d (o + k + 2) v2;
      BA1.unsafe_set d (o + k + 3) v3;
      i := k + 4
    done;
    for k = !i to len - 1 do
      BA1.unsafe_set d (o + k) (BA1.unsafe_get s (so + (k * ist)))
    done
  | Tensor.FB64 s, Tensor.FB64 d ->
    for i = 0 to len - 1 do
      BA1.unsafe_set d (o + i) (BA1.unsafe_get s (so + (i * ist)))
    done
  | s, d ->
    for i = 0 to len - 1 do
      set d (o + i) (get s (so + (i * ist)))
    done

let copy_block (x : Tensor.fbuf) xo (d : Tensor.fbuf) o len =
  match x, d with
  | Tensor.FB64 x, Tensor.FB32 d ->
    for i = 0 to len - 1 do
      BA1.unsafe_set d (o + i) (BA1.unsafe_get x (xo + i))
    done
  | x, d -> strided_copy x xo 1 d o len

let where_block (c : Tensor.fbuf) co (x : Tensor.fbuf) xo (y : Tensor.fbuf) yo
    (d : Tensor.fbuf) o len =
  for i = 0 to len - 1 do
    set d (o + i) (if where_true (get c (co + i)) then get x (xo + i) else get y (yo + i))
  done

let splat_block (src : Tensor.fbuf) so (d : Tensor.fbuf) o len =
  let v = get src so in
  match d with
  | Tensor.FB32 d ->
    for i = o to o + len - 1 do
      BA1.unsafe_set d i v
    done
  | Tensor.FB64 d ->
    for i = o to o + len - 1 do
      BA1.unsafe_set d i v
    done

(* Flat indices [lo, lo+len) of the consumer, read through [m] from the
   source at [so]: unravel [lo] once, then copy innermost-dim runs,
   carrying into the outer dims between runs. *)
let gather_block (s : Tensor.fbuf) so m coord (d : Tensor.fbuf) o lo len =
  let dims = m.m_dims and st = m.m_strides in
  let r = Array.length dims in
  let rem = ref lo and off = ref so in
  for k = r - 1 downto 0 do
    let q = !rem mod dims.(k) in
    rem := !rem / dims.(k);
    coord.(k) <- q;
    off := !off + (q * st.(k))
  done;
  let inner = dims.(r - 1) and ist = st.(r - 1) in
  let i = ref 0 in
  while !i < len do
    let run = min (inner - coord.(r - 1)) (len - !i) in
    strided_copy s !off ist d (o + !i) run;
    i := !i + run;
    if !i < len then begin
      off := !off - (coord.(r - 1) * ist);
      coord.(r - 1) <- 0;
      let k = ref (r - 2) in
      while !k >= 0 do
        let kk = !k in
        coord.(kk) <- coord.(kk) + 1;
        off := !off + st.(kk);
        if coord.(kk) = dims.(kk) then begin
          coord.(kk) <- 0;
          off := !off - (dims.(kk) * st.(kk));
          decr k
        end
        else k := -1
      done
    end
  done

(* BatchNorm over flat indices [lo, lo+len): per channel run, hoist
   mean, sd = sqrt(var + eps), scale and bias, then apply the reference's
   chain ((x − mean) / sd × scale) + bias with its rounding points. *)
let[@inline] norm_param (nm : norm) (bufs : Tensor.fbuf array) offs k ch =
  let l = nm.n_params.(k) in
  get bufs.(l) (offs.(l) + if nm.n_per_channel.(k) then ch else 0)

(* One channel run of the all-f32 chain, in C beside the GEMM tile
   (gemm_stubs.c). *)
external norm_run32 :
  Tensor.f32buf -> (int[@untagged]) -> Tensor.f32buf -> (int[@untagged]) ->
  (int[@untagged]) -> (float[@unboxed]) -> (float[@unboxed]) -> (float[@unboxed]) ->
  (float[@unboxed]) -> unit = "sod2_norm32_byte" "sod2_norm32"
[@@noalloc]

let norm_block (nm : norm) (bufs : Tensor.fbuf array) offs cell (x : Tensor.fbuf) xo
    (d : Tensor.fbuf) o lo len =
  let r1 = nm.n_round.(0) and r2 = nm.n_round.(1) and r3 = nm.n_round.(2) in
  let all32 = ref (r1 && r2 && r3) in
  for k = 0 to Array.length nm.n_params - 1 do
    match bufs.(nm.n_params.(k)) with Tensor.FB32 _ -> () | Tensor.FB64 _ -> all32 := false
  done;
  let i = ref 0 in
  while !i < len do
    let j = lo + !i in
    let ch = j / nm.n_inner mod nm.n_channels in
    let run = min (nm.n_inner - (j mod nm.n_inner)) (len - !i) in
    let s = norm_param nm bufs offs 0 ch and b = norm_param nm bufs offs 1 ch in
    let m = norm_param nm bufs offs 2 ch in
    let sd = sqrt (norm_param nm bufs offs 3 ch +. nm.n_eps) in
    (match x, d with
    | Tensor.FB32 x, Tensor.FB32 d when !all32 -> norm_run32 x (xo + !i) d (o + !i) run m sd s b
    | x, d ->
      for k = !i to !i + run - 1 do
        let v = get x (xo + k) -. m in
        let v = if r1 then round32 cell 0 v else v in
        let v = v /. sd in
        let v = if r2 then round32 cell 0 v else v in
        let v = v *. s in
        let v = if r3 then round32 cell 0 v else v in
        set d (o + k) (v +. b)
      done);
    i := !i + run
  done

let[@inline] buf_of s (bufs : Tensor.fbuf array) = function
  | R32 _ -> s.b32
  | R64 _ -> s.b64
  | Leaf l -> Array.unsafe_get bufs l

let[@inline] off_of offs lo = function
  | R32 r | R64 r -> r * block
  | Leaf l -> Array.unsafe_get offs l + lo

(* Run every instruction over flat indices [lo, lo+len). *)
let run_block code s bufs offs lo len =
  for pc = 0 to Array.length code - 1 do
    match Array.unsafe_get code pc with
    | Unary (u, x, d) ->
      unary_block u (buf_of s bufs x) (off_of offs lo x) (buf_of s bufs d)
        (off_of offs lo d) len
    | Binary (b, x, y, d) ->
      binary_block b (buf_of s bufs x) (off_of offs lo x) (buf_of s bufs y)
        (off_of offs lo y) (buf_of s bufs d) (off_of offs lo d) len
    | Clip (a, b, x, d) ->
      clip_block a b (buf_of s bufs x) (off_of offs lo x) (buf_of s bufs d)
        (off_of offs lo d) len
    | Copy (x, d) ->
      copy_block (buf_of s bufs x) (off_of offs lo x) (buf_of s bufs d)
        (off_of offs lo d) len
    | Where (c, x, y, d) ->
      where_block (buf_of s bufs c) (off_of offs lo c) (buf_of s bufs x)
        (off_of offs lo x) (buf_of s bufs y) (off_of offs lo y) (buf_of s bufs d)
        (off_of offs lo d) len
    | Gather (l, m, d) ->
      gather_block bufs.(l) offs.(l) m s.coord (buf_of s bufs d) (off_of offs lo d) lo len
    | Splat (l, d) ->
      splat_block bufs.(l) offs.(l) (buf_of s bufs d) (off_of offs lo d) len
    | Norm nm ->
      norm_block nm bufs offs s.cell (buf_of s bufs nm.n_x) (off_of offs lo nm.n_x)
        (buf_of s bufs nm.n_dst) (off_of offs lo nm.n_dst) lo len
  done

let grow s (st : stage) =
  if BA1.dim s.r32 < st.regs32 * block then begin
    s.r32 <- BA1.create Bigarray.float32 Bigarray.c_layout (st.regs32 * block);
    s.b32 <- Tensor.FB32 s.r32
  end;
  if BA1.dim s.r64 < st.regs64 * block then begin
    s.r64 <- BA1.create Bigarray.float64 Bigarray.c_layout (st.regs64 * block);
    s.b64 <- Tensor.FB64 s.r64
  end;
  for pc = 0 to Array.length st.code - 1 do
    match st.code.(pc) with
    | Gather (_, m, _) when Array.length s.coord < Array.length m.m_dims ->
      s.coord <- Array.make (Array.length m.m_dims) 0
    | _ -> ()
  done

let grain = 16_384

(* Run [st] over its whole index space, [bufs]/[offs] giving every leaf's
   storage.  Large spaces split into chunks across [par]; each chunk takes
   a register file and walks its blocks.  A stage without registers runs
   each chunk as one block. *)
let run ~(par : Blocked.par) (st : stage) bufs offs =
  let step = if st.regs32 = 0 && st.regs64 = 0 then max_int else block in
  let chunk lo hi =
    let s = Blocked.Pool.take pool in
    match
      grow s st;
      let b = ref lo in
      while !b < hi do
        let len = min step (hi - !b) in
        run_block st.code s bufs offs !b len;
        b := !b + len
      done
    with
    | () -> Blocked.Pool.give pool s
    | exception e ->
      Blocked.Pool.give pool s;
      raise e
  in
  let n = st.n in
  let chunks = if n >= 2 * grain then (n + grain - 1) / grain else 1 in
  let size = (n + chunks - 1) / chunks in
  if n > 0 then
    par.Blocked.run chunks (fun ci ->
        let lo = ci * size in
        chunk lo (min n (lo + size)))
