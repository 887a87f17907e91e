module BA1 = Bigarray.Array1

type par = { run : int -> (int -> unit) -> unit }

let sequential =
  {
    run =
      (fun n f ->
        for i = 0 to n - 1 do
          f i
        done);
  }

let ceil_div x y = (x + y - 1) / y

(* ---------------------------------------------------------------- *)
(* Reusable packing scratch                                          *)

(* Packed panels are bounded: an A row tile and a B column block each
   hold at most [panel_words] elements (256 KB, so the pair stays
   cache-resident), except that one row group or column pair at full
   depth is always allowed.  Retaining full-width B panels per worker
   was measured to more than double the OCaml heap's high-water mark. *)
let panel_words = 32 * 1024

(* Scratch travels by take-and-return through a mutex-guarded free list,
   not domain-local storage: systhreads share their domain's DLS, and the
   engine's degraded mode runs kernels on client threads.  A task takes a
   scratch, packs into it and gives it back, so once every participant
   has grown its scratch to the shapes in use a kernel call allocates
   only a constant few words. *)
module Pool = struct
  type 'a t = {
    lock : Mutex.t;
    mutable items : 'a array;
    mutable count : int;
    make : unit -> 'a;
  }

  let create make = { lock = Mutex.create (); items = [||]; count = 0; make }

  let take p =
    Mutex.lock p.lock;
    if p.count > 0 then begin
      p.count <- p.count - 1;
      let s = p.items.(p.count) in
      Mutex.unlock p.lock;
      s
    end
    else begin
      Mutex.unlock p.lock;
      p.make ()
    end

  let give p s =
    Mutex.lock p.lock;
    if p.count = Array.length p.items then
      p.items <- Array.append p.items (Array.make (max 4 p.count) s);
    p.items.(p.count) <- s;
    p.count <- p.count + 1;
    Mutex.unlock p.lock

  (* [use p f] runs [f] on a taken scratch and gives it back, also when
     [f] raises. *)
  let use p f =
    let s = take p in
    match f s with
    | v ->
      give p s;
      v
    | exception e ->
      give p s;
      raise e
end

(* Float panels are float64 Bigarrays, so the C micro-kernel reads them
   as plain doubles whatever OCaml's float-array layout. *)
type panel = (float, Bigarray.float64_elt, Bigarray.c_layout) BA1.t

(* One participant's packing state.  [a_call]/[a_tile] and
   [b_call]/[b_blk] name what the panels hold, so consecutive tasks of
   one call on the same participant skip repacking; every call draws a
   fresh id from [calls], so a stale panel never matches. *)
type scratch = {
  mutable fa : panel;  (* A row tile as row quads *)
  mutable fb : panel;  (* B column block as column octets *)
  mutable ia : int array;  (* int8: A row tile, three rows per word *)
  mutable asum : int array;
  mutable ib : int array;  (* int8: B column block, sign-extended *)
  mutable bsum : int array;
  iacc : int array;  (* one 6×2 int8 micro-tile's drained accumulators *)
  mutable a_call : int;
  mutable a_tile : int;
  mutable b_call : int;
  mutable b_blk : int;
}

let panel n : panel = BA1.create Bigarray.float64 Bigarray.c_layout n

let panels =
  Pool.create (fun () ->
      {
        fa = panel 0;
        fb = panel 0;
        ia = [||];
        asum = [||];
        ib = [||];
        bsum = [||];
        iacc = Array.make 12 0;
        a_call = -1;
        a_tile = -1;
        b_call = -1;
        b_blk = -1;
      })

let calls = Atomic.make 0

(* Grow-only: steady-state calls find the arrays already large enough. *)
let pgrow p n = if BA1.dim p >= n then p else panel n
let igrow a n = if Array.length a >= n then a else Array.make n 0

(* Row tiles (the parallel work unit) are whole [group]-row micro-tiles,
   up to 32 rows (8 float quads, 5 int8 sexts), and column tiles 32
   columns: enough row and column groups to amortize the micro-tiles'
   edge guards; sequential GEMMs time the same at 64-row tiles.  A row
   tile is lowered when [group_words] words per row group would pass the
   panel bound; column-block width likewise, in groups of [group] columns
   of depth [k]: octets for the float kernel, pairs for int8. *)
let tile_extent = 32

let row_tile ~group ~group_words =
  group * max 1 (min (tile_extent / group) (panel_words / group_words))

let col_block ~group ~k = group * max 1 (panel_words / (group * k))

(* Run [nt] tasks of one call on the runner, each on a scratch taken
   from [panels].  Callers number tasks block-major (task [t] is row tile
   [t mod mtiles] of column block [t / mtiles]), so a sequential runner
   packs each B block once. *)
let run_tasks (par : par) nt task =
  par.run nt (fun t ->
      let s = Pool.take panels in
      match task s t with
      | () -> Pool.give panels s
      | exception e ->
        Pool.give panels s;
        raise e)

(* The register micro-tile, in C (gemm_stubs.c): [tile ap ia bp ib k c ci
   n rows cols] adds the product of the A row quad at [ap + ia] — two
   consecutive quads when [rows > 4] — and the eight B columns at
   [bp + ib] into the top-left [rows × cols] corner of C at [ci].  Each C
   element is one ascending-k chain of f64 multiply-then-add from +0.0,
   added to the destination once at the store: the naive loop's operation
   sequence, bit for bit, whether the host runs the 8×8 AVX-512F tile or
   two 4×8 ones. *)
external tile :
  panel -> (int[@untagged]) -> panel -> (int[@untagged]) -> (int[@untagged]) ->
  ('a, 'b, Bigarray.c_layout) BA1.t -> (int[@untagged]) -> (int[@untagged]) ->
  (int[@untagged]) -> (int[@untagged]) -> unit = "sod2_gemm_tile_byte" "sod2_gemm_tile"
[@@noalloc]

external tile_rows : unit -> int = "sod2_gemm_tile_rows" [@@noalloc]

let gemm_tile = if tile_rows () = 8 then "8x8 avx512f" else "4x8"

(* The panel packers, in C beside the tile: each widens a float32 or
   float64 operand exactly into a float64 panel, ragged quads and octets
   zero-padded so every tile is whole.  [pack_a a ao k i0 mc panel] packs
   rows [i0, i0 + mc) of A as row quads; [pack_b b bo n k j0 ngroups
   panel] columns [j0, j0 + 8·ngroups) of B as column octets;
   [pack_conv_b x geom n k j0 ngroups panel] the same columns of a
   convolution's im2col matrix, gathered from the image [x] through
   [geom] (laid out in {!conv2d_im2col_into}), padding taps +0.0. *)
external pack_a :
  ('a, 'b, Bigarray.c_layout) BA1.t -> (int[@untagged]) -> (int[@untagged]) ->
  (int[@untagged]) -> (int[@untagged]) -> panel -> unit = "sod2_pack_a_byte" "sod2_pack_a"
[@@noalloc]

external pack_b :
  ('a, 'b, Bigarray.c_layout) BA1.t -> (int[@untagged]) -> (int[@untagged]) ->
  (int[@untagged]) -> (int[@untagged]) -> (int[@untagged]) -> panel -> unit
  = "sod2_pack_b_byte" "sod2_pack_b"
[@@noalloc]

external pack_conv_b :
  ('a, 'b, Bigarray.c_layout) BA1.t -> int array -> (int[@untagged]) -> (int[@untagged]) ->
  (int[@untagged]) -> (int[@untagged]) -> panel -> unit
  = "sod2_pack_conv_b_byte" "sod2_pack_conv_b"
[@@noalloc]

(* Where a GEMM's B comes from: row-major rows at an offset, or the
   im2col matrix of one (image, group) of a convolution, read from the
   image itself, so no column matrix is ever built. *)
type b_source =
  | Rows of Tensor.fbuf * int
  | Image of Tensor.fbuf * int array

let gemm_from ~par ~m ~n ~k ~(a : Tensor.fbuf) ~ao ~b ~(c : Tensor.fbuf) ~co =
  if m > 0 && n > 0 && k > 0 then begin
    let mt = row_tile ~group:4 ~group_words:(4 * k) in
    let nc = col_block ~group:8 ~k in
    let mtiles = ceil_div m mt in
    let call = Atomic.fetch_and_add calls 1 in
    (* column tiles of octets, whose panel slice stays in L1 while the A
       quads stream past it *)
    let jgt = tile_extent / 8 in
    run_tasks par
      (mtiles * ceil_div n nc)
      (fun s t ->
        let it = t mod mtiles and blk = t / mtiles in
        let i0 = it * mt and j0 = blk * nc in
        let mc = min mt (m - i0) in
        let mquads = ceil_div mc 4 in
        let ngroups = ceil_div (min nc (n - j0)) 8 in
        if s.a_call <> call || s.a_tile <> it then begin
          s.fa <- pgrow s.fa (mquads * k * 4);
          (match a with
          | Tensor.FB32 a -> pack_a a ao k i0 mc s.fa
          | Tensor.FB64 a -> pack_a a ao k i0 mc s.fa);
          s.a_call <- call;
          s.a_tile <- it
        end;
        if s.b_call <> call || s.b_blk <> blk then begin
          s.fb <- pgrow s.fb (ngroups * k * 8);
          (match b with
          | Rows (Tensor.FB32 b, bo) -> pack_b b bo n k j0 ngroups s.fb
          | Rows (Tensor.FB64 b, bo) -> pack_b b bo n k j0 ngroups s.fb
          | Image (Tensor.FB32 x, geom) -> pack_conv_b x geom n k j0 ngroups s.fb
          | Image (Tensor.FB64 x, geom) -> pack_conv_b x geom n k j0 ngroups s.fb);
          s.b_call <- call;
          s.b_blk <- blk
        end;
        for jt = 0 to ceil_div ngroups jgt - 1 do
          (* two quads per step; an odd last quad runs alone *)
          for ip = 0 to ceil_div mquads 2 - 1 do
            let i = i0 + (ip * 8) in
            let rows = min 8 (i0 + mc - i) in
            for jg = jt * jgt to min ngroups ((jt + 1) * jgt) - 1 do
              let j = j0 + (jg * 8) in
              let ci = co + (i * n) + j and cols = min 8 (n - j) in
              let ia = ip * k * 8 and ib = jg * k * 8 in
              match c with
              | Tensor.FB32 cb -> tile s.fa ia s.fb ib k cb ci n rows cols
              | Tensor.FB64 cb -> tile s.fa ia s.fb ib k cb ci n rows cols
            done
          done
        done)
  end

let gemm ?(par = sequential) ~m ~n ~k ~a ~ao ~b ~bo ~c ~co () =
  gemm_from ~par ~m ~n ~k ~a ~ao ~b:(Rows (b, bo)) ~c ~co

(* Conv geometry shared by the float, depthwise and int8 paths. *)
type conv_geom = {
  n : int;
  c : int;
  h : int;
  wd : int;
  m : int;
  cg : int;
  kh : int;
  kw : int;
  oh : int;
  ow : int;
  sh : int;
  sw : int;
  pt : int;
  pl : int;
  dh : int;
  dw : int;
}

let conv_geom ~stride ~pad ~dilation ~groups (dx : int array) (dw : int array) =
  let sh, sw = stride in
  let pt, pl, pb, pr = pad in
  let dh, dw_ = dilation in
  Linalg.check_conv_groups ~c:dx.(1) ~groups ~cg:dw.(1);
  {
    n = dx.(0);
    c = dx.(1);
    h = dx.(2);
    wd = dx.(3);
    m = dw.(0);
    cg = dw.(1);
    kh = dw.(2);
    kw = dw.(3);
    oh =
      Linalg.conv2d_out_dim ~in_:dx.(2) ~kernel:dw.(2) ~stride:sh ~pad_begin:pt
        ~pad_end:pb ~dilation:dh;
    ow =
      Linalg.conv2d_out_dim ~in_:dx.(3) ~kernel:dw.(3) ~stride:sw ~pad_begin:pl
        ~pad_end:pr ~dilation:dw_;
    sh;
    sw;
    pt;
    pl;
    dh;
    dw = dw_;
  }

(* Output column [ox] of kernel column [kx] reads source column
   [ox·sw + off] with [off = kx·dw − pl]; it is in bounds for [ox] in
   [[col_lo, col_hi)]. *)
let col_lo (q : conv_geom) off = if off >= 0 then 0 else min q.ow (ceil_div (-off) q.sw)

let col_hi (q : conv_geom) off lo =
  if off >= q.wd then lo else max lo (min q.ow (((q.wd - 1 - off) / q.sw) + 1))

(* Element access for the depthwise loop, inlined so each element stays
   unboxed (a float returned from a call into another module is boxed,
   and dev-profile builds are [-opaque]). *)
let[@inline] fget (buf : Tensor.fbuf) i =
  match buf with Tensor.FB32 b -> BA1.unsafe_get b i | Tensor.FB64 b -> BA1.unsafe_get b i

let[@inline] fset (buf : Tensor.fbuf) i v =
  match buf with
  | Tensor.FB32 b -> BA1.unsafe_set b i v
  | Tensor.FB64 b -> BA1.unsafe_set b i v

(* Depthwise convolution (one output channel per group) as a direct tap
   loop: a GEMM per channel with m = 1 spends its time in dispatch and
   packing.  Each output row accumulates in double precision over
   (ci, ky, kx) ascending from zero, skipping out-of-bounds taps, and the
   bias is added at the store — {!Linalg.conv2d_into}'s order, bit for bit.
   One task covers whole channel planes, about [16k] taps' worth. *)
let conv2d_depthwise par (q : conv_geom) (vx : Tensor.view) (vw : Tensor.view)
    (vbias : Tensor.view option) dst co =
  let planes = q.n * q.m in
  let per_task = max 1 (16_384 / max 1 (q.oh * q.ow * q.cg * q.kh * q.kw)) in
  let xb = vx.Tensor.vbuf and wb = vw.Tensor.vbuf in
  run_tasks par (ceil_div planes per_task) (fun s t ->
      (* The row accumulators borrow the A panel, so the panel no longer
         holds any GEMM's packed tile. *)
      s.fa <- pgrow s.fa q.ow;
      s.a_call <- -1;
      let acc = s.fa in
      for p = t * per_task to min planes ((t + 1) * per_task) - 1 do
        let ni = p / q.m and mi = p mod q.m in
        let bias =
          match vbias with
          | None -> 0.0
          | Some v -> fget v.Tensor.vbuf (v.Tensor.voff + mi)
        in
        for oy = 0 to q.oh - 1 do
          for ox = 0 to q.ow - 1 do
            BA1.unsafe_set acc ox 0.0
          done;
          for ci = 0 to q.cg - 1 do
            let plane = vx.Tensor.voff + (((ni * q.c) + (mi * q.cg) + ci) * q.h * q.wd) in
            for ky = 0 to q.kh - 1 do
              let iy = (oy * q.sh) - q.pt + (ky * q.dh) in
              if iy >= 0 && iy < q.h then
                for kx = 0 to q.kw - 1 do
                  let wv =
                    fget wb (vw.Tensor.voff + (((((mi * q.cg) + ci) * q.kh) + ky) * q.kw) + kx)
                  in
                  let off = (kx * q.dw) - q.pl in
                  let lo = col_lo q off in
                  let hi = col_hi q off lo in
                  let src = plane + (iy * q.wd) + off and sw = q.sw in
                  (* four output columns per step *)
                  let ox = ref lo in
                  while !ox + 4 <= hi do
                    let c = !ox in
                    let s0 = src + (c * sw) in
                    let x0 = fget xb s0 and x1 = fget xb (s0 + sw) in
                    let x2 = fget xb (s0 + (2 * sw)) and x3 = fget xb (s0 + (3 * sw)) in
                    BA1.unsafe_set acc c (BA1.unsafe_get acc c +. (x0 *. wv));
                    BA1.unsafe_set acc (c + 1) (BA1.unsafe_get acc (c + 1) +. (x1 *. wv));
                    BA1.unsafe_set acc (c + 2) (BA1.unsafe_get acc (c + 2) +. (x2 *. wv));
                    BA1.unsafe_set acc (c + 3) (BA1.unsafe_get acc (c + 3) +. (x3 *. wv));
                    ox := c + 4
                  done;
                  for ox = !ox to hi - 1 do
                    BA1.unsafe_set acc ox
                      (BA1.unsafe_get acc ox +. (fget xb (src + (ox * sw)) *. wv))
                  done
                done
            done
          done;
          let o = co + (((p * q.oh) + oy) * q.ow) in
          for ox = 0 to q.ow - 1 do
            fset dst (o + ox) (bias +. BA1.unsafe_get acc ox)
          done
        done
      done)

let conv2d_im2col_into ?(par = sequential) ~stride ~pad
    ~dilation ~groups (vx : Tensor.view) (vw : Tensor.view) (vbias : Tensor.view option)
    ~c:dst ~co =
  let q =
    conv_geom ~stride ~pad ~dilation ~groups (Array.of_list vx.Tensor.vdims)
      (Array.of_list vw.Tensor.vdims)
  in
  let mg = q.m / groups in
  let kdim = q.cg * q.kh * q.kw in
  let ndim = q.oh * q.ow in
  if co < 0 || co + (q.n * q.m * ndim) > Tensor.fbuf_len dst then
    invalid_arg "Blocked.conv2d_im2col_into: destination window out of bounds";
  if mg = 1 && groups > 1 then conv2d_depthwise par q vx vw vbias dst co
  else begin
    (* The gemm accumulates into its destination window, so it must start
       from the bias value (or zero) regardless of what the buffer held. *)
    for ni = 0 to q.n - 1 do
      for mi = 0 to q.m - 1 do
        let v =
          match vbias with
          | None -> 0.0
          | Some { Tensor.vbuf = Tensor.FB32 b; voff; _ } -> BA1.get b (voff + mi)
          | Some { Tensor.vbuf = Tensor.FB64 b; voff; _ } -> BA1.get b (voff + mi)
        in
        let o = co + (((ni * q.m) + mi) * ndim) in
        match dst with
        | Tensor.FB32 d ->
          for i = o to o + ndim - 1 do
            BA1.unsafe_set d i v
          done
        | Tensor.FB64 d ->
          for i = o to o + ndim - 1 do
            BA1.unsafe_set d i v
          done
      done
    done;
    if ndim > 0 && kdim > 0 then begin
      (* B of each (image, group) GEMM is its im2col matrix, which the
         packer gathers from the image through [geom]: the group's first
         input plane, the plane's extents, the group's input channels,
         the kernel, the output width, strides, leading pads and
         dilations (gemm_stubs.c reads them in this order).  Only the
         plane offset changes between the GEMMs, each of which completes
         before the next. *)
      let geom =
        [| 0; q.h; q.wd; q.cg; q.kh; q.kw; q.ow; q.sh; q.sw; q.pt; q.pl; q.dh; q.dw |]
      in
      let b = Image (vx.Tensor.vbuf, geom) in
      for ni = 0 to q.n - 1 do
        for g = 0 to groups - 1 do
          geom.(0) <- vx.Tensor.voff + (((ni * q.c) + (g * q.cg)) * q.h * q.wd);
          (* [co] makes the gemm's write indices global flat offsets into
             the destination buffer. *)
          gemm_from ~par ~m:mg ~n:ndim ~k:kdim ~a:vw.Tensor.vbuf
            ~ao:(vw.Tensor.voff + (g * mg * kdim))
            ~b ~c:dst
            ~co:(co + (((ni * q.m) + (g * mg)) * ndim))
        done
      done
    end
  end;
  [ q.n; q.m; q.oh; q.ow ]

(* ---------------------------------------------------------------- *)
(* Int8 path: packed panels, integer micro-kernel, dequantizing store *)

(* The integer micro-tile is 6×2, and the A panel packs THREE rows per
   63-bit word at 21-bit field spacing — rows (i, i+2, i+4) as
   [r0 + r2·2^21 + r4·2^42] and rows (i+1, i+3, i+5) likewise — so one
   native multiply against a sign-extended B element computes THREE
   multiply-accumulates.  Scalar OCaml has one integer multiplier port
   to play with; cutting the multiply count to a third is what puts the
   int8 kernel decisively ahead of the f32 one (whose two FP ports give
   it the same 2-MACs-per-port-cycle a two-field packing would).  The
   tile keeps just four live accumulator words, so nothing spills — a
   4×4 variant with eight accumulators was tried and regressed on spill
   traffic.

   Field discipline: |a|,|b| ≤ 128, so each 21-bit field accumulates at
   most kb·2^14 and the field range ±2^20 allows kb ≤ 64 k-steps before
   a field can overflow into its neighbour.  The depth loop therefore
   runs in blocks of [i8_kblock] = 60 steps, draining the four SWAR
   words into twelve plain int accumulators between blocks (the whole
   word stays within ±60·2^56 < 2^62, so the top field never leaves the
   63-bit int).  Reconstruction is standard signed-SWAR: sign-extend the
   low 21 bits, subtract, shift, repeat.  Total depth stays capped at
   2^16, so a corrected accumulator stays below 2^32 in magnitude and
   converts to float exactly.

   Zero points never enter the panels: the write-back applies the
   algebraic correction  Σ(a-za)(b-zb) = Σab − zb·Σa − za·Σb + k·za·zb
   from row/column sums collected during packing, so the packed values
   stay raw int8 and the correction is exact integer arithmetic. *)

let max_i8_depth = 1 lsl 16
let i8_kblock = 60

(* [iqblk] runs one overflow-safe depth block of a 6×2 micro-tile —
   [ia] up to (exclusive) [iaend] — retiring four k-steps per iteration
   with the accumulator words carried in the tail-recursion arguments,
   then drains the fields inline into [acc] ([row*2 + col] layout): no
   closure, tuple, or allocation anywhere on the depth path.  Exactly
   ten arguments: that is how many the OCaml amd64 convention passes in
   registers, and an eleventh would push the self-tail-call through the
   stack on every iteration. *)
let rec iqblk (ap : int array) (bp : int array) (acc : int array) ia ib iaend
    q00 q01 q10 q11 =
  if ia + 8 <= iaend then begin
    let p0 = Array.unsafe_get ap ia
    and p1 = Array.unsafe_get ap (ia + 1)
    and b0 = Array.unsafe_get bp ib
    and b1 = Array.unsafe_get bp (ib + 1) in
    let q00 = q00 + (p0 * b0)
    and q01 = q01 + (p0 * b1)
    and q10 = q10 + (p1 * b0)
    and q11 = q11 + (p1 * b1) in
    let p0 = Array.unsafe_get ap (ia + 2)
    and p1 = Array.unsafe_get ap (ia + 3)
    and b0 = Array.unsafe_get bp (ib + 2)
    and b1 = Array.unsafe_get bp (ib + 3) in
    let q00 = q00 + (p0 * b0)
    and q01 = q01 + (p0 * b1)
    and q10 = q10 + (p1 * b0)
    and q11 = q11 + (p1 * b1) in
    let p0 = Array.unsafe_get ap (ia + 4)
    and p1 = Array.unsafe_get ap (ia + 5)
    and b0 = Array.unsafe_get bp (ib + 4)
    and b1 = Array.unsafe_get bp (ib + 5) in
    let q00 = q00 + (p0 * b0)
    and q01 = q01 + (p0 * b1)
    and q10 = q10 + (p1 * b0)
    and q11 = q11 + (p1 * b1) in
    let p0 = Array.unsafe_get ap (ia + 6)
    and p1 = Array.unsafe_get ap (ia + 7)
    and b0 = Array.unsafe_get bp (ib + 6)
    and b1 = Array.unsafe_get bp (ib + 7) in
    iqblk ap bp acc (ia + 8) (ib + 8) iaend
      (q00 + (p0 * b0))
      (q01 + (p0 * b1))
      (q10 + (p1 * b0))
      (q11 + (p1 * b1))
  end
  else if ia < iaend then begin
    let p0 = Array.unsafe_get ap ia
    and p1 = Array.unsafe_get ap (ia + 1)
    and b0 = Array.unsafe_get bp ib
    and b1 = Array.unsafe_get bp (ib + 1) in
    iqblk ap bp acc (ia + 2) (ib + 2) iaend
      (q00 + (p0 * b0))
      (q01 + (p0 * b1))
      (q10 + (p1 * b0))
      (q11 + (p1 * b1))
  end
  else begin
    (* Block boundary: unpack the three 21-bit fields of each word —
       sign-extend the low field (rows i, i+1), subtract and shift for
       the mid fields (rows i+2, i+3), repeat for the top fields (rows
       i+4, i+5) — and accumulate into [acc]. *)
    let l00 = (q00 lsl 42) asr 42 in
    let r00 = (q00 - l00) asr 21 in
    let m00 = (r00 lsl 42) asr 42 in
    let l01 = (q01 lsl 42) asr 42 in
    let r01 = (q01 - l01) asr 21 in
    let m01 = (r01 lsl 42) asr 42 in
    let l10 = (q10 lsl 42) asr 42 in
    let r10 = (q10 - l10) asr 21 in
    let m10 = (r10 lsl 42) asr 42 in
    let l11 = (q11 lsl 42) asr 42 in
    let r11 = (q11 - l11) asr 21 in
    let m11 = (r11 lsl 42) asr 42 in
    acc.(0) <- acc.(0) + l00;
    acc.(1) <- acc.(1) + l01;
    acc.(2) <- acc.(2) + l10;
    acc.(3) <- acc.(3) + l11;
    acc.(4) <- acc.(4) + m00;
    acc.(5) <- acc.(5) + m01;
    acc.(6) <- acc.(6) + m10;
    acc.(7) <- acc.(7) + m11;
    acc.(8) <- acc.(8) + ((r00 - m00) asr 21);
    acc.(9) <- acc.(9) + ((r01 - m01) asr 21);
    acc.(10) <- acc.(10) + ((r10 - m10) asr 21);
    acc.(11) <- acc.(11) + ((r11 - m11) asr 21)
  end

(* Depth loop for one micro-tile: one [iqblk] call per overflow-safe
   block. *)
let rec iqtile ap bp acc ia ib krem =
  if krem > 0 then begin
    let kb = if krem < i8_kblock then krem else i8_kblock in
    iqblk ap bp acc ia ib (ia + (kb * 2)) 0 0 0 0;
    iqtile ap bp acc (ia + (kb * 2)) (ib + (kb * 2)) (krem - kb)
  end

(* B panel: column pairs, sign-extended into a plain [int array] at pack
   time.  Trading the 1-byte footprint for 8-byte words keeps the panel
   L2-resident while making every inner-loop B access a single indexed
   load — a Bigarray byte read costs a data-pointer fetch plus a sign
   extension on every access, and the micro-kernel does two of them per
   k-step.  Packs columns [j0, j0 + 2*npairs) clipped at [n]; an odd
   tail column is zero-padded; per-column sums for the zero-point
   correction are collected in the same pass. *)
let pack_b_i8 (b : Tensor.i8buf) bo ~n ~k ~j0 ~npairs (panel : int array)
    (bsum : int array) =
  for jp = 0 to npairs - 1 do
    let j = j0 + (jp * 2) in
    let base = jp * k * 2 in
    if j + 1 < n then begin
      let s0 = ref 0 and s1 = ref 0 in
      for p = 0 to k - 1 do
        let s = bo + (p * n) + j in
        let v0 = BA1.unsafe_get b s and v1 = BA1.unsafe_get b (s + 1) in
        Array.unsafe_set panel (base + (p * 2)) v0;
        Array.unsafe_set panel (base + (p * 2) + 1) v1;
        s0 := !s0 + v0;
        s1 := !s1 + v1
      done;
      bsum.(jp * 2) <- !s0;
      bsum.((jp * 2) + 1) <- !s1
    end
    else begin
      let s0 = ref 0 in
      for p = 0 to k - 1 do
        let v0 = BA1.unsafe_get b (bo + (p * n) + j) in
        Array.unsafe_set panel (base + (p * 2)) v0;
        Array.unsafe_set panel (base + (p * 2) + 1) 0;
        s0 := !s0 + v0
      done;
      bsum.(jp * 2) <- !s0;
      bsum.((jp * 2) + 1) <- 0
    end
  done

(* A panel: row sextets packed three-rows-per-word ([(ip*k + p)*2 +
   {0,1}] holding rows (r, r+2, r+4) at 21-bit spacing), short tiles
   padded with zero rows, per-row sums collected alongside. *)
let pack_a_i8 (a : Tensor.i8buf) ao ~k ~i0 ~mc (abuf : int array) (asum : int array) =
  let msext = ceil_div mc 6 in
  for ip = 0 to msext - 1 do
    let i = i0 + (ip * 6) in
    let base = ip * k * 2 in
    let rows = min 6 (i0 + mc - i) in
    let r0 = ao + (i * k) in
    if rows = 6 then begin
      let s0 = ref 0 and s1 = ref 0 and s2 = ref 0 in
      let s3 = ref 0 and s4 = ref 0 and s5 = ref 0 in
      for p = 0 to k - 1 do
        let s = r0 + p in
        let v0 = BA1.unsafe_get a s
        and v1 = BA1.unsafe_get a (s + k)
        and v2 = BA1.unsafe_get a (s + (2 * k))
        and v3 = BA1.unsafe_get a (s + (3 * k))
        and v4 = BA1.unsafe_get a (s + (4 * k))
        and v5 = BA1.unsafe_get a (s + (5 * k)) in
        Array.unsafe_set abuf (base + (p * 2)) (v0 + (v2 lsl 21) + (v4 lsl 42));
        Array.unsafe_set abuf (base + (p * 2) + 1) (v1 + (v3 lsl 21) + (v5 lsl 42));
        s0 := !s0 + v0;
        s1 := !s1 + v1;
        s2 := !s2 + v2;
        s3 := !s3 + v3;
        s4 := !s4 + v4;
        s5 := !s5 + v5
      done;
      asum.((ip * 6)) <- !s0;
      asum.((ip * 6) + 1) <- !s1;
      asum.((ip * 6) + 2) <- !s2;
      asum.((ip * 6) + 3) <- !s3;
      asum.((ip * 6) + 4) <- !s4;
      asum.((ip * 6) + 5) <- !s5
    end
    else begin
      for r = 0 to 5 do
        asum.((ip * 6) + r) <- 0
      done;
      for p = 0 to k - 1 do
        let v r = if r < rows then BA1.unsafe_get a (r0 + (r * k) + p) else 0 in
        Array.unsafe_set abuf (base + (p * 2)) (v 0 + (v 2 lsl 21) + (v 4 lsl 42));
        Array.unsafe_set abuf (base + (p * 2) + 1) (v 1 + (v 3 lsl 21) + (v 5 lsl 42))
      done;
      for r = 0 to rows - 1 do
        let rs = r0 + (r * k) in
        let sr = ref 0 in
        for p = 0 to k - 1 do
          sr := !sr + BA1.unsafe_get a (rs + p)
        done;
        asum.((ip * 6) + r) <- !sr
      done
    end
  done

(* Row [r]'s entry of a per-row dequantization array; a one-element array
   stands for every row. *)
let[@inline] row_val (v : float array) r = Array.unsafe_get v (if Array.length v = 1 then 0 else r)

(* The int8 GEMM.  C is OVERWRITTEN, not accumulated into: packing is
   full-depth (one k-block), so every element's complete accumulator
   exists at write-back, which dequantizes it as [float acc *. scale +.
   bias] for product row [i] at rows [row0 + i] of the arrays — no
   integer intermediate is ever materialized.  The write-back matches
   the destination kind once per micro-tile, as the float {!gemm} does,
   and stores through a monomorphic Bigarray, so no float crosses a
   closure and nothing is boxed. *)
let gemm_i8_core ?(par = sequential) ~za ~zb ~scale ~bias ~row0
    ~m ~n ~k ~(a : Tensor.i8buf) ~ao ~(b : Tensor.i8buf) ~bo ~(c : Tensor.fbuf) ~co () =
  if k > max_i8_depth then
    invalid_arg "Blocked.gemm_i8_dequant: depth exceeds 65536 (accumulator field width)";
  let covers v = Array.length v = 1 || Array.length v >= row0 + m in
  if not (covers scale && covers bias) then
    invalid_arg "Blocked.gemm_i8_dequant: scale and bias need one entry or one per row";
  if m > 0 && n > 0 then begin
    (* Same bounded, block-major tiling as the float {!gemm}; depth 0
       packs nothing and leaves every accumulator 0. *)
    let kw = max 1 k in
    let mt = row_tile ~group:6 ~group_words:(2 * kw) in
    let nc = col_block ~group:2 ~k:kw in
    let mtiles = ceil_div m mt in
    let call = Atomic.fetch_and_add calls 1 in
    let kzazb = k * za * zb in
    let jpt = tile_extent / 2 in
    run_tasks par
      (mtiles * ceil_div n nc)
      (fun s t ->
        let it = t mod mtiles and blk = t / mtiles in
        let i0 = it * mt and j0 = blk * nc in
        let mc = min mt (m - i0) in
        let msext = ceil_div mc 6 in
        let npairs = ceil_div (min nc (n - j0)) 2 in
        if s.a_call <> call || s.a_tile <> it then begin
          s.ia <- igrow s.ia (msext * k * 2);
          s.asum <- igrow s.asum (msext * 6);
          pack_a_i8 a ao ~k ~i0 ~mc s.ia s.asum;
          s.a_call <- call;
          s.a_tile <- it
        end;
        if s.b_call <> call || s.b_blk <> blk then begin
          s.ib <- igrow s.ib (npairs * k * 2);
          s.bsum <- igrow s.bsum (npairs * 2);
          pack_b_i8 b bo ~n ~k ~j0 ~npairs s.ib s.bsum;
          s.b_call <- call;
          s.b_blk <- blk
        end;
        (* Drained accumulators for one 6×2 micro-tile, laid out
           [row*2 + col]. *)
        let acc = s.iacc in
        for jt = 0 to ceil_div npairs jpt - 1 do
          for ip = 0 to msext - 1 do
            let i = i0 + (ip * 6) in
            let rows = min 6 (i0 + mc - i) in
            for jp = jt * jpt to min npairs ((jt + 1) * jpt) - 1 do
              Array.fill acc 0 12 0;
              iqtile s.ia s.ib acc (ip * k * 2) (jp * k * 2) k;
              let j = j0 + (jp * 2) in
              let wide = j + 1 < n in
              (* The zero-point correction: a raw field sum Σab for row
                 [r] becomes Σ(a-za)(b-zb). *)
              let bs0 = za * s.bsum.(jp * 2) and bs1 = za * s.bsum.((jp * 2) + 1) in
              for r = 0 to rows - 1 do
                let ra = kzazb - (zb * s.asum.((ip * 6) + r)) in
                acc.(r * 2) <- acc.(r * 2) - bs0 + ra;
                acc.((r * 2) + 1) <- acc.((r * 2) + 1) - bs1 + ra
              done;
              match c with
              | Tensor.FB32 cb ->
                for r = 0 to rows - 1 do
                  let sc = row_val scale (row0 + i + r) and bi = row_val bias (row0 + i + r) in
                  let ci = co + ((i + r) * n) + j in
                  BA1.unsafe_set cb ci ((float_of_int acc.(r * 2) *. sc) +. bi);
                  if wide then BA1.unsafe_set cb (ci + 1) ((float_of_int acc.((r * 2) + 1) *. sc) +. bi)
                done
              | Tensor.FB64 cb ->
                for r = 0 to rows - 1 do
                  let sc = row_val scale (row0 + i + r) and bi = row_val bias (row0 + i + r) in
                  let ci = co + ((i + r) * n) + j in
                  BA1.unsafe_set cb ci ((float_of_int acc.(r * 2) *. sc) +. bi);
                  if wide then BA1.unsafe_set cb (ci + 1) ((float_of_int acc.((r * 2) + 1) *. sc) +. bi)
                done
            done
          done
        done)
  end

let gemm_i8_dequant ?par ~za ~zb ~scale ~bias = gemm_i8_core ?par ~za ~zb ~scale ~bias ~row0:0

(* Per-participant int8 im2col column buffers, grown to the largest
   (kernel volume × output pixels) seen and reused. *)
let col_pool = Pool.create (fun () -> ref (BA1.create Bigarray.int8_signed Bigarray.c_layout 0))

(* The im2col column matrix of image [ni], group [g] ([cg·kh·kw] rows of
   [oh·ow] output pixels) is written one output row at a time:
   [row o soff lo hi] must fill the [ow] elements at [o] with the source
   [soff + ox·sw] for [ox] in [[lo, hi)] and with padding elsewhere.
   Computing the in-bounds range once per row keeps the per-element
   loops branch-free and lets each storage kind's fill stay
   monomorphic. *)
let iter_col_rows (q : conv_geom) ~xoff ~ni ~g row =
  let ndim = q.oh * q.ow in
  for ci = 0 to q.cg - 1 do
    let src_base = xoff + (((ni * q.c) + (g * q.cg) + ci) * q.h * q.wd) in
    for ky = 0 to q.kh - 1 do
      for kx = 0 to q.kw - 1 do
        let rbase = ((((ci * q.kh) + ky) * q.kw) + kx) * ndim in
        let off = (kx * q.dw) - q.pl in
        let lo = col_lo q off in
        let hi = col_hi q off lo in
        for oy = 0 to q.oh - 1 do
          let iy = (oy * q.sh) - q.pt + (ky * q.dh) in
          if iy >= 0 && iy < q.h then
            row (rbase + (oy * q.ow)) (src_base + (iy * q.wd) + off) lo hi
          else row (rbase + (oy * q.ow)) 0 0 0
        done
      done
    done
  done

(* Quantized im2col: the column matrix is int8 (the 4× footprint shrink
   is exactly where the conv path was bandwidth-bound) and padding taps
   hold the INPUT ZERO POINT, not 0 — they must dequantize to 0.0, and
   the zero-point correction then cancels them exactly. *)
let conv2d_i8_dequant_into ?par ~zx ~zw ~scale ~bias ~stride ~pad ~dilation ~groups
    ~(x : Tensor.i8buf) ~xoff ~xdims ~(w : Tensor.i8buf) ~woff ~wdims ~(c : Tensor.fbuf) ~co () =
  let q = conv_geom ~stride ~pad ~dilation ~groups xdims wdims in
  let mg = q.m / groups in
  let kdim = q.cg * q.kh * q.kw in
  let ndim = q.oh * q.ow in
  if ndim > 0 && kdim > 0 then
    Pool.use col_pool (fun cs ->
        if BA1.dim !cs < kdim * ndim then
          cs := BA1.create Bigarray.int8_signed Bigarray.c_layout (kdim * ndim);
        let col = !cs in
        let sw = q.sw and ow = q.ow in
        let row o soff lo hi =
          for ox = 0 to lo - 1 do
            BA1.unsafe_set col (o + ox) zx
          done;
          for ox = lo to hi - 1 do
            BA1.unsafe_set col (o + ox) (BA1.unsafe_get x (soff + (ox * sw)))
          done;
          for ox = hi to ow - 1 do
            BA1.unsafe_set col (o + ox) zx
          done
        in
        for ni = 0 to q.n - 1 do
          for g = 0 to groups - 1 do
            iter_col_rows q ~xoff ~ni ~g row;
            (* the product's rows are output channels [g·mg ..] *)
            gemm_i8_core ?par ~za:zw ~zb:zx ~scale ~bias ~row0:(g * mg) ~m:mg ~n:ndim
              ~k:kdim ~a:w
              ~ao:(woff + (g * mg * kdim))
              ~b:col ~bo:0 ~c
              ~co:(co + (((ni * q.m) + (g * mg)) * ndim))
              ()
          done
        done);
  [ q.n; q.m; q.oh; q.ow ]
