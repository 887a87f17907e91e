/* The float GEMM behind Blocked.gemm: its panel packers and its register
   micro-kernels; the all-f32 BatchNorm loop of the block evaluator; and
   erf and Gelu, the one definition every path computes them with.

   A tile call computes up to 8 rows x 8 columns of C from packed panels:
   [a] holds row quads (a[4p + r], four rows, full depth; the next quad
   follows at a + 4k), [b] eight columns as a column octet (b[8p + j]),
   both float64.  A call of at most four rows runs the 4x8 tile: eight
   4-lane f64 accumulators (a row's 8 columns are two vectors), so each
   depth step is two B loads, four A broadcasts, eight multiplies and
   eight adds.  A call of five to eight rows takes two quads at once: on
   a host with AVX-512F the 8x8 tile holds them in eight 8-lane
   accumulators (one per row), so a depth step is one B load, eight A
   broadcasts, eight multiplies and eight adds for twice the products;
   elsewhere it runs as two 4x8 tiles.

   Every lane is one C element's accumulator: it starts at +0.0 and adds
   the products a[p]*b[p] in ascending p, each product and each sum
   rounded to f64 -- the operation sequence of Linalg.naive_kernel.  The
   file is compiled with -ffp-contract=off, so no multiply-add is fused,
   and the write-back adds the accumulator to the destination element
   once, rounding to the destination's precision at the store.  Hence the
   results are bit-identical to the naive loop in f32 and f64, whichever
   tile ran.

   The packers widen float32 or float64 operands exactly into the
   panels, and pad ragged quads and octets with +0.0.  The convolution
   packer reads B, the im2col matrix, straight from the NCHW image: a
   padding tap stores +0.0, the value the materialized column matrix
   held there, so the products and sums are those of the column-matrix
   GEMM.

   On x86-64, target_clones builds an AVX2 body and a baseline (SSE2)
   body of the 4x8 tile, the packers and the BatchNorm loop from one
   source (and an AVX-512F body of the erf loop); the loader picks one
   per host, and the 8x8 tile is chosen once, by the CPU's AVX-512F flag.
   All bodies round identically.  Elsewhere the vector types compile to
   the target's own vector or scalar code, with the same rounding. */

#include <caml/mlvalues.h>
#include <caml/alloc.h>
#include <caml/bigarray.h>

typedef double v4d __attribute__((vector_size(32)));
/* unaligned views for loads and stores through panel and C pointers */
typedef double v4du __attribute__((vector_size(32), aligned(8)));
typedef float v4f __attribute__((vector_size(16)));
typedef float v4fu __attribute__((vector_size(16), aligned(4)));
typedef double v8d __attribute__((vector_size(64)));
typedef double v8du __attribute__((vector_size(64), aligned(8)));
typedef float v8f __attribute__((vector_size(32)));
typedef float v8fu __attribute__((vector_size(32), aligned(4)));
/* lane masks, unsigned: gcc 12 fails on signed 64-bit vector masks
   under -fwrapv in an AVX2 clone */
typedef unsigned long long v8m __attribute__((vector_size(64)));

#define V(p) (*(const v4du *)(p))

#if defined(__x86_64__)
#define CLONES __attribute__((target_clones("avx2", "default")))
#define CLONES512 __attribute__((target_clones("avx512f", "avx2", "default")))
#else
#define CLONES
#define CLONES512
#endif

/* Add the lanes of [*v] into four consecutive destination elements. */
static inline void add4_f64(double *d, const v4d *v) { *(v4du *)d = V(d) + *v; }

static inline void add4_f32(float *d, const v4d *v)
{
  v4d w = __builtin_convertvector(*(const v4fu *)d, v4d) + *v;
  *(v4fu *)d = __builtin_convertvector(w, v4f);
}

CLONES
static void tile4x8(const double *a, const double *b, intnat k, int f32, void *c,
                    intnat n, intnat rows, intnat cols)
{
  v4d c00 = {0}, c01 = {0}, c10 = {0}, c11 = {0};
  v4d c20 = {0}, c21 = {0}, c30 = {0}, c31 = {0};
  for (intnat p = 0; p < k; p++, a += 4, b += 8) {
    v4d b0 = V(b), b1 = V(b + 4);
    double a0 = a[0], a1 = a[1], a2 = a[2], a3 = a[3];
    c00 += a0 * b0;
    c01 += a0 * b1;
    c10 += a1 * b0;
    c11 += a1 * b1;
    c20 += a2 * b0;
    c21 += a2 * b1;
    c30 += a3 * b0;
    c31 += a3 * b1;
  }
  v4d acc[4][2] = {{c00, c01}, {c10, c11}, {c20, c21}, {c30, c31}};
  if (cols == 8) {
    for (intnat r = 0; r < rows; r++) {
      if (f32) {
        float *d = (float *)c + r * n;
        add4_f32(d, &acc[r][0]);
        add4_f32(d + 4, &acc[r][1]);
      } else {
        double *d = (double *)c + r * n;
        add4_f64(d, &acc[r][0]);
        add4_f64(d + 4, &acc[r][1]);
      }
    }
  } else {
    for (intnat r = 0; r < rows; r++)
      for (intnat j = 0; j < cols; j++) {
        double v = acc[r][j / 4][j % 4];
        if (f32) {
          float *d = (float *)c + r * n + j;
          *d = (float)((double)*d + v);
        } else {
          double *d = (double *)c + r * n + j;
          *d = *d + v;
        }
      }
  }
}

#if defined(__x86_64__)
/* Two row quads (a, and a + 4k) against one B octet, one 8-lane
   accumulator per row. */
__attribute__((target("avx512f"))) static void tile8x8(const double *a, const double *b,
                                                       intnat k, int f32, void *c, intnat n,
                                                       intnat rows, intnat cols)
{
  const double *a2 = a + 4 * k;
  v8d c0 = {0}, c1 = {0}, c2 = {0}, c3 = {0}, c4 = {0}, c5 = {0}, c6 = {0}, c7 = {0};
  for (intnat p = 0; p < k; p++, a += 4, a2 += 4, b += 8) {
    v8d bv = *(const v8du *)b;
    c0 += a[0] * bv;
    c1 += a[1] * bv;
    c2 += a[2] * bv;
    c3 += a[3] * bv;
    c4 += a2[0] * bv;
    c5 += a2[1] * bv;
    c6 += a2[2] * bv;
    c7 += a2[3] * bv;
  }
  v8d acc[8] = {c0, c1, c2, c3, c4, c5, c6, c7};
  for (intnat r = 0; r < rows; r++) {
    if (cols == 8) {
      if (f32) {
        float *d = (float *)c + r * n;
        v8d w = __builtin_convertvector(*(const v8fu *)d, v8d) + acc[r];
        *(v8fu *)d = __builtin_convertvector(w, v8f);
      } else {
        double *d = (double *)c + r * n;
        *(v8du *)d = *(const v8du *)d + acc[r];
      }
    } else
      for (intnat j = 0; j < cols; j++) {
        if (f32) {
          float *d = (float *)c + r * n + j;
          *d = (float)((double)*d + acc[r][j]);
        } else {
          double *d = (double *)c + r * n + j;
          *d = *d + acc[r][j];
        }
      }
  }
}

static int has_tile8x8;

__attribute__((constructor)) static void pick_tile(void)
{
  __builtin_cpu_init();
  has_tile8x8 = __builtin_cpu_supports("avx512f");
}
#else
static const int has_tile8x8 = 0;
#endif

/* [sod2_gemm_tile ap ia bp ib k c ci n rows cols] adds the product of
   the A quads at [ap + ia] (one quad when [rows] <= 4, else two) and the
   B octet at [bp + ib] (depth [k]) into the top-left [rows] x [cols]
   corner of C at flat index [ci], row stride [n].  [c] is a float32 or
   float64 bigarray. */
value sod2_gemm_tile(value ap, intnat ia, value bp, intnat ib, intnat k, value c,
                     intnat ci, intnat n, intnat rows, intnat cols)
{
  int f32 = (Caml_ba_array_val(c)->flags & CAML_BA_KIND_MASK) == CAML_BA_FLOAT32;
  size_t esz = f32 ? sizeof(float) : sizeof(double);
  char *cp = (char *)Caml_ba_data_val(c) + ci * esz;
  const double *a = (const double *)Caml_ba_data_val(ap) + ia;
  const double *b = (const double *)Caml_ba_data_val(bp) + ib;
  if (rows <= 4)
    tile4x8(a, b, k, f32, cp, n, rows, cols);
#if defined(__x86_64__)
  else if (has_tile8x8)
    tile8x8(a, b, k, f32, cp, n, rows, cols);
#endif
  else {
    tile4x8(a, b, k, f32, cp, n, 4, cols);
    tile4x8(a + 4 * k, b, k, f32, cp + 4 * n * esz, n, rows - 4, cols);
  }
  return Val_unit;
}

/* The height of the tile body that runs here: 8 for the AVX-512F 8x8
   tile, else 4 (two 4x8 tiles per call of more than four rows). */
value sod2_gemm_tile_rows(value unit)
{
  (void)unit;
  return Val_int(has_tile8x8 ? 8 : 4);
}

value sod2_gemm_tile_byte(value *argv, int argn)
{
  (void)argn;
  return sod2_gemm_tile(argv[0], Long_val(argv[1]), argv[2], Long_val(argv[3]),
                        Long_val(argv[4]), argv[5], Long_val(argv[6]), Long_val(argv[7]),
                        Long_val(argv[8]), Long_val(argv[9]));
}

/* ---------------------------------------------------------------- */
/* Panel packers                                                     */

/* A float32 (f32 = 1) or float64 source element, widened exactly.  The
   packers below are inlined into one body per kind. */
#define LD(s, f32, i) ((f32) ? (double)((const float *)(s))[i] : ((const double *)(s))[i])
#define KIND_INLINE static inline __attribute__((always_inline))

static int is_f32(value ba)
{
  return (Caml_ba_array_val(ba)->flags & CAML_BA_KIND_MASK) == CAML_BA_FLOAT32;
}

static double *panel_at(value panel) { return (double *)Caml_ba_data_val(panel); }

/* Rows [i0, i0 + mc) of the row-major A (row stride k, at [ao]) as
   full-depth row quads, a short last quad padded with zero rows. */
KIND_INLINE void pack_a_kind(const void *a, int f32, intnat ao, intnat k, intnat i0,
                             intnat mc, double *panel)
{
  for (intnat i = i0; i < i0 + mc; i += 4, panel += 4 * k) {
    intnat rows = i0 + mc - i < 4 ? i0 + mc - i : 4;
    intnat r0 = ao + i * k;
    if (rows == 4)
      for (intnat p = 0; p < k; p++) {
        panel[4 * p] = LD(a, f32, r0 + p);
        panel[4 * p + 1] = LD(a, f32, r0 + k + p);
        panel[4 * p + 2] = LD(a, f32, r0 + 2 * k + p);
        panel[4 * p + 3] = LD(a, f32, r0 + 3 * k + p);
      }
    else
      for (intnat p = 0; p < k; p++)
        for (intnat r = 0; r < 4; r++)
          panel[4 * p + r] = r < rows ? LD(a, f32, r0 + r * k + p) : 0.0;
  }
}

CLONES
static void pack_a(const void *a, int f32, intnat ao, intnat k, intnat i0, intnat mc,
                   double *panel)
{
  if (f32)
    pack_a_kind(a, 1, ao, k, i0, mc, panel);
  else
    pack_a_kind(a, 0, ao, k, i0, mc, panel);
}

/* Columns [j0, j0 + 8 ngroups) of the row-major B (row stride n, at
   [bo]) as full-depth column octets, the columns past n zero. */
KIND_INLINE void pack_b_kind(const void *b, int f32, intnat bo, intnat n, intnat k,
                             intnat j0, intnat ngroups, double *panel)
{
  for (intnat j = j0; j < j0 + 8 * ngroups; j += 8, panel += 8 * k) {
    intnat cols = n - j < 8 ? n - j : 8;
    if (cols == 8)
      for (intnat p = 0; p < k; p++)
        for (intnat jj = 0; jj < 8; jj++)
          panel[8 * p + jj] = LD(b, f32, bo + p * n + j + jj);
    else
      for (intnat p = 0; p < k; p++)
        for (intnat jj = 0; jj < 8; jj++)
          panel[8 * p + jj] = jj < cols ? LD(b, f32, bo + p * n + j + jj) : 0.0;
  }
}

CLONES
static void pack_b(const void *b, int f32, intnat bo, intnat n, intnat k, intnat j0,
                   intnat ngroups, double *panel)
{
  if (f32)
    pack_b_kind(b, 1, bo, n, k, j0, ngroups, panel);
  else
    pack_b_kind(b, 0, bo, n, k, j0, ngroups, panel);
}

/* The geometry of one (image, group) convolution GEMM, as the int array
   Blocked passes: the flat offset of the group's first input plane, the
   plane's extents, the group's input channels, the kernel, the output
   width, strides, leading pads and dilations. */
enum { G_PLANE, G_H, G_W, G_CG, G_KH, G_KW, G_OW, G_SH, G_SW, G_PT, G_PL, G_DH, G_DW, G_LEN };

/* Columns [j0, j0 + 8 ngroups) of the im2col matrix (depth row
   (ci, ky, kx), column output pixel oy*ow + ox), gathered from the image
   into column octets.  Per octet and kernel tap (ky, kx) the eight source
   offsets are computed once, -1 where the tap reads padding or the
   column is past n; the channel loop then reads one plane apart: two
   vector loads when the eight offsets are consecutive (a stride-1 row in
   bounds), eight plain loads when all are in bounds, and a zero for
   each padding tap otherwise. */
KIND_INLINE void pack_conv_b_kind(const void *x, int f32, const intnat *g, intnat n,
                                  intnat k, intnat j0, intnat ngroups, double *panel)
{
  const intnat h = g[G_H], w = g[G_W], kh = g[G_KH], kw = g[G_KW];
  const intnat plane = h * w, step = 8 * kh * kw;
  for (intnat j = j0; j < j0 + 8 * ngroups; j += 8, panel += 8 * k) {
    /* each lane's top-left source pixel; a column past n reads row -h,
       which no tap brings in bounds */
    intnat iy0[8], ix0[8];
    for (int l = 0; l < 8; l++) {
      intnat oy = (j + l) / g[G_OW], ox = (j + l) % g[G_OW];
      iy0[l] = j + l < n ? oy * g[G_SH] - g[G_PT] : -h - kh * g[G_DH];
      ix0[l] = ox * g[G_SW] - g[G_PL];
    }
    for (intnat ky = 0; ky < kh; ky++)
      for (intnat kx = 0; kx < kw; kx++) {
        intnat off[8];
        int all_in = 1, consecutive = 1;
        for (int l = 0; l < 8; l++) {
          intnat iy = iy0[l] + ky * g[G_DH], ix = ix0[l] + kx * g[G_DW];
          int in = iy >= 0 && iy < h && ix >= 0 && ix < w;
          off[l] = in ? iy * w + ix : -1;
          all_in &= in;
        }
        for (int l = 1; l < 8; l++) consecutive &= off[l] == off[0] + l;
        double *d = panel + 8 * (ky * kw + kx);
        const intnat s0 = g[G_PLANE];
        if (all_in && consecutive)
          for (intnat ci = 0, s = s0 + off[0]; ci < g[G_CG]; ci++, d += step, s += plane) {
            if (f32) {
              *(v4du *)d = __builtin_convertvector(*(const v4fu *)((const float *)x + s), v4d);
              *(v4du *)(d + 4) =
                  __builtin_convertvector(*(const v4fu *)((const float *)x + s + 4), v4d);
            } else {
              *(v4du *)d = V((const double *)x + s);
              *(v4du *)(d + 4) = V((const double *)x + s + 4);
            }
          }
        else if (all_in)
          for (intnat ci = 0, s = s0; ci < g[G_CG]; ci++, d += step, s += plane)
            for (int l = 0; l < 8; l++) d[l] = LD(x, f32, s + off[l]);
        else
          for (intnat ci = 0, s = s0; ci < g[G_CG]; ci++, d += step, s += plane)
            for (int l = 0; l < 8; l++) d[l] = off[l] >= 0 ? LD(x, f32, s + off[l]) : 0.0;
      }
  }
}

CLONES
static void pack_conv_b(const void *x, int f32, const intnat *g, intnat n, intnat k,
                        intnat j0, intnat ngroups, double *panel)
{
  if (f32)
    pack_conv_b_kind(x, 1, g, n, k, j0, ngroups, panel);
  else
    pack_conv_b_kind(x, 0, g, n, k, j0, ngroups, panel);
}

/* [sod2_pack_a a ao k i0 mc panel]: see pack_a.  [a] is a float32 or
   float64 bigarray, [panel] a float64 one. */
value sod2_pack_a(value a, intnat ao, intnat k, intnat i0, intnat mc, value panel)
{
  pack_a(Caml_ba_data_val(a), is_f32(a), ao, k, i0, mc, panel_at(panel));
  return Val_unit;
}

value sod2_pack_a_byte(value *argv, int argn)
{
  (void)argn;
  return sod2_pack_a(argv[0], Long_val(argv[1]), Long_val(argv[2]), Long_val(argv[3]),
                     Long_val(argv[4]), argv[5]);
}

/* [sod2_pack_b b bo n k j0 ngroups panel]: see pack_b. */
value sod2_pack_b(value b, intnat bo, intnat n, intnat k, intnat j0, intnat ngroups,
                  value panel)
{
  pack_b(Caml_ba_data_val(b), is_f32(b), bo, n, k, j0, ngroups, panel_at(panel));
  return Val_unit;
}

value sod2_pack_b_byte(value *argv, int argn)
{
  (void)argn;
  return sod2_pack_b(argv[0], Long_val(argv[1]), Long_val(argv[2]), Long_val(argv[3]),
                     Long_val(argv[4]), Long_val(argv[5]), argv[6]);
}

/* [sod2_pack_conv_b x geom n k j0 ngroups panel]: see pack_conv_b;
   [geom] is an OCaml int array laid out as G_*. */
value sod2_pack_conv_b(value x, value geom, intnat n, intnat k, intnat j0, intnat ngroups,
                       value panel)
{
  intnat g[G_LEN];
  for (int i = 0; i < G_LEN; i++) g[i] = Long_val(Field(geom, i));
  pack_conv_b(Caml_ba_data_val(x), is_f32(x), g, n, k, j0, ngroups, panel_at(panel));
  return Val_unit;
}

value sod2_pack_conv_b_byte(value *argv, int argn)
{
  (void)argn;
  return sod2_pack_conv_b(argv[0], argv[1], Long_val(argv[2]), Long_val(argv[3]),
                          Long_val(argv[4]), Long_val(argv[5]), argv[6]);
}

/* ---------------------------------------------------------------- */
/* BatchNorm, all f32                                                 */

/* [sod2_norm32 x xo d o len m sd s b] applies one channel run of the
   reference's all-f32 BatchNorm chain to the [len] float32 elements at
   [x + xo], storing at [d + o]: (x - m), / sd, * s, each rounded to f32,
   then + b rounded at the store.  Eight elements are loaded before any
   is stored, so [d] may be [x] at the same offset, and the eight compute
   as vectors without a run-time overlap check. */
static inline float norm1(float x, double m, double sd, double s, double b)
{
  float v = (float)((double)x - m);
  v = (float)((double)v / sd);
  v = (float)((double)v * s);
  return (float)((double)v + b);
}

CLONES
static void norm32(const float *x, float *d, intnat len, double m, double sd, double s,
                   double b)
{
  intnat i = 0;
  for (; i + 8 <= len; i += 8) {
    float t[8];
    for (int j = 0; j < 8; j++) t[j] = x[i + j];
    for (int j = 0; j < 8; j++) d[i + j] = norm1(t[j], m, sd, s, b);
  }
  for (; i < len; i++) d[i] = norm1(x[i], m, sd, s, b);
}

value sod2_norm32(value x, intnat xo, value d, intnat o, intnat len, double m, double sd,
                  double s, double b)
{
  norm32((const float *)Caml_ba_data_val(x) + xo, (float *)Caml_ba_data_val(d) + o, len, m,
         sd, s, b);
  return Val_unit;
}

value sod2_norm32_byte(value *argv, int argn)
{
  (void)argn;
  return sod2_norm32(argv[0], Long_val(argv[1]), argv[2], Long_val(argv[3]),
                     Long_val(argv[4]), Double_val(argv[5]), Double_val(argv[6]),
                     Double_val(argv[7]), Double_val(argv[8]));
}

/* ---------------------------------------------------------------- */
/* erf and Gelu                                                       */

/* The lanes of [a] where [m] is set, else those of [b]: an exact pick. */
static inline v8d pick(v8m m, v8d a, v8d b) { return (v8d)(((v8m)a & m) | ((v8m)b & ~m)); }

/* erf, lane by lane, as the odd rational x P(x^2) / Q(x^2) of degrees 13
   and 8 on x clamped to [-4, 4], the result clamped to [-1, 1]: no exp
   and no branch.  Against libm's erf it is within 1e-7 (6.5e-8 at worst
   on a 2e-7 grid over [0, 4.5]; past the clamp |erf| > 1 - 1.6e-8, and
   the clamp gives exactly 1), it
   is odd bit for bit (erf(-x) = -erf(x), erf(-0) = -0), and NaN passes
   through.  Each step is one IEEE operation, none fused, so every body
   and every lane computes the same bits. */
static inline v8d erf8(v8d x)
{
  const v8d one = (v8d){0} + 1.0, four = (v8d){0} + 4.0;
  v8d c = pick(x > four, four, pick(x < -four, -four, x));
  v8d x2 = c * c;
  v8d p = x2 * -2.72614225801306e-10 + 2.77068142495902e-08;
  p = p * x2 - 2.10102402082508e-06;
  p = p * x2 - 5.69250639462346e-05;
  p = p * x2 - 7.34990630326855e-04;
  p = p * x2 - 2.95459980854025e-03;
  p = p * x2 - 1.60960333262415e-02;
  v8d q = x2 * -1.45660718464996e-05 - 2.13374055278905e-04;
  q = q * x2 - 1.68282697438203e-03;
  q = q * x2 - 7.37332916720468e-03;
  q = q * x2 - 1.42647390514189e-02;
  v8d r = c * p / q;
  return pick(r > one, one, pick(r < -one, -one, r));
}

/* Gelu(v) = 0.5 v (1 + erf(v / sqrt 2)), left to right. */
static inline v8d gelu8(v8d v) { return 0.5 * v * (1.0 + erf8(v / 1.4142135623730951)); }

/* The scalar entries are lane 0 of the vector forms: one definition. */
double sod2_erf(double x) { return erf8((v8d){x})[0]; }
value sod2_erf_byte(value x) { return caml_copy_double(sod2_erf(Double_val(x))); }
double sod2_gelu(double v) { return gelu8((v8d){v})[0]; }
value sod2_gelu_byte(value v) { return caml_copy_double(sod2_gelu(Double_val(v))); }

/* Eight elements per step, widened exactly and loaded before any is
   stored, so [d] may be [x] at the same offset; a ragged tail computes
   in a zero-padded vector and stores only its own lanes. */
KIND_INLINE void erf_block_kind(int gelu, int f32, const void *x, void *d, intnat len)
{
  for (intnat i = 0; i < len; i += 8) {
    intnat l = len - i < 8 ? len - i : 8;
    v8d v = {0};
    if (l == 8)
      v = f32 ? __builtin_convertvector(*(const v8fu *)((const float *)x + i), v8d)
              : *(const v8du *)((const double *)x + i);
    else
      for (intnat j = 0; j < l; j++) v[j] = LD(x, f32, i + j);
    v8d r = gelu ? gelu8(v) : erf8(v);
    if (l == 8 && f32)
      *(v8fu *)((float *)d + i) = __builtin_convertvector(r, v8f);
    else if (l == 8)
      *(v8du *)((double *)d + i) = r;
    else
      for (intnat j = 0; j < l; j++)
        if (f32)
          ((float *)d)[i + j] = (float)r[j];
        else
          ((double *)d)[i + j] = r[j];
  }
}

CLONES512
static void erf_block(int gelu, int f32, const void *x, void *d, intnat len)
{
  if (f32 && gelu)
    erf_block_kind(1, 1, x, d, len);
  else if (f32)
    erf_block_kind(0, 1, x, d, len);
  else if (gelu)
    erf_block_kind(1, 0, x, d, len);
  else
    erf_block_kind(0, 0, x, d, len);
}

/* [sod2_erf_block gelu x xo d o len]: Gelu (gelu = 1) or erf of the
   [len] elements of [x] from [xo] into [d] from [o], both float32 or
   both float64, each element widened exactly, computed in f64 and
   rounded once at the store. */
value sod2_erf_block(intnat gelu, value x, intnat xo, value d, intnat o, intnat len)
{
  int f32 = is_f32(x);
  size_t esz = f32 ? sizeof(float) : sizeof(double);
  erf_block((int)gelu, f32, (const char *)Caml_ba_data_val(x) + xo * esz,
            (char *)Caml_ba_data_val(d) + o * esz, len);
  return Val_unit;
}

value sod2_erf_block_byte(value *argv, int argn)
{
  (void)argn;
  return sod2_erf_block(Long_val(argv[0]), argv[1], Long_val(argv[2]), argv[3],
                        Long_val(argv[4]), Long_val(argv[5]));
}
