/* The float GEMM behind Blocked.gemm: its panel packers and its register
   micro-kernel, plus the all-f32 BatchNorm loop of the block evaluator.

   One tile call computes a 4x8 tile of C from packed panels: [a] holds
   four rows as row quads (a[4p + r]), [b] eight columns as column octets
   (b[8p + j]), both float64 and full depth.  The tile lives in eight
   4-lane f64 accumulators (a row's 8 columns are two vectors), so each
   depth step is two B loads, four A broadcasts, eight multiplies and
   eight adds.

   Every lane is one C element's accumulator: it starts at +0.0 and adds
   the products a[p]*b[p] in ascending p, each product and each sum
   rounded to f64 -- the operation sequence of Linalg.naive_kernel.  The
   file is compiled with -ffp-contract=off, so no multiply-add is fused,
   and the write-back adds the accumulator to the destination element
   once, rounding to the destination's precision at the store.  Hence the
   results are bit-identical to the naive loop in f32 and f64.

   The packers widen float32 or float64 operands exactly into the
   panels, and pad ragged quads and octets with +0.0.  The convolution
   packer reads B, the im2col matrix, straight from the NCHW image: a
   padding tap stores +0.0, the value the materialized column matrix
   held there, so the products and sums are those of the column-matrix
   GEMM.

   On x86-64, target_clones builds an AVX2 body and a baseline (SSE2)
   body from this one source; the loader picks one per host.  Both round
   identically.  Elsewhere the vector types compile to the target's own
   vector or scalar code, with the same rounding. */

#include <caml/mlvalues.h>
#include <caml/bigarray.h>

typedef double v4d __attribute__((vector_size(32)));
/* unaligned views for loads and stores through panel and C pointers */
typedef double v4du __attribute__((vector_size(32), aligned(8)));
typedef float v4f __attribute__((vector_size(16)));
typedef float v4fu __attribute__((vector_size(16), aligned(4)));

#define V(p) (*(const v4du *)(p))

#if defined(__x86_64__)
#define CLONES __attribute__((target_clones("avx2", "default")))
#else
#define CLONES
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

/* [sod2_gemm_tile ap ia bp ib k c ci n rows cols] adds the 4x8 product of
   the A quads at [ap + ia] and the B octets at [bp + ib] (depth [k]) into
   the top-left [rows] x [cols] corner of C at flat index [ci], row stride
   [n].  [c] is a float32 or float64 bigarray. */
value sod2_gemm_tile(value ap, intnat ia, value bp, intnat ib, intnat k, value c,
                     intnat ci, intnat n, intnat rows, intnat cols)
{
  int f32 = (Caml_ba_array_val(c)->flags & CAML_BA_KIND_MASK) == CAML_BA_FLOAT32;
  void *cp = f32 ? (void *)((float *)Caml_ba_data_val(c) + ci)
                 : (void *)((double *)Caml_ba_data_val(c) + ci);
  tile4x8((const double *)Caml_ba_data_val(ap) + ia, (const double *)Caml_ba_data_val(bp) + ib,
          k, f32, cp, n, rows, cols);
  return Val_unit;
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
