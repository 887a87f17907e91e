/* The float GEMM register micro-kernel behind Blocked.gemm.

   One call computes a 4x8 tile of C from packed panels: [a] holds four
   rows as row quads (a[4p + r]), [b] eight columns as column octets
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
