/* C kernel cores for Kernels_c, the tensor kernels.
 *
 * ABI (documented in docs/INTERNALS.md): every stub receives flat
 * Bigarray.Array1 Float64 buffers (data pointer via Caml_ba_data_val) plus
 * explicit dimensions; Adam moment buffers arrive as OCaml float arrays
 * (flat unboxed doubles, data pointer is the value itself).  No stub
 * allocates on the OCaml heap or calls back into OCaml, so every native
 * declaration is [@@noalloc]; scalars cross unboxed ([@unboxed] floats,
 * [@untagged] ints), which is why each stub has a _byte twin for the
 * bytecode calling convention.
 *
 * Float semantics contract (compiler flags set in lib/tensor/dune):
 * compiled with -O2 -fno-fast-math -ffp-contract=off so the compiler may
 * not re-associate, contract mul+add into FMA, or otherwise change IEEE
 * results (NaN signs and quieting are pinned in the code: see quiet()).
 * Every kernel below returns the bits of the float array oracle kept with
 * the tests (test/oracle.ml).  Per-element kernels perform its exact
 * floating-point operations in its exact order; tanh is Fmath's
 * (fmath_stubs.c, the same function the OCaml side calls), and exp/log
 * resolve to the same libm the OCaml runtime links.  The matmul family
 * vectorizes across output columns in pure k order and recomputes NaN
 * outputs with the oracle's rules (the argument is above mm_core).
 * Cached results are keyed by Serialize.cache_schema, so a change that
 * alters any kernel's bits must also change the schema.
 *
 * Vectorization is portable: GCC/Clang generic vector extensions (lowered
 * to scalar code on targets without SIMD) behind __GNUC__, with a scalar
 * fallback of identical order for any other compiler.  No
 * ISA-specific intrinsics.  The vector types are in pnn_vec.h.  On x86-64
 * the matmul tiles and Fmath's array tanh have a second instance of the
 * same source compiled for AVX2 (target("avx2"), 256-bit vectors), picked
 * once per process with __builtin_cpu_supports; see mm_tiles.
 */

#define CAML_NAME_SPACE
#include <caml/mlvalues.h>
#include <caml/alloc.h>
#include <caml/bigarray.h>
#include <caml/custom.h>
#include <caml/fail.h>
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define BA(v) ((double *) Caml_ba_data_val(v))
/* An OCaml float array is a flat block of doubles; the value points at the
 * first element (flat-float-array runtime, which this codebase assumes
 * everywhere moments are touched). */
#define FA(v) ((double *) (v))

#include "pnn_vec.h"

/* NaN operand order (as in test/oracle.ml): when both operands of
 * an add/mul are NaN, x86 returns the first operand's NaN, and the
 * compiler is free to swap commutative operands (or to rewrite a + (-b) as
 * a - b, which keeps b's sign where the negation flipped it).  Where the
 * oracle kernel's first operand can meet a NaN in the second, these
 * helpers pin the oracle's choice: the left operand quieted when it is
 * NaN, otherwise the plain operation (then at most one operand is NaN, so
 * the instruction order cannot matter).  Quieting sets the quiet bit, as
 * the hardware does, through the bits so that no float rewrite applies:
 * the compiler may fold g * 1.0 to g (leaving a signalling NaN unquieted)
 * or g * -1.0 to -g (flipping a NaN's sign), and mul_first(g, ±1.0) is
 * immune to both. */
static inline double quiet(double a)
{
  uint64_t u;
  memcpy(&u, &a, sizeof u);
  u |= UINT64_C(0x0008000000000000);
  memcpy(&a, &u, sizeof a);
  return a;
}
static inline double add_first(double a, double b)
{
  return a != a ? quiet(a) : a + b;
}
static inline double mul_first(double a, double b)
{
  return a != a ? quiet(a) : a * b;
}
/* Both operands' NaN cases spelled out: the hardware's rule (the left
 * NaN, else the right one, quieted) with no arithmetic left on a NaN.  For
 * an operand the code wrote as a negation: the compiler may rewrite
 * a + (-b) as a - b, which keeps a NaN b's sign where the oracle's
 * stored negation flipped it, and here the arithmetic never sees a NaN. */
static inline double add_pin(double a, double b)
{
  return a != a ? quiet(a) : b != b ? quiet(b) : a + b;
}
static inline double mul_pin(double a, double b)
{
  return a != a ? quiet(a) : b != b ? quiet(b) : a * b;
}

/* ------------------------------------------------------------- */
/* Storage: allocation, fill and copy (exact; the wrappers        */
/* range-check).                                                  */
/* ------------------------------------------------------------- */

/* Kernel buffers are one-dimensional Float64 Bigarrays whose data starts
 * on a 64-byte boundary: a cache line, and a multiple of every vector
 * width the kernels load, so where a buffer's rows fall relative to cache
 * lines does not depend on the order of earlier allocations.  The data is
 * one malloc of 64 bytes more than it needs, its first 64-byte boundary
 * past the start (malloc's 16-byte alignment leaves 16 to 64 bytes below
 * it, the last 8 of which keep the pointer malloc returned).  posix_memalign
 * measured 65 ns a call slower than malloc for the small buffers a noise
 * draw makes.  The block is the runtime's Bigarray block (caml_ba_ops:
 * element access, comparison, hashing and marshalling as for any
 * Bigarray) with one change, the finaliser, which frees malloc's pointer.
 * The flags say EXTERNAL, so the runtime never frees the data itself: a
 * Bigarray sub-array of a buffer would share its data without keeping it
 * alive, and Kernels_c takes none. */

/* runtime/bigarray.c exports it; bigarray.h does not declare it */
extern struct custom_operations caml_ba_ops;
static struct custom_operations pnn_buf_ops;

static void pnn_buf_finalize(value v)
{
  free(((void **) Caml_ba_data_val(v))[-1]);
}

/* Called once, from Kernels_c's module initialisation: before any buffer
 * exists and before any domain can be spawned. */
CAMLprim value pnn_c_init_buffers(value unit)
{
  (void) unit;
  pnn_buf_ops = caml_ba_ops;
  pnn_buf_ops.finalize = pnn_buf_finalize;
  return Val_unit;
}
CAMLprim value pnn_c_init_buffers_byte(value unit)
{
  return pnn_c_init_buffers(unit);
}

/* A zeroed buffer of n ≥ 0 doubles; the size the GC is told is the data's,
 * as caml_ba_alloc tells it for Bigarray.Array1.create. */
CAMLprim value pnn_c_create(intnat n)
{
  if ((uintnat) n > (SIZE_MAX - 64) / sizeof(double))
    caml_raise_out_of_memory();
  size_t bytes = (size_t) n * sizeof(double);
  char *raw = malloc(bytes + 64);
  if (raw == NULL) caml_raise_out_of_memory();
  char *data = (char *) (((uintptr_t) raw + 64) & ~(uintptr_t) 63);
  ((void **) data)[-1] = raw;
  memset(data, 0, bytes);
  value res = caml_alloc_custom_mem(&pnn_buf_ops,
                                    SIZEOF_BA_ARRAY + sizeof(intnat), bytes);
  struct caml_ba_array *b = Caml_ba_array_val(res);
  b->data = data;
  b->num_dims = 1;
  b->flags = CAML_BA_FLOAT64 | CAML_BA_C_LAYOUT | CAML_BA_EXTERNAL;
  b->proxy = NULL;
  b->dim[0] = n;
  return res;
}
CAMLprim value pnn_c_create_byte(value vn)
{
  return pnn_c_create(Long_val(vn));
}

CAMLprim value pnn_c_fill(value vb, intnat pos, intnat len, double v)
{
  double *b = BA(vb) + pos;
  for (intnat i = 0; i < len; i++) b[i] = v;
  return Val_unit;
}
CAMLprim value pnn_c_fill_byte(value vb, value vpos, value vlen, value vv)
{
  return pnn_c_fill(vb, Long_val(vpos), Long_val(vlen), Double_val(vv));
}

/* memmove: a bit copy (signalling NaNs stay signalling), and overlapping
 * ranges of one buffer copy as Array.blit does. */
CAMLprim value pnn_c_blit(value vsrc, intnat src_pos, value vdst,
                          intnat dst_pos, intnat len)
{
  if (len > 0)
    memmove(BA(vdst) + dst_pos, BA(vsrc) + src_pos,
            (size_t) len * sizeof(double));
  return Val_unit;
}
CAMLprim value pnn_c_blit_byte(value vsrc, value vsrc_pos, value vdst,
                               value vdst_pos, value vlen)
{
  return pnn_c_blit(vsrc, Long_val(vsrc_pos), vdst, Long_val(vdst_pos),
                    Long_val(vlen));
}

/* Copies src over dst when some element differs in its bits, and says
 * whether one did.  The comparison is on the 64-bit patterns, so -0.0
 * differs from +0.0, NaN payloads count, and a NaN equals its own bits;
 * the copy, from the first difference on, is a bit copy (signalling NaNs
 * stay signalling), and the elements before it are already equal. */
CAMLprim value pnn_c_blit_changed(value vsrc, value vdst, intnat n)
{
  const double *s = BA(vsrc);
  double *d = BA(vdst);
  intnat i = 0;
  for (; i < n; i++) {
    uint64_t a, b;
    memcpy(&a, s + i, sizeof a);
    memcpy(&b, d + i, sizeof b);
    if (a != b) break;
  }
  if (i >= n) return Val_false;
  memmove(d + i, s + i, (size_t) (n - i) * sizeof(double));
  return Val_true;
}
CAMLprim value pnn_c_blit_changed_byte(value vsrc, value vdst, value vn)
{
  return pnn_c_blit_changed(vsrc, vdst, Long_val(vn));
}

/* ---------------------------------------------------------------- */
/* Elementwise: dst may alias an input (same-index read/write only). */
/* ---------------------------------------------------------------- */

#define EW2(name, expr)                                                   \
  CAMLprim value name(value va, value vb, value vdst, intnat n)           \
  {                                                                       \
    const double *a = BA(va);                                             \
    const double *b = BA(vb);                                             \
    double *dst = BA(vdst);                                               \
    for (intnat i = 0; i < n; i++) dst[i] = (expr);                       \
    return Val_unit;                                                      \
  }                                                                       \
  CAMLprim value name##_byte(value va, value vb, value vdst, value vn)    \
  {                                                                       \
    return name(va, vb, vdst, Long_val(vn));                              \
  }

EW2(pnn_c_add, a[i] + b[i])
EW2(pnn_c_sub, a[i] - b[i])
EW2(pnn_c_mul, a[i] * b[i])
EW2(pnn_c_div, a[i] / b[i])

CAMLprim value pnn_c_neg(value va, value vdst, intnat n)
{
  const double *a = BA(va);
  double *dst = BA(vdst);
  for (intnat i = 0; i < n; i++) dst[i] = -a[i];
  return Val_unit;
}
CAMLprim value pnn_c_neg_byte(value va, value vdst, value vn)
{
  return pnn_c_neg(va, vdst, Long_val(vn));
}

/* The oracle's NaN k wins over a NaN element; hoisting that case keeps
 * the main loop branch-free. */
CAMLprim value pnn_c_scale(double k, value va, value vdst, intnat n)
{
  const double *a = BA(va);
  double *dst = BA(vdst);
  if (k != k) {
    double q = quiet(k);
    for (intnat i = 0; i < n; i++) dst[i] = q;
  } else
    for (intnat i = 0; i < n; i++) dst[i] = k * a[i];
  return Val_unit;
}
CAMLprim value pnn_c_scale_byte(value vk, value va, value vdst, value vn)
{
  return pnn_c_scale(Double_val(vk), va, vdst, Long_val(vn));
}

CAMLprim value pnn_c_add_scalar(double k, value va, value vdst, intnat n)
{
  const double *a = BA(va);
  double *dst = BA(vdst);
  if (k != k) {
    double q = quiet(k);
    for (intnat i = 0; i < n; i++) dst[i] = q;
  } else
    for (intnat i = 0; i < n; i++) dst[i] = k + a[i];
  return Val_unit;
}
CAMLprim value pnn_c_add_scalar_byte(value vk, value va, value vdst, value vn)
{
  return pnn_c_add_scalar(Double_val(vk), va, vdst, Long_val(vn));
}

/* ------------------------------------------------- */
/* Broadcasts (dst may alias the matrix operand md).  */
/* ------------------------------------------------- */

CAMLprim value pnn_c_add_rowvec(value vm, value vv, value vdst, intnat rows,
                                intnat cols)
{
  const double *md = BA(vm);
  const double *vd = BA(vv);
  double *dst = BA(vdst);
  for (intnat r = 0; r < rows; r++) {
    const double *mrow = md + r * cols;
    double *drow = dst + r * cols;
    for (intnat c = 0; c < cols; c++) drow[c] = mrow[c] + vd[c];
  }
  return Val_unit;
}
CAMLprim value pnn_c_add_rowvec_byte(value vm, value vv, value vdst,
                                     value vrows, value vcols)
{
  return pnn_c_add_rowvec(vm, vv, vdst, Long_val(vrows), Long_val(vcols));
}

CAMLprim value pnn_c_mul_rowvec(value vm, value vv, value vdst, intnat rows,
                                intnat cols)
{
  const double *md = BA(vm);
  const double *vd = BA(vv);
  double *dst = BA(vdst);
  for (intnat r = 0; r < rows; r++) {
    const double *mrow = md + r * cols;
    double *drow = dst + r * cols;
    for (intnat c = 0; c < cols; c++) drow[c] = mrow[c] * vd[c];
  }
  return Val_unit;
}
CAMLprim value pnn_c_mul_rowvec_byte(value vm, value vv, value vdst,
                                     value vrows, value vcols)
{
  return pnn_c_mul_rowvec(vm, vv, vdst, Long_val(vrows), Long_val(vcols));
}

/* ------------------------------------------------------------------ */
/* Matmul family: vectorized, and bit-identical to the oracle.         */
/* ------------------------------------------------------------------ */

/* The vector loops below accumulate every term in pure k order from +0.0;
 * the oracle's matmul/matmul_nt accumulate the same terms in the same
 * order, but skip exact-zero A entries and fix the add's operand order.
 * For a non-NaN C output both differences are invisible: a skipped term
 * is ±0 (a finite B entry times ±0), the accumulator starts at +0.0 and
 * can never become -0.0, so adding ±0 leaves it unchanged; and without a
 * NaN, IEEE add and multiply are commutative bit for bit.  C adds a
 * superset of the oracle's terms and NaN is absorbing, so every oracle
 * NaN is a C NaN too.  Only NaN outputs can differ — a skipped 0·inf, or
 * the payload when two NaNs meet — and those are recomputed below with
 * the oracle's rules. */

/* One term of the oracle matmul's element: an exact-zero A entry is
 * skipped, otherwise the product is added first. */
static inline double ref_term(double acc, double a, double b)
{
  return a != 0.0 ? add_first(mul_first(a, b), acc) : acc;
}

/* The oracle matmul's element over k terms, the A entries a[p * as] and
 * the B entries b[p * bs] (as = 0 repeats one A entry). */
static double matmul_ref_elem(const double *a, intnat as, const double *b,
                              intnat bs, intnat k)
{
  double acc = 0.0;
  for (intnat p = 0; p < k; p++) acc = ref_term(acc, a[p * as], b[p * bs]);
  return acc;
}

/* The oracle matmul_nt's element: accumulator-first add. */
static double matmul_nt_ref_elem(const double *arow, const double *brow,
                                 intnat k)
{
  double acc = 0.0;
  for (intnat p = 0; p < k; p++) {
    double a = arow[p];
    if (a != 0.0) acc = add_first(acc, mul_first(a, brow[p]));
  }
  return acc;
}

/* The n ≥ 8 tiles of mm_core: output columns [0, n8) of every row (n8 the
 * last multiple of 8 ≤ n), 8 columns at a time.  Each output is one chain
 * in pure k order from +0.0, then the bias add.  A row's 8 columns are two
 * "quads" Q of 4 columns, with five operations: zero, load and store 4
 * doubles, acc + s·b and acc + b.  The body is written once against them
 * (MM_TILES) and instantiated per vector width: quad128 is two 2-lane
 * vectors, quad256 one 4-lane vector.  The 256-bit tile takes two rows at
 * a time (one for an odd last row): four independent accumulator chains
 * then keep the adds busy.  The 128-bit tile takes one row, which already
 * holds four 2-lane chains; a second row measured slower there (38 against
 * 33 µs for a 64×65×48 product on an x86-64 Xeon).
 *
 * Why the width cannot change a bit: a lane is one output's chain, IEEE
 * add and multiply are per lane and correctly rounded, and
 * -ffp-contract=off holds inside the AVX2 body too (the avx2 target does
 * not enable FMA), so both widths give every non-NaN output the same bits;
 * NaN outputs are recomputed after either. */
#ifdef PNN_HAVE_VEC
typedef struct { v2df lo, hi; } quad128;
PNN_SPECIALISE quad128 quad128_zero(void)
{
  quad128 q = { { 0.0, 0.0 }, { 0.0, 0.0 } };
  return q;
}
PNN_SPECIALISE quad128 quad128_load(const double *p)
{
  quad128 q = { vload(p), vload(p + 2) };
  return q;
}
PNN_SPECIALISE void quad128_store(double *p, quad128 q)
{
  vstore(p, q.lo);
  vstore(p + 2, q.hi);
}
PNN_SPECIALISE quad128 quad128_madd(quad128 acc, double s, quad128 b)
{
  v2df sv = { s, s };
  acc.lo = acc.lo + sv * b.lo;
  acc.hi = acc.hi + sv * b.hi;
  return acc;
}
PNN_SPECIALISE quad128 quad128_add(quad128 acc, quad128 b)
{
  acc.lo = acc.lo + b.lo;
  acc.hi = acc.hi + b.hi;
  return acc;
}

/* [two] is a constant at both call sites of NAME##_rows, so each inlines
 * to its own copy: the two-row tile and the one-row tile.  PAIRS says
 * whether the width runs the two-row tile. */
#define MM_TILES(ATTR, NAME, Q, PAIRS)                                       \
  ATTR PNN_SPECIALISE void NAME##_rows(const double *a0, const double *a1,  \
                                       intnat k, int bias, const double *bd, \
                                       double *c0, double *c1, intnat n,     \
                                       int two)                              \
  {                                                                          \
    const double *bb = bd + k * n;                                           \
    intnat n8 = n - (n & 7);                                                 \
    for (intnat j0 = 0; j0 < n8; j0 += 8) {                                  \
      Q x0 = Q##_zero(), x1 = Q##_zero(), y0 = Q##_zero(), y1 = Q##_zero(); \
      for (intnat p = 0; p < k; p++) {                                       \
        const double *br = bd + p * n + j0;                                  \
        Q b0 = Q##_load(br), b1 = Q##_load(br + 4);                          \
        x0 = Q##_madd(x0, a0[p], b0);                                        \
        x1 = Q##_madd(x1, a0[p], b1);                                        \
        if (two) {                                                           \
          y0 = Q##_madd(y0, a1[p], b0);                                      \
          y1 = Q##_madd(y1, a1[p], b1);                                      \
        }                                                                    \
      }                                                                      \
      if (bias) {                                                            \
        Q b0 = Q##_load(bb + j0), b1 = Q##_load(bb + j0 + 4);                \
        x0 = Q##_add(x0, b0);                                                \
        x1 = Q##_add(x1, b1);                                                \
        y0 = Q##_add(y0, b0);                                                \
        y1 = Q##_add(y1, b1);                                                \
      }                                                                      \
      Q##_store(c0 + j0, x0);                                                \
      Q##_store(c0 + j0 + 4, x1);                                            \
      if (two) {                                                             \
        Q##_store(c1 + j0, y0);                                              \
        Q##_store(c1 + j0 + 4, y1);                                          \
      }                                                                      \
    }                                                                        \
  }                                                                          \
  ATTR static void NAME(const double *ad, intnat lda, intnat k, int bias,    \
                        const double *bd, double *cd, intnat m, intnat n)    \
  {                                                                          \
    intnat i = 0;                                                            \
    if (PAIRS)                                                               \
      for (; i + 2 <= m; i += 2)                                             \
        NAME##_rows(ad + i * lda, ad + (i + 1) * lda, k, bias, bd,           \
                    cd + i * n, cd + (i + 1) * n, n, 1);                     \
    for (; i < m; i++)                                                       \
      NAME##_rows(ad + i * lda, NULL, k, bias, bd, cd + i * n, NULL, n, 0);  \
  }

MM_TILES(, mm_tiles_128, quad128, 0)

#ifdef PNN_HAVE_WIDE
typedef v4df quad256;
PNN_WIDE PNN_SPECIALISE quad256 quad256_zero(void)
{
  quad256 q = { 0.0, 0.0, 0.0, 0.0 };
  return q;
}
PNN_WIDE PNN_SPECIALISE quad256 quad256_load(const double *p)
{
  return *(const v4df_u *) p;
}
PNN_WIDE PNN_SPECIALISE void quad256_store(double *p, quad256 q)
{
  *(v4df_u *) p = q;
}
PNN_WIDE PNN_SPECIALISE quad256 quad256_madd(quad256 acc, double s,
                                             quad256 b)
{
  quad256 sv = { s, s, s, s };
  return acc + sv * b;
}
PNN_WIDE PNN_SPECIALISE quad256 quad256_add(quad256 acc, quad256 b)
{
  return acc + b;
}

MM_TILES(PNN_WIDE, mm_tiles_256, quad256, 1)
#endif
#else
/* Compilers without vector extensions: the same tiles, one row at a time,
 * one scalar accumulator per column. */
static void mm_tiles_128(const double *ad, intnat lda, intnat k, int bias,
                         const double *bd, double *cd, intnat m, intnat n)
{
  const double *bb = bd + k * n;
  intnat n8 = n - (n & 7);
  for (intnat i = 0; i < m; i++) {
    const double *arow = ad + i * lda;
    double *crow = cd + i * n;
    for (intnat j0 = 0; j0 < n8; j0 += 8) {
      double c[8] = { 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0 };
      for (intnat p = 0; p < k; p++) {
        double a = arow[p];
        const double *brow = bd + p * n + j0;
        c[0] = c[0] + a * brow[0];  c[1] = c[1] + a * brow[1];
        c[2] = c[2] + a * brow[2];  c[3] = c[3] + a * brow[3];
        c[4] = c[4] + a * brow[4];  c[5] = c[5] + a * brow[5];
        c[6] = c[6] + a * brow[6];  c[7] = c[7] + a * brow[7];
      }
      for (int q = 0; q < 8; q++)
        crow[j0 + q] = bias ? c[q] + bb[j0 + q] : c[q];
    }
  }
}
#endif

typedef void mm_tiles_fn(const double *ad, intnat lda, intnat k, int bias,
                         const double *bd, double *cd, intnat m, intnat n);

/* The tile body mm_core runs: chosen once per process, when the stubs are
 * loaded and before any kernel runs, and changed after that only by
 * pnn_c_set_wide_tiles. */
static mm_tiles_fn *mm_tiles = mm_tiles_128;

#ifdef PNN_HAVE_WIDE
static int mm_have_avx2;

__attribute__((constructor)) static void mm_tiles_pick(void)
{
  __builtin_cpu_init();
  mm_have_avx2 = __builtin_cpu_supports("avx2");
  if (mm_have_avx2) mm_tiles = mm_tiles_256;
  pnn_fm_use_wide(mm_have_avx2);
}
#endif

/* A hook for the tests, which run every matmul and tanh check through both
 * widths: selects the 256-bit bodies (the matmul tiles and Fmath's array
 * tanh) when [wide] is set and the CPU has AVX2, the 128-bit bodies
 * otherwise, and returns whether the 256-bit bodies are now the ones in
 * use.  Not for use while another domain may run a kernel. */
CAMLprim value pnn_c_set_wide_tiles(value vwide)
{
#ifdef PNN_HAVE_WIDE
  mm_tiles = Bool_val(vwide) && mm_have_avx2 ? mm_tiles_256 : mm_tiles_128;
  pnn_fm_use_wide(mm_tiles == mm_tiles_256);
  return Val_bool(mm_tiles == mm_tiles_256);
#else
  (void) vwide;
  return Val_false;
#endif
}
CAMLprim value pnn_c_set_wide_tiles_byte(value vwide)
{
  return pnn_c_set_wide_tiles(vwide);
}

/* C := A·B, c overwritten.  Row i of A is ad + i * lda with k entries;
 * with [bias] set it has one more, an implicit 1.0 (Eq. 1's bias input
 * V_b = 1), and B has k + 1 rows.  Each output is one chain in pure k
 * order from +0.0 (1.0 · b is b).  n ≥ 8 runs the register tiles above
 * and a scalar loop for the columns past the last one; narrower outputs
 * run four rows at once, so independent chains interleave instead of one
 * serial chain per element.  Then the NaN recompute. */
static void mm_core(const double *ad, intnat lda, intnat k, int bias,
                    const double *bd, double *cd, intnat m, intnat n)
{
  const double *bb = bd + k * n; /* the bias row of B, when [bias] */
  intnat i = 0;
  if (n < 8) {
    for (; i + 4 <= m; i += 4) {
      const double *a0 = ad + i * lda, *a1 = a0 + lda;
      const double *a2 = a1 + lda, *a3 = a2 + lda;
      double *c = cd + i * n;
      for (intnat j = 0; j < n; j++) {
        double c0 = 0.0, c1 = 0.0, c2 = 0.0, c3 = 0.0;
        for (intnat p = 0; p < k; p++) {
          double b = bd[p * n + j];
          c0 = c0 + a0[p] * b;
          c1 = c1 + a1[p] * b;
          c2 = c2 + a2[p] * b;
          c3 = c3 + a3[p] * b;
        }
        if (bias) {
          c0 = c0 + bb[j];
          c1 = c1 + bb[j];
          c2 = c2 + bb[j];
          c3 = c3 + bb[j];
        }
        c[j] = c0;
        c[n + j] = c1;
        c[2 * n + j] = c2;
        c[3 * n + j] = c3;
      }
    }
  } else
    mm_tiles(ad, lda, k, bias, bd, cd, m, n);
  intnat n8 = n - (n & 7);
  for (intnat r = n < 8 ? i : 0; r < m; r++) {
    const double *arow = ad + r * lda;
    double *crow = cd + r * n;
    for (intnat j = n8; j < n; j++) {
      double acc = 0.0;
      for (intnat p = 0; p < k; p++) acc = acc + arow[p] * bd[p * n + j];
      if (bias) acc = acc + bb[j];
      crow[j] = acc;
    }
  }
  for (i = 0; i < m; i++) {
    const double *arow = ad + i * lda;
    double *crow = cd + i * n;
    for (intnat j = 0; j < n; j++)
      if (crow[j] != crow[j]) {
        double acc = matmul_ref_elem(arow, 1, bd + j, n, k);
        crow[j] = bias ? ref_term(acc, 1.0, bb[j]) : acc;
      }
  }
}

static void matmul_core(const double *ad, const double *bd, double *cd,
                        intnat m, intnat k, intnat n)
{
  mm_core(ad, k, k, 0, bd, cd, m, n);
}

CAMLprim value pnn_c_matmul(value va, value vb, value vc, intnat m, intnat k,
                            intnat n)
{
  matmul_core(BA(va), BA(vb), BA(vc), m, k, n);
  return Val_unit;
}
CAMLprim value pnn_c_matmul_byte(value *argv, int argn)
{
  (void) argn;
  return pnn_c_matmul(argv[0], argv[1], argv[2], Long_val(argv[3]),
                      Long_val(argv[4]), Long_val(argv[5]));
}

/* A · Bᵀ: 4 output columns at a time, each accumulated in pure k order
 * (the B rows are strided, so each lane pair is loaded scalar by scalar),
 * then the NaN recompute. */
CAMLprim value pnn_c_matmul_nt(value va, value vb, value vc, intnat m,
                               intnat k, intnat n)
{
  const double *ad = BA(va);
  const double *bd = BA(vb);
  double *cd = BA(vc);
  intnat n4 = n - (n & 3);
  for (intnat i = 0; i < m; i++) {
    const double *arow = ad + i * k;
    double *crow = cd + i * n;
    intnat j0 = 0;
    for (; j0 < n4; j0 += 4) {
      const double *b0 = bd + j0 * k;
      const double *b1 = b0 + k, *b2 = b1 + k, *b3 = b2 + k;
#ifdef PNN_HAVE_VEC
      v2df acc0 = { 0.0, 0.0 };
      v2df acc1 = { 0.0, 0.0 };
      for (intnat p = 0; p < k; p++) {
        double a = arow[p];
        v2df av = { a, a };
        v2df bv0 = { b0[p], b1[p] };
        v2df bv1 = { b2[p], b3[p] };
        acc0 = acc0 + av * bv0;
        acc1 = acc1 + av * bv1;
      }
      vstore(crow + j0, acc0);
      vstore(crow + j0 + 2, acc1);
#else
      double c0 = 0.0, c1 = 0.0, c2 = 0.0, c3 = 0.0;
      for (intnat p = 0; p < k; p++) {
        double a = arow[p];
        c0 = c0 + a * b0[p];
        c1 = c1 + a * b1[p];
        c2 = c2 + a * b2[p];
        c3 = c3 + a * b3[p];
      }
      crow[j0] = c0;  crow[j0 + 1] = c1;
      crow[j0 + 2] = c2;  crow[j0 + 3] = c3;
#endif
    }
    for (intnat j = n4; j < n; j++) {
      const double *brow = bd + j * k;
      double acc = 0.0;
      for (intnat p = 0; p < k; p++) acc = acc + arow[p] * brow[p];
      crow[j] = acc;
    }
    for (intnat j = 0; j < n; j++)
      if (crow[j] != crow[j]) crow[j] = matmul_nt_ref_elem(arow, bd + j * k, k);
  }
  return Val_unit;
}
CAMLprim value pnn_c_matmul_nt_byte(value *argv, int argn)
{
  (void) argn;
  return pnn_c_matmul_nt(argv[0], argv[1], argv[2], Long_val(argv[3]),
                         Long_val(argv[4]), Long_val(argv[5]));
}

/* Blocked copy, same 32x32 tiling as the oracle (copies are exact
 * in any order). */
CAMLprim value pnn_c_transpose(value vsrc, value vdst, intnat rows,
                               intnat cols)
{
  const double *src = BA(vsrc);
  double *dst = BA(vdst);
  const intnat bs = 32;
  for (intnat r0 = 0; r0 < rows; r0 += bs) {
    intnat rmax = r0 + bs < rows ? r0 + bs : rows;
    for (intnat c0 = 0; c0 < cols; c0 += bs) {
      intnat cmax = c0 + bs < cols ? c0 + bs : cols;
      for (intnat r = r0; r < rmax; r++)
        for (intnat c = c0; c < cmax; c++)
          dst[c * rows + r] = src[r * cols + c];
    }
  }
  return Val_unit;
}
CAMLprim value pnn_c_transpose_byte(value vsrc, value vdst, value vrows,
                                    value vcols)
{
  return pnn_c_transpose(vsrc, vdst, Long_val(vrows), Long_val(vcols));
}

/* ------------------------------------------------------------------ */
/* Reductions: left-to-right single accumulator, same order as the    */
/* oracle (the compiler may not re-associate without -ffast-math).    */
/* ------------------------------------------------------------------ */

CAMLprim double pnn_c_dot(value va, value vb, intnat n)
{
  const double *a = BA(va);
  const double *b = BA(vb);
  double acc = 0.0;
  for (intnat i = 0; i < n; i++) acc = acc + a[i] * b[i];
  return acc;
}
CAMLprim value pnn_c_dot_byte(value va, value vb, value vn)
{
  return caml_copy_double(pnn_c_dot(va, vb, Long_val(vn)));
}

CAMLprim double pnn_c_sum(value va, intnat n)
{
  const double *a = BA(va);
  double acc = 0.0;
  for (intnat i = 0; i < n; i++) acc = acc + a[i];
  return acc;
}
CAMLprim value pnn_c_sum_byte(value va, value vn)
{
  return caml_copy_double(pnn_c_sum(va, Long_val(vn)));
}

/* dst is pre-zeroed by the caller; rows accumulate in r order per column
 * (vectorizable across columns without re-association). */
CAMLprim value pnn_c_sum_rows(value vsrc, value vdst, intnat rows, intnat cols)
{
  const double *src = BA(vsrc);
  double *dst = BA(vdst);
  for (intnat r = 0; r < rows; r++) {
    const double *srow = src + r * cols;
    for (intnat c = 0; c < cols; c++) dst[c] = dst[c] + srow[c];
  }
  return Val_unit;
}
CAMLprim value pnn_c_sum_rows_byte(value vsrc, value vdst, value vrows,
                                   value vcols)
{
  return pnn_c_sum_rows(vsrc, vdst, Long_val(vrows), Long_val(vcols));
}

/* --------------------------------------------------------------- */
/* Nonlinearities: op tags match Kernels_c.unop declaration order   */
/* (Tanh, Sigmoid, Relu = 0..2); formulas are the oracle's, tanh is */
/* Fmath's array body and exp resolves to the runtime's libm.       */
/* --------------------------------------------------------------- */

enum pnn_unop { PNN_TANH, PNN_SIGMOID, PNN_RELU };

CAMLprim value pnn_c_unary(intnat op, value vsrc, value vdst, intnat n)
{
  const double *src = BA(vsrc);
  double *dst = BA(vdst);
  switch ((enum pnn_unop) op) {
  case PNN_TANH:
    pnn_fm_tanh_n(src, dst, n);
    break;
  case PNN_SIGMOID:
    for (intnat i = 0; i < n; i++) dst[i] = 1.0 / (1.0 + exp(-src[i]));
    break;
  case PNN_RELU:
    for (intnat i = 0; i < n; i++) {
      double x = src[i];
      dst[i] = x > 0.0 ? x : 0.0;
    }
    break;
  }
  return Val_unit;
}
CAMLprim value pnn_c_unary_byte(value vop, value vsrc, value vdst, value vn)
{
  return pnn_c_unary(Long_val(vop), vsrc, vdst, Long_val(vn));
}

/* Operand order follows the oracle's: the derivative factor's NaN wins
 * over g's.  The relu factor is never NaN; mul_first there keeps a NaN g
 * quieted with its sign. */
CAMLprim value pnn_c_unary_bwd(intnat op, value vx, value vy, value vg,
                               value vs, intnat n)
{
  const double *x = BA(vx);
  const double *y = BA(vy);
  const double *g = BA(vg);
  double *s = BA(vs);
  switch ((enum pnn_unop) op) {
  case PNN_TANH:
    for (intnat i = 0; i < n; i++) {
      double yi = y[i];
      s[i] = mul_first(1.0 - yi * yi, g[i]);
    }
    break;
  case PNN_SIGMOID:
    for (intnat i = 0; i < n; i++) {
      double yi = y[i];
      s[i] = mul_first(yi * (1.0 - yi), g[i]);
    }
    break;
  case PNN_RELU:
    for (intnat i = 0; i < n; i++)
      s[i] = mul_first(g[i], x[i] > 0.0 ? 1.0 : 0.0);
    break;
  }
  return Val_unit;
}
CAMLprim value pnn_c_unary_bwd_byte(value *argv, int argn)
{
  (void) argn;
  return pnn_c_unary_bwd(Long_val(argv[0]), argv[1], argv[2], argv[3],
                         argv[4], Long_val(argv[5]));
}

/* ------------------------------------------------------------------ */
/* ptanh (paper Eq. 2): the oracle kernels' operation sequence and     */
/* operand order (test/oracle.ml), every commutative                   */
/* operation that can meet two NaNs pinned with add_first/mul_first.   */
/* ------------------------------------------------------------------ */

CAMLprim value pnn_c_ptanh(value veta, value vv, value vh, value vout,
                           intnat n)
{
  const double *eta = BA(veta);
  const double *v = BA(vv);
  double *h = BA(vh);
  double *out = BA(vout);
  double e0 = eta[0], e1 = eta[1], ne2 = -eta[2], e3 = eta[3];
  for (intnat i = 0; i < n; i++) h[i] = mul_first(e3, add_first(ne2, v[i]));
  pnn_fm_tanh_n(h, h, n);
  for (intnat i = 0; i < n; i++) out[i] = add_first(e0, mul_first(e1, h[i]));
  return Val_unit;
}
CAMLprim value pnn_c_ptanh_byte(value veta, value vv, value vh, value vout,
                                value vn)
{
  return pnn_c_ptanh(veta, vv, vh, vout, Long_val(vn));
}

CAMLprim value pnn_c_ptanh_bwd(value veta, value vv, value vh, value vg,
                               value vdv, value vdeta, intnat n)
{
  const double *eta = BA(veta);
  const double *v = BA(vv);
  const double *h = BA(vh);
  const double *g = BA(vg);
  double *dv = BA(vdv);
  double *deta = BA(vdeta);
  double e1 = eta[1], ne2 = -eta[2], e3 = eta[3];
  double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
  for (intnat i = 0; i < n; i++) {
    double gi = g[i], hi = h[i];
    double gp = 0.0 + gi;
    double gz = 0.0 + mul_first(1.0 - hi * hi, 0.0 + mul_first(e1, gp));
    double gs = 0.0 + mul_first(e3, gz);
    s0 = add_first(s0, gi);
    s1 = add_first(s1, mul_first(gp, hi));
    s2 = add_first(s2, gs);
    s3 = add_first(s3, mul_first(gz, add_first(ne2, v[i])));
    dv[i] = gs;
  }
  deta[0] = 0.0 + s0;
  deta[1] = 0.0 + s1;
  /* 0 + −(0 + s2), with the negation kept: see quiet() */
  double ns2 = -(0.0 + s2);
  deta[2] = ns2 != ns2 ? quiet(ns2) : 0.0 + ns2;
  deta[3] = 0.0 + s3;
  return Val_unit;
}
CAMLprim value pnn_c_ptanh_bwd_byte(value *argv, int argn)
{
  (void) argn;
  return pnn_c_ptanh_bwd(argv[0], argv[1], argv[2], argv[3], argv[4],
                         argv[5], Long_val(argv[6]));
}

/* ------------------------------------------------------------------ */
/* The crossbar (paper Eq. 1): the oracle's crossbar/crossbar_bwd in   */
/* one call each.  x is m × k without its bias column; cond packs θ⁺   */
/* ((k+1) × n), θ⁻ ((k+1) × n) and the denominator row; h and inv_x    */
/* are m × (k+1) with the bias column; num, out, g and gnum are m × n. */
/* ------------------------------------------------------------------ */

/* inv(x) = −ptanh(η, x) (the ptanh stub's element, negated), the two
 * matmuls and the row normalisation.  The tanh arguments, the bias
 * column's included (its input is 1.0 on every row), go into h, and one
 * array tanh runs over it. */
CAMLprim value pnn_c_crossbar(value vx, value veta, value vcond, value vh,
                              value vinv, value vnum, value vout, intnat m,
                              intnat k, intnat n)
{
  const double *x = BA(vx);
  const double *eta = BA(veta);
  const double *cond = BA(vcond);
  double *h = BA(vh);
  double *inv = BA(vinv);
  double *num = BA(vnum);
  double *out = BA(vout);
  intnat k1 = k + 1;
  double e0 = eta[0], e1 = eta[1], ne2 = -eta[2], e3 = eta[3];
  double zb = mul_first(e3, add_first(ne2, 1.0));
  for (intnat i = 0; i < m; i++) {
    const double *xr = x + i * k;
    double *hr = h + i * k1;
    for (intnat p = 0; p < k; p++) hr[p] = mul_first(e3, add_first(ne2, xr[p]));
    hr[k] = zb;
  }
  pnn_fm_tanh_n(h, h, m * k1);
  for (intnat q = 0; q < m * k1; q++) inv[q] = -add_first(e0, mul_first(e1, h[q]));
  /* x·θ⁺ (bias column implicit) into num, inv(x)·θ⁻ into out */
  mm_core(x, k, k, 1, cond, num, m, n);
  mm_core(inv, k1, k1, 0, cond + k1 * n, out, m, n);
  const double *den = cond + 2 * k1 * n;
  for (intnat j = 0; j < n; j++) {
    double r = 1.0 / den[j];
    for (intnat i = 0; i < m; i++) {
      intnat q = i * n + j;
      double s = add_first(num[q], out[q]);
      num[q] = s;
      out[q] = mul_first(s, r);
    }
  }
  return Val_unit;
}
CAMLprim value pnn_c_crossbar_byte(value *argv, int argn)
{
  (void) argn;
  return pnn_c_crossbar(argv[0], argv[1], argv[2], argv[3], argv[4], argv[5],
                        argv[6], Long_val(argv[7]), Long_val(argv[8]),
                        Long_val(argv[9]));
}

/* The gradients of the forward above, as the oracle's crossbar_bwd
 * computes them: gnum receives the numerator's gradient, deta η's four
 * shares, dcond θ⁺'s, θ⁻'s and the denominator's, and dx (when want_dx)
 * x's share — inv(x)'s path first, then the θ⁺ matmul's.  One pass over
 * the rows does the matmul_nt elements, ptanh_bwd's element and the
 * Xᵀ·G / inv(x)ᵀ·G updates; every matmul output is one chain in pure
 * order from +0.0, and η's shares are summed in row-major order, the bias
 * column included.
 *
 * One body, two modes.  Pinned, it spells out the oracle's NaN operand
 * rules and recomputes NaN matmul outputs as mm_core does.  Plain, it runs
 * the bare arithmetic: where no operand is NaN the rules pick nothing and
 * each operation's result is the same, so the two modes agree on every
 * output whose inputs were all non-NaN.  Every intermediate reaches some
 * output through additions and multiplications only, which propagate NaN,
 * so a NaN anywhere leaves a NaN in an output: the stub runs the plain
 * mode, and reruns the pinned one over it when an output is NaN. */
struct xbar_bwd {
  const double *x, *cond, *h, *inv, *num, *g;
  double *gnum, *dx, *deta, *dcond;
  double e1, ne2, e3;
  intnat want_dx, m, k, n;
};

/* In pinned mode, ADD1/MUL1 keep the left operand's NaN (add_first,
 * mul_first); ADD2/MUL2 spell out both operands' cases, for an operand
 * written as a negation (add_pin, mul_pin). */
#define ADD1(a, b) (pinned ? add_first(a, b) : (a) + (b))
#define MUL1(a, b) (pinned ? mul_first(a, b) : (a) * (b))
#define ADD2(a, b) (pinned ? add_pin(a, b) : (a) + (b))
#define MUL2(a, b) (pinned ? mul_pin(a, b) : (a) * (b))

/* Returns nonzero when an output is NaN (checked in plain mode only). */
PNN_SPECIALISE int crossbar_bwd_body(const struct xbar_bwd *a, int pinned)
{
  static const double one = 1.0;
  const double *x = a->x, *h = a->h, *inv = a->inv, *num = a->num, *g = a->g;
  double *gnum = a->gnum, *dx = a->dx, *deta = a->deta, *dcond = a->dcond;
  double e1 = a->e1, ne2 = a->ne2, e3 = a->e3;
  intnat m = a->m, k = a->k, n = a->n, k1 = k + 1;
  const double *pos = a->cond, *neg = pos + k1 * n, *den = pos + 2 * k1 * n;
  double *dpos = dcond, *dneg = dcond + k1 * n, *dden = dcond + 2 * k1 * n;
  /* the row division: the numerator's gradient 0 + g/den, and the
   * denominator's, g·(−num·(1/den)²) summed over rows */
  for (intnat j = 0; j < n; j++) {
    double r = 1.0 / den[j];
    double rr = r * r;
    double acc = 0.0;
    for (intnat i = 0; i < m; i++) {
      intnat q = i * n + j;
      gnum[q] = 0.0 + MUL1(g[q], r);
      acc = ADD1(acc, MUL1(g[q], MUL2(-num[q], rr)));
    }
    dden[j] = acc;
  }
  for (intnat q = 0; q < 2 * k1 * n; q++) dcond[q] = 0.0;
  double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
  for (intnat i = 0; i < m; i++) {
    const double *gn = gnum + i * n;
    const double *xr = x + i * k;
    const double *hr = h + i * k1;
    const double *ir = inv + i * k1;
    for (intnat p = 0; p < k1; p++) {
      /* inv(x)'s gradient G·θ⁻ᵀ, negated into ptanh's */
      const double *nrow = neg + p * n;
      double gi = 0.0;
      for (intnat j = 0; j < n; j++) gi = gi + gn[j] * nrow[j];
      if (pinned && gi != gi) gi = matmul_nt_ref_elem(gn, nrow, n);
      double gm = -gi;
      double v = p < k ? xr[p] : 1.0, hi = hr[p];
      double gp = ADD2(0.0, gm);
      double gz = 0.0 + MUL1(1.0 - hi * hi, 0.0 + MUL1(e1, gp));
      double gs = 0.0 + MUL1(e3, gz);
      s0 = ADD2(s0, gm);
      s1 = ADD1(s1, MUL1(gp, hi));
      s2 = ADD1(s2, gs);
      s3 = ADD1(s3, MUL1(gz, ADD1(ne2, v)));
      if (a->want_dx && p < k) {
        /* x's second share, G·θ⁺ᵀ */
        const double *prow = pos + p * n;
        double t = 0.0;
        for (intnat j = 0; j < n; j++) t = t + gn[j] * prow[j];
        if (pinned && t != t) t = matmul_nt_ref_elem(gn, prow, n);
        dx[i * k + p] = ADD1(gs, t);
      }
    }
    /* Xᵀ·G and inv(x)ᵀ·G without a transpose: row i's terms */
    for (intnat p = 0; p < k1; p++) {
      double xa = p < k ? xr[p] : 1.0, ia = ir[p];
      double *dp = dpos + p * n;
      double *dn = dneg + p * n;
      for (intnat j = 0; j < n; j++) {
        dp[j] = dp[j] + xa * gn[j];
        dn[j] = dn[j] + ia * gn[j];
      }
    }
  }
  deta[0] = 0.0 + s0;
  deta[1] = 0.0 + s1;
  /* 0 + −(0 + s2), with the negation kept: see quiet() */
  double ns2 = -(0.0 + s2);
  deta[2] = pinned && ns2 != ns2 ? quiet(ns2) : 0.0 + ns2;
  deta[3] = 0.0 + s3;
  if (pinned) {
    for (intnat p = 0; p < k1; p++)
      for (intnat j = 0; j < n; j++) {
        intnat q = p * n + j;
        if (dpos[q] != dpos[q])
          dpos[q] = p < k ? matmul_ref_elem(x + p, k, gnum + j, n, m)
                          : matmul_ref_elem(&one, 0, gnum + j, n, m);
        if (dneg[q] != dneg[q])
          dneg[q] = matmul_ref_elem(inv + p, k1, gnum + j, n, m);
      }
    return 0;
  }
  int nan = 0;
  for (intnat q = 0; q < (2 * k1 + 1) * n; q++) nan |= dcond[q] != dcond[q];
  for (intnat q = 0; q < 4; q++) nan |= deta[q] != deta[q];
  for (intnat q = 0; q < m * n; q++) nan |= gnum[q] != gnum[q];
  if (a->want_dx)
    for (intnat q = 0; q < m * k; q++) nan |= dx[q] != dx[q];
  return nan;
}

#undef ADD1
#undef MUL1
#undef ADD2
#undef MUL2

CAMLprim value pnn_c_crossbar_bwd(value vx, value veta, value vcond,
                                  value vh, value vinv, value vnum, value vg,
                                  value vgnum, value vdx, value vdeta,
                                  value vdcond, intnat want_dx, intnat m,
                                  intnat k, intnat n)
{
  const double *eta = BA(veta);
  struct xbar_bwd a = {
    BA(vx), BA(vcond), BA(vh), BA(vinv), BA(vnum), BA(vg),
    BA(vgnum), BA(vdx), BA(vdeta), BA(vdcond),
    eta[1], -eta[2], eta[3], want_dx, m, k, n
  };
  if (crossbar_bwd_body(&a, 0)) crossbar_bwd_body(&a, 1);
  return Val_unit;
}
CAMLprim value pnn_c_crossbar_bwd_byte(value *argv, int argn)
{
  (void) argn;
  return pnn_c_crossbar_bwd(argv[0], argv[1], argv[2], argv[3], argv[4],
                            argv[5], argv[6], argv[7], argv[8], argv[9],
                            argv[10], Long_val(argv[11]), Long_val(argv[12]),
                            Long_val(argv[13]), Long_val(argv[14]));
}

/* ------------------------------------------ */
/* Training-path fused kernels (oracle order  */
/* per row/element, see test/oracle.ml)       */
/* ------------------------------------------ */

static void softmax_rows_core(const double *src, double *out, intnat rows,
                              intnat cols)
{
  for (intnat r = 0; r < rows; r++) {
    const double *srow = src + r * cols;
    double *orow = out + r * cols;
    double mx = -INFINITY;
    for (intnat c = 0; c < cols; c++) {
      double x = srow[c];
      if (x > mx) mx = x;
    }
    double z = 0.0;
    for (intnat c = 0; c < cols; c++) {
      double e = exp(srow[c] - mx);
      orow[c] = e;
      z = z + e;
    }
    for (intnat c = 0; c < cols; c++) orow[c] = orow[c] / z;
  }
}

CAMLprim value pnn_c_softmax_rows(value vsrc, value vout, intnat rows,
                                  intnat cols)
{
  softmax_rows_core(BA(vsrc), BA(vout), rows, cols);
  return Val_unit;
}
CAMLprim value pnn_c_softmax_rows_byte(value vsrc, value vout, value vrows,
                                       value vcols)
{
  return pnn_c_softmax_rows(vsrc, vout, Long_val(vrows), Long_val(vcols));
}

CAMLprim double pnn_c_ce_loss_sum(value vp, value vy, intnat n)
{
  const double *p = BA(vp);
  const double *y = BA(vy);
  double loss = 0.0;
  for (intnat i = 0; i < n; i++) {
    double yi = y[i];
    if (yi > 0.0) {
      /* Stdlib.max p 1e-30 = if p >= 1e-30 then p else 1e-30 (NaN -> 1e-30) */
      double pi = p[i];
      double cl = pi >= 1e-30 ? pi : 1e-30;
      loss = loss - yi * log(cl);
    }
  }
  return loss;
}
CAMLprim value pnn_c_ce_loss_sum_byte(value vp, value vy, value vn)
{
  return caml_copy_double(pnn_c_ce_loss_sum(vp, vy, Long_val(vn)));
}

CAMLprim value pnn_c_sgd_step(double lr, value vgrad, value vvalue, intnat n)
{
  const double *grad = BA(vgrad);
  double *val = BA(vvalue);
  for (intnat i = 0; i < n; i++) val[i] = val[i] - lr * grad[i];
  return Val_unit;
}
CAMLprim value pnn_c_sgd_step_byte(value vlr, value vgrad, value vvalue,
                                   value vn)
{
  return pnn_c_sgd_step(Double_val(vlr), vgrad, vvalue, Long_val(vn));
}

static void adam_core(double lr, double beta1, double beta2, double eps,
                      double bc1, double bc2, double *m, double *v,
                      const double *grad, double *val, intnat n)
{
  for (intnat i = 0; i < n; i++) {
    double g = grad[i];
    m[i] = beta1 * m[i] + (1.0 - beta1) * g;
    v[i] = beta2 * v[i] + (1.0 - beta2) * g * g;
    double mhat = m[i] / bc1;
    double vhat = v[i] / bc2;
    val[i] = val[i] - lr * mhat / (sqrt(vhat) + eps);
  }
}

CAMLprim value pnn_c_adam_step(double lr, double beta1, double beta2,
                               double eps, double bc1, double bc2, value vm,
                               value vv, value vgrad, value vvalue, intnat n)
{
  adam_core(lr, beta1, beta2, eps, bc1, bc2, FA(vm), FA(vv), BA(vgrad),
            BA(vvalue), n);
  return Val_unit;
}
CAMLprim value pnn_c_adam_step_byte(value *argv, int argn)
{
  (void) argn;
  return pnn_c_adam_step(Double_val(argv[0]), Double_val(argv[1]),
                         Double_val(argv[2]), Double_val(argv[3]),
                         Double_val(argv[4]), Double_val(argv[5]), argv[6],
                         argv[7], argv[8], argv[9], Long_val(argv[10]));
}

/* ----------------------------------------------------------------- */
/* Fused hot-path kernels.                                           */
/* ----------------------------------------------------------------- */

/* One stub call for a dense-layer forward: pre := x·w + bias (matmul_core
 * association, then the rowvec add), out := unop(pre).  op < 0 means no
 * nonlinearity: out receives a plain copy of pre (skipped when they are
 * the same buffer).  Bit-identical to the decomposed
 * matmul/add_rowvec/unary sequence above because it runs the same loops
 * in the same order. */
CAMLprim value pnn_c_matmul_bias_unop(intnat op, value vx, value vw, value vb,
                                      value vpre, value vout, intnat m,
                                      intnat k, intnat n)
{
  const double *bias = BA(vb);
  double *pre = BA(vpre);
  matmul_core(BA(vx), BA(vw), pre, m, k, n);
  for (intnat r = 0; r < m; r++) {
    double *prow = pre + r * n;
    for (intnat c = 0; c < n; c++) prow[c] = prow[c] + bias[c];
  }
  if (op >= 0) pnn_c_unary(op, vpre, vout, m * n);
  else {
    double *out = BA(vout);
    if (out != pre)
      for (intnat i = 0; i < m * n; i++) out[i] = pre[i];
  }
  return Val_unit;
}
CAMLprim value pnn_c_matmul_bias_unop_byte(value *argv, int argn)
{
  (void) argn;
  return pnn_c_matmul_bias_unop(Long_val(argv[0]), argv[1], argv[2], argv[3],
                                argv[4], argv[5], Long_val(argv[6]),
                                Long_val(argv[7]), Long_val(argv[8]));
}

/* One stub call for an Adam step over every parameter leaf.  items is an
 * OCaml array of (value, grad, m, v, numel) tuples: value/grad are Float64
 * bigarrays, m/v are OCaml float arrays.  Leaves are independent, so
 * per-leaf results are bit-identical to one pnn_c_adam_step call each. */
CAMLprim value pnn_c_adam_step_many(double lr, double beta1, double beta2,
                                    double eps, double bc1, double bc2,
                                    value vitems)
{
  mlsize_t count = Wosize_val(vitems);
  for (mlsize_t j = 0; j < count; j++) {
    value it = Field(vitems, j);
    adam_core(lr, beta1, beta2, eps, bc1, bc2, FA(Field(it, 2)),
              FA(Field(it, 3)), BA(Field(it, 1)), BA(Field(it, 0)),
              Long_val(Field(it, 4)));
  }
  return Val_unit;
}
CAMLprim value pnn_c_adam_step_many_byte(value *argv, int argn)
{
  (void) argn;
  return pnn_c_adam_step_many(Double_val(argv[0]), Double_val(argv[1]),
                              Double_val(argv[2]), Double_val(argv[3]),
                              Double_val(argv[4]), Double_val(argv[5]),
                              argv[6]);
}
