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
 * results.  Every kernel below returns the bits of the float array oracle
 * kept with the tests (test/oracle.ml) wherever the oracle's output is not
 * NaN, and a NaN exactly where it is NaN; which NaN (payload, sign,
 * quiet or signalling) is not part of the contract, and the process's
 * writers (Lines.float_line, Protocol) write one canonical NaN.  Each
 * kernel performs the oracle's floating-point operations in its order;
 * tanh is Fmath's (fmath_stubs.c, the same function the OCaml side calls),
 * and exp/log resolve to the same libm the OCaml runtime links.  IEEE add
 * and multiply are commutative wherever no operand is NaN, and a NaN
 * operand gives a NaN result whichever side it is on, so the operand order
 * within one operation decides nothing the contract covers.  Cached results
 * are keyed by Serialize.cache_schema, so a change that alters any
 * kernel's non-NaN bits must also change the schema.
 *
 * Vectorization is portable: GCC/Clang generic vector extensions (lowered
 * to scalar code on targets without SIMD) behind __GNUC__, with a scalar
 * fallback of identical order for any other compiler.  No
 * ISA-specific intrinsics.  The vector types are in pnn_vec.h.  On x86-64
 * the matmul bodies (the tiles and the narrow product) and Fmath's array
 * tanh have a second instance of the same source compiled for AVX2
 * (target("avx2"), 256-bit vectors), picked once per process with
 * __builtin_cpu_supports; see mm_body.  Elementwise loops are plain C over
 * contiguous buffers, which -ftree-vectorize turns into 128-bit code.
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

CAMLprim value pnn_c_scale(double k, value va, value vdst, intnat n)
{
  const double *a = BA(va);
  double *dst = BA(vdst);
  for (intnat i = 0; i < n; i++) dst[i] = k * a[i];
  return Val_unit;
}
CAMLprim value pnn_c_scale_byte(value vk, value va, value vdst, value vn)
{
  return pnn_c_scale(Double_val(vk), va, vdst, Long_val(vn));
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

/* Each output of the matmul family is one chain in pure k order from
 * +0.0, the oracle's matmul/matmul_nt order: every term is added, exact
 * zeros and NaNs alike, so the kernels perform the oracle's operations and
 * meet its contract (see the top of the file) at any vector width. */

/* The narrow product: mm_core's columns past the tiles (all of them when
 * n < 8), and the crossbar backward's Xᵀ·G and inv(x)ᵀ·G, which read A
 * transposed.  For rows × cols outputs, output (r, j) is
 * one chain in t order from +0.0 over the tn terms
 * a[r·a_r + t·a_t] · b[t·b_t + j·b_j], then + bias[j·b_j] when bias is
 * set, stored at c[r·c_r + j].  The body vectorises across 4 rows (a
 * quad's lanes) and keeps 4 columns' chains in flight; past the last row
 * or column the lanes repeat the last one and are dropped. */
struct mm_view {
  const double *a;
  intnat a_r, a_t;
  const double *b;
  intnat b_t, b_j;
  const double *bias;
  double *c;
  intnat c_r;
};

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
 * not enable FMA), so both widths give every output the same bits but for
 * a NaN's payload. */
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
PNN_SPECIALISE quad128 quad128_set(double w, double x, double y, double z)
{
  quad128 q = { { w, x }, { y, z } };
  return q;
}
PNN_SPECIALISE double quad128_lane(quad128 q, int l)
{
  return l < 2 ? q.lo[l] : q.hi[l - 2];
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

/* The narrow product (see struct mm_view) against the quad operations,
 * two more of them: set 4 lanes, and read one lane.  MM_NARROW_T runs one
 * group's four chains over t, the rows' quad of A entries read by LOADQ:
 * one load when the group's 4 rows are adjacent entries of A, else 4
 * scalars. */
#define MM_NARROW_T(Q, LOADQ)                                                \
  for (intnat t = 0; t < tn; t++) {                                          \
    intnat ta = t * at;                                                      \
    const double *b = v->b + t * bt;                                         \
    Q q = LOADQ;                                                             \
    x0 = Q##_madd(x0, b[o0], q);                                             \
    x1 = Q##_madd(x1, b[o1], q);                                             \
    x2 = Q##_madd(x2, b[o2], q);                                             \
    x3 = Q##_madd(x3, b[o3], q);                                             \
  }

/* Stores column j0 + j of the group, quad x's lanes in its rows, straight
 * from the register (a lane read back from a stored vector can miss the
 * store buffer's forwarding). */
#define MM_NARROW_COL(Q, x, j)                                               \
  if (j0 + j < cols) {                                                       \
    c[j] = Q##_lane(x, 0);                                                   \
    if (r0 + 1 < rows) c[cr + j] = Q##_lane(x, 1);                           \
    if (r0 + 2 < rows) c[2 * cr + j] = Q##_lane(x, 2);                       \
    if (r0 + 3 < rows) c[3 * cr + j] = Q##_lane(x, 3);                       \
  }

#define MM_NARROW(ATTR, NAME, Q)                                             \
  ATTR static void NAME(const struct mm_view *v, intnat rows, intnat cols,   \
                        intnat tn)                                           \
  {                                                                          \
    intnat ar = v->a_r, at = v->a_t, bt = v->b_t, bj = v->b_j, cr = v->c_r;  \
    for (intnat r0 = 0; r0 < rows; r0 += 4) {                                \
      intnat last = rows - 1;                                                \
      int full_r = r0 + 4 <= rows;                                           \
      const double *a0 = v->a + r0 * ar;                                     \
      const double *a1 = v->a + (r0 + 1 < rows ? r0 + 1 : last) * ar;        \
      const double *a2 = v->a + (r0 + 2 < rows ? r0 + 2 : last) * ar;        \
      const double *a3 = v->a + (r0 + 3 < rows ? r0 + 3 : last) * ar;        \
      for (intnat j0 = 0; j0 < cols; j0 += 4) {                              \
        intnat lj = cols - 1;                                                \
        intnat o0 = j0 * bj;                                                 \
        intnat o1 = (j0 + 1 < cols ? j0 + 1 : lj) * bj;                      \
        intnat o2 = (j0 + 2 < cols ? j0 + 2 : lj) * bj;                      \
        intnat o3 = (j0 + 3 < cols ? j0 + 3 : lj) * bj;                      \
        Q x0 = Q##_zero(), x1 = Q##_zero(), x2 = Q##_zero(), x3 = Q##_zero(); \
        if (ar == 1 && full_r)                                               \
          MM_NARROW_T(Q, Q##_load(a0 + ta))                                  \
        else                                                                 \
          MM_NARROW_T(Q, Q##_set(a0[ta], a1[ta], a2[ta], a3[ta]))            \
        if (v->bias) {                                                       \
          const double *s = v->bias;                                         \
          x0 = Q##_add(x0, Q##_set(s[o0], s[o0], s[o0], s[o0]));             \
          x1 = Q##_add(x1, Q##_set(s[o1], s[o1], s[o1], s[o1]));             \
          x2 = Q##_add(x2, Q##_set(s[o2], s[o2], s[o2], s[o2]));             \
          x3 = Q##_add(x3, Q##_set(s[o3], s[o3], s[o3], s[o3]));             \
        }                                                                    \
        double *c = v->c + r0 * cr + j0;                                     \
        MM_NARROW_COL(Q, x0, 0)                                              \
        MM_NARROW_COL(Q, x1, 1)                                              \
        MM_NARROW_COL(Q, x2, 2)                                              \
        MM_NARROW_COL(Q, x3, 3)                                              \
      }                                                                      \
    }                                                                        \
  }

MM_TILES(, mm_tiles_128, quad128, 0)
MM_NARROW(, mm_narrow_128, quad128)

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
PNN_WIDE PNN_SPECIALISE quad256 quad256_set(double w, double x, double y,
                                            double z)
{
  quad256 q = { w, x, y, z };
  return q;
}
PNN_WIDE PNN_SPECIALISE double quad256_lane(quad256 q, int l)
{
  return q[l];
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
MM_NARROW(PNN_WIDE, mm_narrow_256, quad256)
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

/* and the narrow product, one output at a time */
static void mm_narrow_128(const struct mm_view *v, intnat rows, intnat cols,
                          intnat tn)
{
  for (intnat r = 0; r < rows; r++)
    for (intnat j = 0; j < cols; j++) {
      double acc = 0.0;
      for (intnat t = 0; t < tn; t++)
        acc = acc + v->a[r * v->a_r + t * v->a_t]
                        * v->b[t * v->b_t + j * v->b_j];
      if (v->bias) acc = acc + v->bias[j * v->b_j];
      v->c[r * v->c_r + j] = acc;
    }
}
#endif

typedef void mm_tiles_fn(const double *ad, intnat lda, intnat k, int bias,
                         const double *bd, double *cd, intnat m, intnat n);
typedef void mm_narrow_fn(const struct mm_view *v, intnat rows, intnat cols,
                          intnat tn);

/* One vector width's matmul bodies. */
struct mm_bodies {
  mm_tiles_fn *tiles;
  mm_narrow_fn *narrow;
};

static const struct mm_bodies mm_128 = { mm_tiles_128, mm_narrow_128 };

/* The bodies the kernels run: chosen once per process, when the stubs are
 * loaded and before any kernel runs, and changed after that only by
 * pnn_c_set_wide_tiles. */
static const struct mm_bodies *mm_body = &mm_128;

#ifdef PNN_HAVE_WIDE
static const struct mm_bodies mm_256 = { mm_tiles_256, mm_narrow_256 };
static int mm_have_avx2;

__attribute__((constructor)) static void mm_body_pick(void)
{
  __builtin_cpu_init();
  mm_have_avx2 = __builtin_cpu_supports("avx2");
  if (mm_have_avx2) mm_body = &mm_256;
  pnn_fm_use_wide(mm_have_avx2);
}
#endif

/* A hook for the tests, which run every matmul and tanh check through both
 * widths: selects the 256-bit bodies (the matmul bodies and Fmath's array
 * tanh) when [wide] is set and the CPU has AVX2, the 128-bit bodies
 * otherwise, and returns whether the 256-bit bodies are now the ones in
 * use.  Not for use while another domain may run a kernel. */
CAMLprim value pnn_c_set_wide_tiles(value vwide)
{
#ifdef PNN_HAVE_WIDE
  mm_body = Bool_val(vwide) && mm_have_avx2 ? &mm_256 : &mm_128;
  pnn_fm_use_wide(mm_body == &mm_256);
  return Val_bool(mm_body == &mm_256);
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
 * order from +0.0 (1.0 · b is b).  The register tiles above take the
 * columns below the last multiple of 8 and the narrow product the rest,
 * every column when n < 8. */
static void mm_core(const double *ad, intnat lda, intnat k, int bias,
                    const double *bd, double *cd, intnat m, intnat n)
{
  const double *bb = bd + k * n; /* the bias row of B, when [bias] */
  intnat n8 = n - (n & 7);
  if (n8 > 0) mm_body->tiles(ad, lda, k, bias, bd, cd, m, n);
  struct mm_view v = { ad, lda, 1, bd + n8, n, 1, bias ? bb + n8 : NULL,
                       cd + n8, n };
  mm_body->narrow(&v, m, n - n8, k);
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
 * (the B rows are strided, so each lane pair is loaded scalar by scalar). */
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
      s[i] = (1.0 - yi * yi) * g[i];
    }
    break;
  case PNN_SIGMOID:
    for (intnat i = 0; i < n; i++) {
      double yi = y[i];
      s[i] = yi * (1.0 - yi) * g[i];
    }
    break;
  case PNN_RELU:
    for (intnat i = 0; i < n; i++)
      s[i] = g[i] * (x[i] > 0.0 ? 1.0 : 0.0);
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
/* ptanh (paper Eq. 2) and the crossbar (paper Eq. 1): the oracle      */
/* kernels' operations in their order (test/oracle.ml), laid out so    */
/* that they vectorise.  Each reads an input after it has written      */
/* some output, or writes two outputs the backward pass reads, so      */
/* Tensor refuses an output that shares storage with another operand.  */
/* ------------------------------------------------------------------ */

/* Elements per block buffer (a kilobyte of stack). */
#define PNN_BLOCK 128

/* h keeps the tanh of every element for the backward pass, so out may not
 * be h. */
CAMLprim value pnn_c_ptanh(value veta, value vv, value vh, value vout,
                           intnat n)
{
  const double *eta = BA(veta);
  const double *v = BA(vv);
  double *h = BA(vh);
  double *out = BA(vout);
  double e0 = eta[0], e1 = eta[1], ne2 = -eta[2], e3 = eta[3];
  for (intnat i = 0; i < n; i++) h[i] = e3 * (ne2 + v[i]);
  pnn_fm_tanh_n(h, h, n);
  for (intnat i = 0; i < n; i++) out[i] = e0 + e1 * h[i];
  return Val_unit;
}
CAMLprim value pnn_c_ptanh_byte(value veta, value vv, value vh, value vout,
                                value vn)
{
  return pnn_c_ptanh(veta, vv, vh, vout, Long_val(vn));
}

/* The element terms go into block buffers, vectorised; η's four shares
 * then run as four scalar chains over the buffers in element order.  The
 * chains read g after the block's dv is written, so dv may not be g. */
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
  for (intnat i0 = 0; i0 < n; i0 += PNN_BLOCK) {
    intnat nb = n - i0 < PNN_BLOCK ? n - i0 : PNN_BLOCK;
    const double *gb = g + i0, *hb = h + i0, *vb = v + i0;
    double *gs = dv + i0;
    double t1[PNN_BLOCK], t3[PNN_BLOCK];
    for (intnat t = 0; t < nb; t++) {
      double hi = hb[t];
      double gp = 0.0 + gb[t];
      double gz = 0.0 + (1.0 - hi * hi) * (0.0 + e1 * gp);
      gs[t] = 0.0 + e3 * gz;
      t1[t] = gp * hi;
      t3[t] = gz * (ne2 + vb[t]);
    }
    for (intnat t = 0; t < nb; t++) {
      s0 = s0 + gb[t];
      s1 = s1 + t1[t];
      s2 = s2 + gs[t];
      s3 = s3 + t3[t];
    }
  }
  deta[0] = 0.0 + s0;
  deta[1] = 0.0 + s1;
  deta[2] = 0.0 + -(0.0 + s2);
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
 * matmuls and the row normalisation.  The tanh arguments of x's columns go
 * through block buffers, and the bias column's (its input is 1.0 on every
 * row) takes one tanh.  The x·θ⁺ product reads x after h and inv(x) are
 * written, and the normalisation reads num and out back, so no output may
 * be an input or another output. */
CAMLprim value pnn_c_crossbar(value vx, value veta, value vcond, value vh,
                              value vinv, value vnum, value vout, intnat m,
                              intnat k, intnat n)
{
  const double *x = BA(vx), *eta = BA(veta), *cond = BA(vcond);
  double *h = BA(vh), *inv = BA(vinv), *num = BA(vnum), *out = BA(vout);
  intnat k1 = k + 1;
  double e0 = eta[0], e1 = eta[1], ne2 = -eta[2], e3 = eta[3];
  double zb = e3 * (ne2 + 1.0), tb;
  pnn_fm_tanh_n(&zb, &tb, 1);
  double ib = -(e0 + e1 * tb);
  /* blocks of whole rows, or of PNN_BLOCK columns of one row */
  intnat kc = k < PNN_BLOCK ? k : PNN_BLOCK, rb = k > 0 ? PNN_BLOCK / kc : m;
  for (intnat i0 = 0; i0 < m; i0 += rb) {
    intnat rn = m - i0 < rb ? m - i0 : rb;
    for (intnat p0 = 0; p0 < k; p0 += kc) {
      intnat pn = k - p0 < kc ? k - p0 : kc;
      double t[PNN_BLOCK];
      for (intnat r = 0; r < rn; r++)
        for (intnat p = 0; p < pn; p++)
          t[r * pn + p] = e3 * (ne2 + x[(i0 + r) * k + p0 + p]);
      pnn_fm_tanh_n(t, t, rn * pn);
      for (intnat r = 0; r < rn; r++)
        for (intnat p = 0; p < pn; p++) {
          intnat q = (i0 + r) * k1 + p0 + p;
          double tq = t[r * pn + p];
          h[q] = tq;
          inv[q] = -(e0 + e1 * tq);
        }
    }
  }
  for (intnat i = 0; i < m; i++) {
    h[i * k1 + k] = tb;
    inv[i * k1 + k] = ib;
  }
  /* x·θ⁺ (bias column implicit) into num, inv(x)·θ⁻ into out */
  mm_core(x, k, k, 1, cond, num, m, n);
  mm_core(inv, k1, k1, 0, cond + k1 * n, out, m, n);
  /* the row normalisation, 1/den in a block buffer */
  const double *den = cond + 2 * k1 * n;
  for (intnat j0 = 0; j0 < n; j0 += PNN_BLOCK) {
    intnat jn = n - j0 < PNN_BLOCK ? n - j0 : PNN_BLOCK;
    double r[PNN_BLOCK];
    for (intnat j = 0; j < jn; j++) r[j] = 1.0 / den[j0 + j];
    for (intnat i = 0; i < m; i++) {
      double *nr = num + i * n + j0, *orow = out + i * n + j0;
      for (intnat j = 0; j < jn; j++) {
        double s = nr[j] + orow[j];
        nr[j] = s;
        orow[j] = s * r[j];
      }
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

/* Σ a[j]·b[j] for j < n, one chain in j order from +0.0. */
static inline double dot_chain(const double *a, const double *b, intnat n)
{
  double acc = 0.0;
  for (intnat j = 0; j < n; j++) acc = acc + a[j] * b[j];
  return acc;
}

/* The gradients of the forward above, as the oracle's crossbar_bwd
 * computes them: gnum receives the numerator's gradient, deta η's four
 * shares, dcond θ⁺'s, θ⁻'s and the denominator's, and dx (when want_dx)
 * x's share — inv(x)'s path first, then the θ⁺ matmul's.  Every matmul
 * output is one chain in pure order from +0.0, and η's shares are summed
 * in row-major order, the bias column included.
 *
 * Three passes.  The row division, four columns at a time, with the bias
 * row's Σ G.  Then row by row: each element of G·θ⁻ᵀ (and of G·θ⁺ᵀ for
 * dx) one chain over the row's n entries, ptanh_bwd's element, and η's
 * four shares as scalar chains in row-major order.  Last, Xᵀ·G and
 * inv(x)ᵀ·G by the narrow product, vectorised across p.  The later passes
 * read x, inv(x) and gnum after dx and dcond are written, so no output may
 * be an input or another output. */
CAMLprim value pnn_c_crossbar_bwd(value vx, value veta, value vcond,
                                  value vh, value vinv, value vnum, value vg,
                                  value vgnum, value vdx, value vdeta,
                                  value vdcond, intnat want_dx, intnat m,
                                  intnat k, intnat n)
{
  const double *x = BA(vx), *eta = BA(veta), *h = BA(vh), *inv = BA(vinv);
  const double *num = BA(vnum), *g = BA(vg);
  double *gnum = BA(vgnum), *dx = BA(vdx), *deta = BA(vdeta);
  double *dcond = BA(vdcond);
  intnat k1 = k + 1;
  double e1 = eta[1], ne2 = -eta[2], e3 = eta[3];
  const double *pos = BA(vcond), *neg = pos + k1 * n, *den = pos + 2 * k1 * n;
  double *dpos = dcond, *dneg = dcond + k1 * n, *dden = dcond + 2 * k1 * n;
  /* the row division four columns at a time, past the last column
   * repeating it: the numerator's gradient, and the denominator's and the
   * bias row's sums, each a chain over the rows */
  for (intnat j0 = 0; j0 < n; j0 += 4) {
    intnat c0 = j0, c1 = j0 + 1 < n ? j0 + 1 : n - 1,
           c2 = j0 + 2 < n ? j0 + 2 : n - 1, c3 = j0 + 3 < n ? j0 + 3 : n - 1;
    double r0 = 1.0 / den[c0], r1 = 1.0 / den[c1], r2 = 1.0 / den[c2],
           r3 = 1.0 / den[c3];
    double q0 = r0 * r0, q1 = r1 * r1, q2 = r2 * r2, q3 = r3 * r3;
    double d0 = 0.0, d1 = 0.0, d2 = 0.0, d3 = 0.0;
    double b0 = 0.0, b1 = 0.0, b2 = 0.0, b3 = 0.0;
    for (intnat i = 0; i < m; i++) {
      const double *gr = g + i * n, *nr = num + i * n;
      double *gn = gnum + i * n;
      double g0 = gr[c0], g1 = gr[c1], g2 = gr[c2], g3 = gr[c3];
      double u0 = 0.0 + g0 * r0, u1 = 0.0 + g1 * r1, u2 = 0.0 + g2 * r2,
             u3 = 0.0 + g3 * r3;
      gn[c0] = u0;
      gn[c1] = u1;
      gn[c2] = u2;
      gn[c3] = u3;
      d0 = d0 + g0 * (-nr[c0] * q0);
      d1 = d1 + g1 * (-nr[c1] * q1);
      d2 = d2 + g2 * (-nr[c2] * q2);
      d3 = d3 + g3 * (-nr[c3] * q3);
      b0 = b0 + u0;
      b1 = b1 + u1;
      b2 = b2 + u2;
      b3 = b3 + u3;
    }
    double *dd = dden + j0, *db = dpos + k * n + j0;
    dd[0] = d0;
    db[0] = b0;
    if (j0 + 1 < n) dd[1] = d1, db[1] = b1;
    if (j0 + 2 < n) dd[2] = d2, db[2] = b2;
    if (j0 + 3 < n) dd[3] = d3, db[3] = b3;
  }
  /* row by row, the bias column (v = 1) peeled off */
  double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
#define XB_ELEM(gi, hp, v)                                                   \
  double gm = -(gi), gp = 0.0 + gm;                                          \
  double gz = 0.0 + (1.0 - (hp) * (hp)) * (0.0 + e1 * gp);                   \
  double gs = 0.0 + e3 * gz;                                                 \
  s0 = s0 + gm;                                                              \
  s1 = s1 + gp * (hp);                                                       \
  s2 = s2 + gs;                                                              \
  s3 = s3 + gz * (ne2 + (v))
  for (intnat i = 0; i < m; i++) {
    const double *gn = gnum + i * n, *xr = x + i * k, *hr = h + i * k1;
    for (intnat p = 0; p < k; p++) {
      XB_ELEM(dot_chain(gn, neg + p * n, n), hr[p], xr[p]);
      if (want_dx) dx[i * k + p] = gs + dot_chain(gn, pos + p * n, n);
    }
    XB_ELEM(dot_chain(gn, neg + k * n, n), hr[k], 1.0);
  }
#undef XB_ELEM
  deta[0] = 0.0 + s0;
  deta[1] = 0.0 + s1;
  deta[2] = 0.0 + -(0.0 + s2);
  deta[3] = 0.0 + s3;
  struct mm_view xg = { x, 1, k, gnum, n, 1, NULL, dpos, n };
  mm_body->narrow(&xg, k, n, m);
  struct mm_view ig = { inv, 1, k1, gnum, n, 1, NULL, dneg, n };
  mm_body->narrow(&ig, k1, n, m);
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
      /* a p below 1e-30 reads as 1e-30; a NaN p fails the compare and
       * stays NaN, so the sum is NaN */
      double pi = p[i];
      double cl = pi < 1e-30 ? 1e-30 : pi;
      loss = loss - yi * log(cl);
    }
  }
  return loss;
}
CAMLprim value pnn_c_ce_loss_sum_byte(value vp, value vy, value vn)
{
  return caml_copy_double(pnn_c_ce_loss_sum(vp, vy, Long_val(vn)));
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
 * bigarrays, m/v are OCaml float arrays.  Leaves are independent: each
 * runs adam_core on its own buffers. */
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
