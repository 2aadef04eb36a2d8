/* C kernel cores for the Kernels_c backend.
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
 * results.  Per-element kernels below perform the exact floating-point
 * operations, in the exact order, of the reference backend
 * (lib/tensor/kernels_ref.ml) and are bit-identical to it; libm calls
 * (tanh/exp/log) resolve to the same libm the OCaml runtime links.  Only
 * the matmul family re-associates — deterministically: pure-k-order 8-wide
 * output tiles for matmul, a 4-lane split combined as (s0+s1)+(s2+s3) for
 * matmul_nt.  That association defines the backend's results (pinned by
 * output digests in test/test_backend.ml, which keeps warm +c64 caches
 * valid) and must not change.
 *
 * Vectorization is portable: GCC/Clang generic vector extensions (lowered
 * to scalar code on targets without SIMD) behind __GNUC__, with a scalar
 * fallback of identical association for any other compiler.  No
 * ISA-specific intrinsics.
 */

#define CAML_NAME_SPACE
#include <caml/mlvalues.h>
#include <caml/alloc.h>
#include <caml/bigarray.h>
#include <math.h>

#define BA(v) ((double *) Caml_ba_data_val(v))
/* An OCaml float array is a flat block of doubles; the value points at the
 * first element (flat-float-array runtime, which this codebase assumes
 * everywhere moments are touched). */
#define FA(v) ((double *) (v))

#if defined(__GNUC__) || defined(__clang__)
/* 2-lane double vector — the width every mainstream double-SIMD target
 * supports natively (SSE2, NEON, VSX, z13), so GCC/Clang map it straight to
 * registers instead of running the generic-vector lowering pass, which
 * round-trips oversized vectors through the stack.  The naturally-aligned
 * type is the only one used for arithmetic; the aligned(8) twin exists
 * solely to express unaligned loads/stores of row slices — putting
 * aligned(8) on the arithmetic type itself also forces stack spills. */
typedef double v2df __attribute__((vector_size(16)));
typedef double v2df_u __attribute__((vector_size(16), aligned(8)));
static inline v2df vload(const double *p) { return *(const v2df_u *) p; }
static inline void vstore(double *p, v2df v) { *(v2df_u *) p = v; }
#define PNN_HAVE_VEC 1
#endif

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

CAMLprim value pnn_c_add_scalar(double k, value va, value vdst, intnat n)
{
  const double *a = BA(va);
  double *dst = BA(vdst);
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

/* ----------------------------------------------------------------- */
/* Matmul family: the only kernels allowed to re-associate.  Their  */
/* association is pinned (see file header).                          */
/* ----------------------------------------------------------------- */

/* 8-wide output tile, each lane accumulated in pure k order — the same
 * association as an 8-accumulator register blocking (and as the reference
 * backend minus its exact-zero skip).  c is overwritten. */
static void matmul_core(const double *ad, const double *bd, double *cd,
                        intnat m, intnat k, intnat n)
{
  intnat n8 = n - (n & 7);
  for (intnat i = 0; i < m; i++) {
    const double *arow = ad + i * k;
    double *crow = cd + i * n;
    intnat j0 = 0;
#ifdef PNN_HAVE_VEC
    for (; j0 < n8; j0 += 8) {
      v2df acc0 = { 0.0, 0.0 };
      v2df acc1 = { 0.0, 0.0 };
      v2df acc2 = { 0.0, 0.0 };
      v2df acc3 = { 0.0, 0.0 };
      for (intnat p = 0; p < k; p++) {
        double a = arow[p];
        v2df av = { a, a };
        const double *brow = bd + p * n + j0;
        acc0 = acc0 + av * vload(brow);
        acc1 = acc1 + av * vload(brow + 2);
        acc2 = acc2 + av * vload(brow + 4);
        acc3 = acc3 + av * vload(brow + 6);
      }
      vstore(crow + j0, acc0);
      vstore(crow + j0 + 2, acc1);
      vstore(crow + j0 + 4, acc2);
      vstore(crow + j0 + 6, acc3);
    }
#else
    for (; j0 < n8; j0 += 8) {
      double c0 = 0.0, c1 = 0.0, c2 = 0.0, c3 = 0.0;
      double c4 = 0.0, c5 = 0.0, c6 = 0.0, c7 = 0.0;
      for (intnat p = 0; p < k; p++) {
        double a = arow[p];
        const double *brow = bd + p * n + j0;
        c0 = c0 + a * brow[0];
        c1 = c1 + a * brow[1];
        c2 = c2 + a * brow[2];
        c3 = c3 + a * brow[3];
        c4 = c4 + a * brow[4];
        c5 = c5 + a * brow[5];
        c6 = c6 + a * brow[6];
        c7 = c7 + a * brow[7];
      }
      crow[j0] = c0;  crow[j0 + 1] = c1;
      crow[j0 + 2] = c2;  crow[j0 + 3] = c3;
      crow[j0 + 4] = c4;  crow[j0 + 5] = c5;
      crow[j0 + 6] = c6;  crow[j0 + 7] = c7;
    }
#endif
    for (intnat j = n8; j < n; j++) {
      double acc = 0.0;
      for (intnat p = 0; p < k; p++) acc = acc + arow[p] * bd[p * n + j];
      crow[j] = acc;
    }
  }
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

/* A · Bᵀ: 4-lane split over the shared dimension combined as
 * (s0 + s1) + (s2 + s3) with the tail folded in after. */
CAMLprim value pnn_c_matmul_nt(value va, value vb, value vc, intnat m,
                               intnat k, intnat n)
{
  const double *ad = BA(va);
  const double *bd = BA(vb);
  double *cd = BA(vc);
  intnat k4 = k - (k & 3);
  for (intnat i = 0; i < m; i++) {
    const double *arow = ad + i * k;
    double *crow = cd + i * n;
    for (intnat j = 0; j < n; j++) {
      const double *brow = bd + j * k;
      double acc;
#ifdef PNN_HAVE_VEC
      /* Lanes 0/1 live in sa, lanes 2/3 in sb; the combine below is the
       * same (s0 + s1) + (s2 + s3) tree as the scalar fallback. */
      v2df sa = { 0.0, 0.0 };
      v2df sb = { 0.0, 0.0 };
      for (intnat p = 0; p < k4; p += 4) {
        sa = sa + vload(arow + p) * vload(brow + p);
        sb = sb + vload(arow + p + 2) * vload(brow + p + 2);
      }
      acc = (sa[0] + sa[1]) + (sb[0] + sb[1]);
#else
      double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
      for (intnat p = 0; p < k4; p += 4) {
        s0 = s0 + arow[p] * brow[p];
        s1 = s1 + arow[p + 1] * brow[p + 1];
        s2 = s2 + arow[p + 2] * brow[p + 2];
        s3 = s3 + arow[p + 3] * brow[p + 3];
      }
      acc = (s0 + s1) + (s2 + s3);
#endif
      for (intnat p = k4; p < k; p++) acc = acc + arow[p] * brow[p];
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

/* Blocked copy, same 32x32 tiling as the OCaml backends (copies are exact
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
/* reference (the compiler may not re-associate without -ffast-math). */
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
/* Nonlinearities: op tags match Tensor_backend.unop declaration   */
/* order (Tanh..Abs = 0..6); formulas are the reference backend's, */
/* libm calls resolve to the same libm the OCaml runtime links.    */
/* --------------------------------------------------------------- */

enum pnn_unop { PNN_TANH, PNN_SIGMOID, PNN_EXP, PNN_LOG, PNN_SQRT, PNN_RELU,
                PNN_ABS };

CAMLprim value pnn_c_unary(intnat op, value vsrc, value vdst, intnat n)
{
  const double *src = BA(vsrc);
  double *dst = BA(vdst);
  switch ((enum pnn_unop) op) {
  case PNN_TANH:
    for (intnat i = 0; i < n; i++) dst[i] = tanh(src[i]);
    break;
  case PNN_SIGMOID:
    for (intnat i = 0; i < n; i++) dst[i] = 1.0 / (1.0 + exp(-src[i]));
    break;
  case PNN_EXP:
    for (intnat i = 0; i < n; i++) dst[i] = exp(src[i]);
    break;
  case PNN_LOG:
    for (intnat i = 0; i < n; i++) dst[i] = log(src[i]);
    break;
  case PNN_SQRT:
    for (intnat i = 0; i < n; i++) dst[i] = sqrt(src[i]);
    break;
  case PNN_RELU:
    for (intnat i = 0; i < n; i++) {
      double x = src[i];
      dst[i] = x > 0.0 ? x : 0.0;
    }
    break;
  case PNN_ABS:
    for (intnat i = 0; i < n; i++) dst[i] = fabs(src[i]);
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
      s[i] = g[i] * (1.0 - yi * yi);
    }
    break;
  case PNN_SIGMOID:
    for (intnat i = 0; i < n; i++) {
      double yi = y[i];
      s[i] = g[i] * (yi * (1.0 - yi));
    }
    break;
  case PNN_EXP:
    for (intnat i = 0; i < n; i++) s[i] = g[i] * y[i];
    break;
  case PNN_LOG:
    for (intnat i = 0; i < n; i++) s[i] = g[i] * (1.0 / x[i]);
    break;
  case PNN_SQRT:
    for (intnat i = 0; i < n; i++) s[i] = g[i] * (0.5 / y[i]);
    break;
  case PNN_RELU:
    for (intnat i = 0; i < n; i++) s[i] = g[i] * (x[i] > 0.0 ? 1.0 : 0.0);
    break;
  case PNN_ABS:
    for (intnat i = 0; i < n; i++) {
      double xi = x[i];
      s[i] = g[i] * (xi > 0.0 ? 1.0 : (xi < 0.0 ? -1.0 : 0.0));
    }
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

/* ------------------------------------------ */
/* Training-path fused kernels (reference     */
/* order per row/element, see kernels_ref.ml) */
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
/* Fused hot-path kernels (optional KERNELS capabilities).           */
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
