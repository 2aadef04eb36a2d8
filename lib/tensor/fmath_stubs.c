/* Fmath: tanh as a fixed sequence of IEEE operations, so that its bits are
 * a function of this source rather than of the host's libm (glibc's tanh
 * calls an ifunc-dispatched expm1 whose body depends on the CPU).
 *
 * Stub contract (lib/tensor/dune, pnn_kernels_stubs.c): -O2
 * -fno-fast-math -ffp-contract=off, no libm call, no FMA, so every
 * operation below is one correctly rounded IEEE operation in the order
 * written.  The lane body is written once (FM_TANH) against a lane type and
 * instantiated three times: scalar (double), 128-bit (two lanes) and,
 * on x86-64, 256-bit (four lanes, target("avx2"), which does not enable
 * FMA).  A lane is one element's computation, IEEE arithmetic is per lane,
 * and the special cases select among values every lane computes, so the
 * three bodies give every element the same bits.  The array entry point
 * runs whole vectors through the body in use and the tail through the
 * scalar body.  pnn_kernels_stubs.c picks the body with the matmul tiles:
 * once per process, and again only through pnn_c_set_wide_tiles.
 *
 * The algorithm, for a = |x|:
 *   y = −2a below a = 1, 2a above;  t = expm1(y), by Cody–Waite reduction
 *   y = k·ln2 + r (|r| ≤ ln2/2) and a degree-14 polynomial for expm1(r),
 *   then t = 2^k·expm1(r) + (2^k − 1);
 *   tanh(a) = −t/(t + 2) below 1, 1 − 2/(t + 2) above;
 *   and the sign of x put back with a bit OR, so tanh(−x) = −tanh(x).
 * Lane selects: a < 2^−27 (zeros, subnormals and tiny x, where tanh(x)
 * rounds to x within an ulp) gives x; a ≥ 22 (and ±inf) gives ±1; NaN
 * gives x quieted, sign kept.  The error against glibc's tanh is pinned by
 * test/test_fmath.ml. */

#define CAML_NAME_SPACE
#include <caml/mlvalues.h>
#include <caml/alloc.h>
#include <string.h>
#include "pnn_vec.h"

#define FM_SIGN UINT64_C(0x8000000000000000)
#define FM_QUIET UINT64_C(0x0008000000000000)
/* 1.5·2^52: adding it rounds a double of magnitude < 2^51 to an integer,
 * which then sits in the low bits of the sum's pattern. */
#define FM_SHIFT 0x1.8p52
#define FM_SHIFT_BITS UINT64_C(0x4338000000000000)
#define FM_INVLN2 0x1.71547652b82fep+0
/* ln2 split so that k·LN2HI is exact for |k| < 2^11 */
#define FM_LN2HI 0x1.62e42feep-1
#define FM_LN2LO 0x1.a39ef35793c76p-33

/* expm1(r) = r + r²·P(r) on |r| ≤ ln2/2, P the degree-12 polynomial of
 * the Taylor coefficients 1/n!, n = 2..14, evaluated by Estrin's scheme
 * (pairs in r, then powers r², r⁴, r⁸), whose dependency chain is half
 * Horner's: a single tanh's latency matters in the device model's Newton
 * loop. */
#define FM_C2 0x1p-1
#define FM_C3 0x1.5555555555555p-3
#define FM_C4 0x1.5555555555555p-5
#define FM_C5 0x1.1111111111111p-7
#define FM_C6 0x1.6c16c16c16c17p-10
#define FM_C7 0x1.a01a01a01a01ap-13
#define FM_C8 0x1.a01a01a01a01ap-16
#define FM_C9 0x1.71de3a556c734p-19
#define FM_C10 0x1.27e4fb7789f5cp-22
#define FM_C11 0x1.ae64567f544e4p-26
#define FM_C12 0x1.1eed8eff8d898p-29
#define FM_C13 0x1.6124613a86d09p-33
#define FM_C14 0x1.93974a8c07c9dp-37

/* The body below is written against a lane type L: L_t (double or a
 * double vector), its mask type L_m, and the operations that are not C
 * arithmetic (which GCC/Clang apply lane-wise to vectors, broadcasting
 * scalar operands):
 *   L_lt/L_ge   a comparison, as a mask;
 *   L_sel       m ? p : q per lane;
 *   L_splat     a constant in every lane;
 *   L_abs       |x|, by clearing the sign bit;
 *   L_signed    h (≥ 0, not NaN) with x's sign;
 *   L_pow2      2^k from ks = k + 1.5·2^52 (k sits in ks's low bits);
 *   L_isnan, L_quiet  NaN test, and x with the quiet bit set.
 * The scalar lane keeps its selects as C conditionals, so the compiler
 * need not move each value through an integer register; the vector lanes
 * select by bits.  Both compute each lane's value with the same IEEE
 * operations, so the bits agree. */
static inline uint64_t f1_bits(double x)
{
  uint64_t u;
  memcpy(&u, &x, sizeof u);
  return u;
}
static inline double f1_dbl(uint64_t u)
{
  double x;
  memcpy(&x, &u, sizeof x);
  return x;
}
typedef double f1_t;
typedef int f1_m;
#define f1_lt(a, b) ((a) < (b))
#define f1_ge(a, b) ((a) >= (b))
#define f1_sel(m, p, q) ((m) ? (p) : (q))
#define f1_splat(c) (c)
#define f1_abs(x) f1_dbl(f1_bits(x) & ~FM_SIGN)
/* x is neither ±0 nor NaN where this is kept, so x < 0 is its sign bit */
#define f1_signed(h, x) ((x) < 0.0 ? -(h) : (h))
#define f1_pow2(ks) f1_dbl((f1_bits(ks) - FM_SHIFT_BITS + 1023) << 52)
#define f1_isnan(x) ((x) != (x))
#define f1_quiet(x) f1_dbl(f1_bits(x) | FM_QUIET)

#define FM_TANH(ATTR, NAME, L)                                               \
  ATTR PNN_SPECIALISE L##_t NAME(L##_t x)                                    \
  {                                                                          \
    L##_t a = L##_abs(x);                                                    \
    L##_m below1 = L##_lt(a, 1.0);                                           \
    L##_t a2 = a + a;                                                        \
    L##_t y = L##_sel(below1, -a2, a2);                                      \
    L##_t ks = y * FM_INVLN2 + FM_SHIFT;                                     \
    L##_t k = ks - FM_SHIFT;                                                 \
    L##_t r = (y - k * FM_LN2HI) - k * FM_LN2LO;                             \
    L##_t z = r * r;                                                         \
    L##_t z2 = z * z;                                                        \
    L##_t z4 = z2 * z2;                                                      \
    L##_t q01 = (FM_C2 + FM_C3 * r) + (FM_C4 + FM_C5 * r) * z;               \
    L##_t q23 = (FM_C6 + FM_C7 * r) + (FM_C8 + FM_C9 * r) * z;               \
    L##_t q45 = (FM_C10 + FM_C11 * r) + (FM_C12 + FM_C13 * r) * z;           \
    L##_t p = (q01 + q23 * z2) + (q45 + FM_C14 * z2) * z4;                   \
    L##_t e = r + z * p;                                                     \
    L##_t s = L##_pow2(ks);                                                  \
    L##_t t = s * e + (s - 1.0);                                             \
    L##_t q = L##_sel(below1, -t, L##_splat(2.0)) / (t + 2.0);               \
    L##_t h = L##_sel(below1, q, 1.0 - q);                                   \
    h = L##_sel(L##_ge(a, 22.0), L##_splat(1.0), h);                         \
    h = L##_sel(L##_lt(a, 0x1p-27), x, L##_signed(h, x));                    \
    return L##_sel(L##_isnan(x), L##_quiet(x), h);                           \
  }

FM_TANH(, fm_tanh1, f1)

typedef void fm_array_fn(const double *src, double *dst, intnat n);

#ifdef PNN_HAVE_VEC
typedef v2df f2_t;
typedef v2du f2_m;
#define f2_lt(a, b) ((v2du) ((a) < (b)))
#define f2_ge(a, b) ((v2du) ((a) >= (b)))
#define f2_sel(m, p, q) ((v2df) (((m) & (v2du) (p)) | (~(m) & (v2du) (q))))
#define f2_splat(c) ((v2df) { c, c })
#define f2_abs(x) ((v2df) ((v2du) (x) & ~FM_SIGN))
#define f2_signed(h, x) ((v2df) ((v2du) (h) | ((v2du) (x) & FM_SIGN)))
#define f2_pow2(ks) ((v2df) (((v2du) (ks) - FM_SHIFT_BITS + 1023) << 52))
#define f2_isnan(x) ((v2du) ((x) != (x)))
#define f2_quiet(x) ((v2df) ((v2du) (x) | FM_QUIET))
FM_TANH(, fm_tanh2, f2)

static void fm_tanh_128(const double *src, double *dst, intnat n)
{
  intnat i = 0;
  for (; i + 2 <= n; i += 2) vstore(dst + i, fm_tanh2(vload(src + i)));
  for (; i < n; i++) dst[i] = fm_tanh1(src[i]);
}
#else
static void fm_tanh_128(const double *src, double *dst, intnat n)
{
  for (intnat i = 0; i < n; i++) dst[i] = fm_tanh1(src[i]);
}
#endif

#ifdef PNN_HAVE_WIDE
typedef v4df f4_t;
typedef v4du f4_m;
#define f4_lt(a, b) ((v4du) ((a) < (b)))
#define f4_ge(a, b) ((v4du) ((a) >= (b)))
#define f4_sel(m, p, q) ((v4df) (((m) & (v4du) (p)) | (~(m) & (v4du) (q))))
#define f4_splat(c) ((v4df) { c, c, c, c })
#define f4_abs(x) ((v4df) ((v4du) (x) & ~FM_SIGN))
#define f4_signed(h, x) ((v4df) ((v4du) (h) | ((v4du) (x) & FM_SIGN)))
#define f4_pow2(ks) ((v4df) (((v4du) (ks) - FM_SHIFT_BITS + 1023) << 52))
#define f4_isnan(x) ((v4du) ((x) != (x)))
#define f4_quiet(x) ((v4df) ((v4du) (x) | FM_QUIET))
FM_TANH(PNN_WIDE, fm_tanh4, f4)

PNN_WIDE static void fm_tanh_256(const double *src, double *dst, intnat n)
{
  intnat i = 0;
  for (; i + 4 <= n; i += 4)
    *(v4df_u *) (dst + i) = fm_tanh4(*(const v4df_u *) (src + i));
  for (; i < n; i++) dst[i] = fm_tanh1(src[i]);
}
#endif

/* The array body in use: the 128-bit one until pnn_fm_use_wide says
 * otherwise (pnn_kernels_stubs.c calls it from the constructor that picks
 * the matmul tiles, and from pnn_c_set_wide_tiles). */
static fm_array_fn *fm_tanh_array = fm_tanh_128;

void pnn_fm_use_wide(int wide)
{
#ifdef PNN_HAVE_WIDE
  fm_tanh_array = wide ? fm_tanh_256 : fm_tanh_128;
#else
  (void) wide;
#endif
}

void pnn_fm_tanh_n(const double *src, double *dst, intnat n)
{
  fm_tanh_array(src, dst, n);
}

/* ---------------------------------------------------------------- */
/* OCaml entry points (lib/tensor/fmath.ml)                          */
/* ---------------------------------------------------------------- */

CAMLprim double pnn_fm_tanh(double x)
{
  return fm_tanh1(x);
}
CAMLprim value pnn_fm_tanh_byte(value vx)
{
  return caml_copy_double(pnn_fm_tanh(Double_val(vx)));
}

/* In place over a float array: a flat block of doubles (the flat
 * float-array runtime the kernels assume), whose length is its size in
 * words over Double_wosize; the empty array is the size-0 atom. */
CAMLprim value pnn_fm_tanh_array(value va)
{
  double *a = (double *) va;
  pnn_fm_tanh_n(a, a, (intnat) (Wosize_val(va) / Double_wosize));
  return Val_unit;
}
CAMLprim value pnn_fm_tanh_array_byte(value va)
{
  return pnn_fm_tanh_array(va);
}
