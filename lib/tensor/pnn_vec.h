/* Shared by the two stub files of the tensor library: the portable vector
 * types the kernels and Fmath's bodies are written in, and the Fmath entry
 * points the kernels call (fmath_stubs.c). */

#ifndef PNN_VEC_H
#define PNN_VEC_H

#define CAML_NAME_SPACE
#include <caml/mlvalues.h>
#include <stdint.h>

#if defined(__GNUC__) || defined(__clang__)
/* 2-lane double vector — the width every mainstream double-SIMD target
 * supports natively (SSE2, NEON, VSX, z13), so GCC/Clang map it straight to
 * registers instead of running the generic-vector lowering pass, which
 * round-trips oversized vectors through the stack.  The naturally-aligned
 * type is the only one used for arithmetic; the aligned(8) twin exists
 * solely to express unaligned loads/stores of row slices — putting
 * aligned(8) on the arithmetic type itself also forces stack spills.
 * v2du is the same 128 bits read as two unsigned 64-bit lanes. */
typedef double v2df __attribute__((vector_size(16)));
typedef double v2df_u __attribute__((vector_size(16), aligned(8)));
typedef uint64_t v2du __attribute__((vector_size(16)));
static inline v2df vload(const double *p) { return *(const v2df_u *) p; }
static inline void vstore(double *p, v2df v) { *(v2df_u *) p = v; }
#define PNN_HAVE_VEC 1
/* For a body that takes a mode flag: inlined at each call site, where the
 * flag is a constant, it compiles to one specialised copy per mode. */
#define PNN_SPECIALISE static inline __attribute__((always_inline))
#if defined(__x86_64__)
/* The 4-lane twins, used only inside functions compiled for AVX2
 * (PNN_WIDE), which run only where the CPU has it: see mm_tiles in
 * pnn_kernels_stubs.c. */
typedef double v4df __attribute__((vector_size(32)));
typedef double v4df_u __attribute__((vector_size(32), aligned(8)));
typedef uint64_t v4du __attribute__((vector_size(32)));
#define PNN_WIDE __attribute__((target("avx2")))
#define PNN_HAVE_WIDE 1
#endif
#else
#define PNN_SPECIALISE static inline
#endif

/* dst[i] := tanh(src[i]) for i < n through the body in use (dst may be
 * src); every body gives the bits of Fmath's scalar tanh. */
void pnn_fm_tanh_n(const double *src, double *dst, intnat n);

/* Selects the 256-bit body when [wide] is set (the caller has checked the
 * CPU), the 128-bit body otherwise. */
void pnn_fm_use_wide(int wide);

#endif
