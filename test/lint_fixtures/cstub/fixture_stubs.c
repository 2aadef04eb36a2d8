/* R8 fixture stubs: twin/arity/noalloc/float-contract violations plus a
   suppressed negative; paired with fixture_kernels.ml. */
#include <caml/mlvalues.h>
#include <caml/alloc.h>
#include <math.h>

CAMLprim value fix_ok_add(value va, value vb, intnat n)
{
  (void) va; (void) vb; (void) n;
  return Val_unit;
}
CAMLprim value fix_ok_add_byte(value va, value vb, value vn)
{
  return fix_ok_add(va, vb, Long_val(vn));
}

CAMLprim value fix_bad_twin(value va, intnat n)
{
  (void) va; (void) n;
  return Val_unit;
}
CAMLprim value fix_bad_twin_bytecode(value va, value vn)
{
  return fix_bad_twin(va, Long_val(vn));
}

CAMLprim value fix_bad_arity(value va, intnat n, intnat extra)
{
  (void) va; (void) n; (void) extra;
  return Val_unit;
}
CAMLprim value fix_bad_arity_byte(value va, value vn, value vextra)
{
  return fix_bad_arity(va, Long_val(vn), Long_val(vextra));
}

static value box_unit_helper(void)
{
  return caml_copy_double(0.0);
}
CAMLprim value fix_bad_alloc(value va)
{
  (void) va;
  return box_unit_helper();
}
CAMLprim value fix_bad_alloc_byte(value va)
{
  return fix_bad_alloc(va);
}

CAMLprim value fix_bad_single(value va)
{
  (void) va;
  return Val_unit;
}

CAMLprim value fix_uses_fma(value va, intnat n)
{
  double *a = (double *) va;
  for (intnat i = 0; i < n; i++) a[i] = fma(a[i], 2.0, 1.0);
  return Val_unit;
}
CAMLprim value fix_uses_fma_byte(value va, value vn)
{
  return fix_uses_fma(va, Long_val(vn));
}

CAMLprim value fix_uses_libm(value va, intnat n)
{
  double *a = (double *) va;
  for (intnat i = 0; i < n; i++) a[i] = tanh(sin(a[i]));
  return Val_unit;
}
CAMLprim value fix_uses_libm_byte(value va, value vn)
{
  return fix_uses_libm(va, Long_val(vn));
}

CAMLprim value fix_ok_fma(value va, intnat n)
{
  double *a = (double *) va;
  /* pnnlint:allow R8 fixture: constant arguments, result is bit-pinned */
  for (intnat i = 0; i < n; i++) a[i] = fma(1.0, 2.0, 3.0);
  return Val_unit;
}
CAMLprim value fix_ok_fma_byte(value va, value vn)
{
  return fix_ok_fma(va, Long_val(vn));
}

CAMLprim value fix_orphan(value va)
{
  (void) va;
  return Val_unit;
}

#pragma STDC FP_CONTRACT ON

__attribute__((optimize("fast-math"))) static double spoiled(double x)
{
  return x + 1.0;
}
