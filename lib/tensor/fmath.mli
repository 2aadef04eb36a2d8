(** tanh as a function of this source, not of the host's libm.

    The C body (fmath_stubs.c) is one fixed sequence of IEEE operations
    compiled under the stub contract (no libm call, no FMA,
    [-ffp-contract=off]): expm1 by Cody–Waite reduction and a degree-14
    polynomial, then [−t/(t+2)] below [|x| = 1] and [1 − 2/(t+2)] above.
    Within 4 ulp of glibc's [tanh] (test/test_fmath.ml measures the sweep);
    exact on the special cases: [±0 → ±0], subnormal [x → x],
    [|x| ≥ 22] and [±inf → ±1], NaN → the same NaN quieted, sign kept, and
    [tanh (−x) = −tanh x] bit for bit.

    Three bodies share that source: scalar ({!tanh}), 128-bit and 256-bit
    (AVX2); the array entry point and the tensor kernels run the 256-bit
    body where the CPU has AVX2 and the 128-bit one elsewhere
    ([Kernels_c.set_wide_tiles] switches it for the tests).  All three give
    every element the same bits. *)

(* SAFETY: a double in, a double out; no buffer. *)
external tanh : (float[@unboxed]) -> (float[@unboxed])
  = "pnn_fm_tanh_byte" "pnn_fm_tanh"
[@@noalloc]
(** [tanh x], the scalar body. *)

(* SAFETY: rewrites the array's own elements, its length read from the
   block header (see fmath.ml). *)
external tanh_array : float array -> unit
  = "pnn_fm_tanh_array_byte" "pnn_fm_tanh_array"
[@@noalloc]
(** [tanh_array a] replaces every element of [a] by its [tanh], in place,
    through the vector body in use; bit for bit [Array.map tanh]. *)
