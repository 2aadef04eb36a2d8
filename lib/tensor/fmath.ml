(* tanh defined by this repository's source (fmath_stubs.c): a fixed IEEE
   operation sequence with no libm call, so its bits do not depend on the
   host's libm or CPU dispatch.  Every tanh in lib/ goes through here
   (pnnlint R10). *)

(* SAFETY: takes and returns an unboxed double and touches no buffer. *)
external tanh : (float[@unboxed]) -> (float[@unboxed])
  = "pnn_fm_tanh_byte" "pnn_fm_tanh"
[@@noalloc]

(* SAFETY: the stub reads the length from the block header (its size in
   words over Double_wosize; the empty array's is 0) and rewrites indices
   0..length-1 in place; a float array is a flat block of doubles. *)
external tanh_array : float array -> unit
  = "pnn_fm_tanh_array_byte" "pnn_fm_tanh_array"
[@@noalloc]
