(* R6 fixture: raw kernel access outside lib/tensor. *)
let bad () = Kernels_c.create 4

(* pnnlint:allow R6 fixture: tooling that genuinely needs the raw buffer *)
let ok () = Kernels_c.to_float_array buf

let bad_c () = Kernels_c.scale 2.0 buf
