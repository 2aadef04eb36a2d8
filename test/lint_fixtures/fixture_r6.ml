(* R6 fixture: backend-internal storage access outside lib/tensor. *)
let bad () = Kernels_ref.create 4

(* pnnlint:allow R6 fixture: tooling that genuinely needs the raw buffer *)
let ok () = Tensor_backend.tag backend

let bad_c () = Kernels_c.scale 2.0 buf
