(* R10 fixture: libm's tanh in lib/ outside Fmath. *)
let bare x = tanh x
let stdlib x = Stdlib.tanh x
let float x = Float.tanh x

(* pnnlint:allow R10 fixture: a comparison against libm itself *)
let waived x = Stdlib.tanh x

let fine x = Fmath.tanh x
