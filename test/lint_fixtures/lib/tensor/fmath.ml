(* R10 fixture: Fmath's own file may name libm's tanh. *)
let libm x = Stdlib.tanh x
