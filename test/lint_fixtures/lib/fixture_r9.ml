(* R9 fixture: bare string parses in lib/ outside the line codec. *)
let bad_int w = int_of_string w
let bad_float w = Stdlib.float_of_string w

(* pnnlint:allow R9 fixture: a word this module produced itself *)
let ok_bool w = bool_of_string w

let fine w = int_of_string_opt w
