(* R9 fixture: the line codec itself may parse bare words. *)
let int_field w = int_of_string w
