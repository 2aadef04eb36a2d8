(* R7 fixture: module-level state in a unit that nothing references and
   that never mentions a domain. *)
let lonely = ref 0
let touch () = incr lonely
