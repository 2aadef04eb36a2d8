(* R7 fixture: fork sites, one bare and one waived, next to a spawn that
   shares Fixture_r7_state across domains. *)
let spawn () = Domain.spawn (fun () -> Fixture_r7_state.bump ())

let bad_fork () = Unix.fork ()

(* pnnlint:allow R7 fixture: called before any domain is spawned *)
let ok_fork () = Unix.fork ()
