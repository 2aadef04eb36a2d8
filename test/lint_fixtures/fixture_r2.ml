(* R2 fixture: wall clocks + global Random in a unit nothing references. *)
let now () = Unix.gettimeofday ()
let draw () = Random.float 1.0
let stamp () = Unix.time ()

(* pnnlint:allow R2 fixture: timing for a log line only *)
let logged () = Sys.time ()

(* pnnlint:allow R2 fixture: picks a timeout, never a result *)
let linger_left t = t -. Unix.time ()
