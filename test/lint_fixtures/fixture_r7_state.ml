(* R7 fixture: module-level mutable state, bare and waived, in a unit a
   domain spawner (fixture_r7) uses. *)
let table = Hashtbl.create 16
let hits = ref 0

(* pnnlint:allow R7 fixture: filled before any domain is spawned *)
let preloaded = ref []

type shared = { mutable count : int; label : string }

(* pnnlint:allow R7 fixture: each cursor is owned by a single domain *)
type cursor = { mutable pos : int }

type mediated = { lock : Mutex.t; mutable inside : int }

let bump () = incr hits
