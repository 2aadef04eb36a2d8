(* The tools' wall clock: elapsed-time lines and loadgen's request
   timestamps.  Every reading is printed and none feeds a result or a cache
   key, so this is the one wall-clock read in bin/. *)

(* pnnlint:allow R2 timings are printed only: no result, CSV or cache key
   reads them *)
let now () = Unix.gettimeofday ()
