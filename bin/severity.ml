(* Severity flags: a float that anchors variation models.  A value that makes
   any of the models ill-formed by Pnn.Variation.validate (NaN included) is a
   usage error naming the flag, raised before the command runs. *)

open Cmdliner

let check models =
  match List.iter Pnn.Variation.validate models with
  | () -> Ok ()
  | exception Invalid_argument msg -> Error msg

(* [conv models] parses a float [x] and accepts it when [models x] are all
   well formed. *)
let conv models =
  let parse s =
    Result.bind (Arg.conv_parser Arg.float s) (fun x ->
        match check (models x) with Ok () -> Ok x | Error msg -> Error (`Msg msg))
  in
  Arg.conv (parse, Arg.conv_printer Arg.float)

(* the fault table's anchor: every family it trains and tests *)
let fault_anchor = conv (fun e -> List.map snd (Experiments.Faults.families e))
