(* Name flags: a value outside a known list of names is a usage error that
   names the flag and the value and lists the known names, raised before
   the command runs (cmdliner exits 124). *)

open Cmdliner

let check ~what known name =
  if List.mem name known then Ok name
  else
    Error
      (`Msg
        (Printf.sprintf "unknown %s %S (known: %s)" what name
           (String.concat ", " known)))

(* one name *)
let one ~what known = Arg.conv (check ~what known, Format.pp_print_string)

(* A comma-separated list of names, empty entries skipped, or "all" for
   every known name. *)
let list ~what known =
  let parse = function
    | "all" -> Ok known
    | s -> (
        let rec each acc = function
          | [] -> Ok (List.rev acc)
          | n :: rest ->
              Result.bind (check ~what known n) (fun n -> each (n :: acc) rest)
        in
        match List.filter (fun n -> n <> "") (String.split_on_char ',' s) with
        | [] -> Error (`Msg ("no " ^ what ^ " named"))
        | l -> each [] l)
  in
  let print ppf l =
    Format.pp_print_string ppf (if l = known then "all" else String.concat "," l)
  in
  Arg.conv (parse, print)

(* Benchmark datasets (Bench13.load itself raises a bare Not_found). *)
let dataset = one ~what:"dataset" Datasets.Bench13.names
let datasets = list ~what:"dataset" Datasets.Bench13.names
