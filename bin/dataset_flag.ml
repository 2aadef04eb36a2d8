(* Dataset flags: a name outside Datasets.Bench13.names is a usage error
   that names it and lists the known ones, raised before the command runs
   (Bench13.load itself raises a bare Not_found). *)

open Cmdliner

let known = Datasets.Bench13.names

let check name =
  if List.mem name known then Ok name
  else
    Error
      (`Msg (Printf.sprintf "unknown dataset %S (known: %s)" name (String.concat ", " known)))

(* one benchmark name *)
let name = Arg.conv (check, Format.pp_print_string)

(* A comma-separated list of names, empty entries skipped, or "all" for
   every benchmark. *)
let names =
  let parse = function
    | "all" -> Ok known
    | s -> (
        let rec each acc = function
          | [] -> Ok (List.rev acc)
          | n :: rest -> Result.bind (check n) (fun n -> each (n :: acc) rest)
        in
        match List.filter (fun n -> n <> "") (String.split_on_char ',' s) with
        | [] -> Error (`Msg "no dataset named")
        | l -> each [] l)
  in
  let print ppf l =
    Format.pp_print_string ppf (if l = known then "all" else String.concat "," l)
  in
  Arg.conv (parse, print)
