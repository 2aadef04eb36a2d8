(* pnnlint: repo-invariant static analyzer.

   Example:
     dune exec bin/lint_tool.exe -- check --root .

   `check` prints every unsuppressed finding and one summary line, and
   exits 1 when a finding remains or when it scanned no file (a gate
   pointed at the wrong root must not pass).  `dune build @lint` wires it
   into the default test gate. *)

open Cmdliner

let cmd_check root =
  let report = Pnnlint.Engine.run ~root () in
  print_string (Pnnlint.Engine.render_report report);
  if report.Pnnlint.Engine.files_scanned = 0 then begin
    Printf.eprintf "pnnlint: no source file under %s\n" root;
    exit 1
  end;
  if report.Pnnlint.Engine.findings <> [] then exit 1

let root_arg =
  Arg.(
    value
    & opt string "."
    & info [ "root" ] ~doc:"repository root to scan (default: cwd)")

let check_cmd =
  Cmd.v
    (Cmd.info "check" ~doc:"scan the tree and fail on any unsuppressed finding")
    Term.(const cmd_check $ root_arg)

let () =
  let info =
    Cmd.info "lint_tool" ~doc:"pnnlint — repo-invariant static analyzer"
  in
  exit (Cmd.eval (Cmd.group info [ check_cmd ]))
