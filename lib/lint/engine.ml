(* pnnlint driver: walk the tree, run the rules, apply suppressions.

   Suppression syntax, checked here rather than in the rules so every rule
   gets it uniformly:

     (* pnnlint:allow R3 reason why the order cannot escape *)

   A suppression covers findings of the listed rules on any line the comment
   spans plus the following line (so it can sit above or at the end of the
   offending line).  Suppressions without a rule id or without a reason are
   themselves findings (S1): a waiver must say what it waives and why. *)

type config = {
  scan_dirs : string list;  (* relative to the root *)
  exclude : string list;  (* path substrings to skip, e.g. fixture dirs *)
  r2_roots : string list;  (* units whose dep closure R2 applies to *)
  r7_seeds : string list;  (* module names whose referencers seed R7 *)
  fork_allowed : string list;  (* units that may call Unix.fork (R7) *)
  cstub_pairs : (string * string * string) list;
      (* R8 stub pairs: C file, OCaml externals file, dune file — relative
         to the root *)
}

let default_config =
  {
    scan_dirs = [ "lib"; "bin"; "test" ];
    exclude = [ "lint_fixtures" ];
    (* cache keys: Cache, Serialize, Checkpoint; results: the experiment and
       evaluation stack.  The serving path is result-producing too — a
       response payload is a result, and BENCH_5.json is committed — so the
       Serving library and its CLIs are roots as well.  Everything those
       units can reach inherits R2. *)
    r2_roots =
      [
        "Cache";
        "Serialize";
        "Checkpoint";
        "Evaluation";
        "Training";
        "Table2";
        "Table3";
        "Ablations";
        "Faults";
        "Lifetime";
        "Report";
        "Serving";
        "Serve";
        "Loadgen";
        (* the sharded orchestrator publishes cache entries and assembles
           the committed tables, so its whole closure (library + CLI) is
           result-producing; wall clocks there may only drive the lease
           protocol or progress reporting, under reasoned allows *)
        "Orchestration";
        "Orchestrate";
      ];
    (* R7's closure is seeded by auto-detection: any scanned module that
       mentions one of these names spawns (or coordinates) domains, so
       everything reachable from it is shared-state territory. *)
    r7_seeds = [ "Domain"; "Parallel"; "Coordinator"; "Thread" ];
    (* the orchestrator's Coordinator forks workers behind a pre-domain
       latch (Parallel.require_sequential); nobody else may fork *)
    fork_allowed = [ "Coordinator" ];
    cstub_pairs =
      [
        ( "lib/tensor/pnn_kernels_stubs.c",
          "lib/tensor/kernels_c.ml",
          "lib/tensor/dune" );
        ("lib/tensor/fmath_stubs.c", "lib/tensor/fmath.ml", "lib/tensor/dune");
      ];
  }

type suppression = {
  sup_path : string;
  rules : string list;
  reason : string;
  first_covered : int;
  last_covered : int;
}

type report = {
  findings : Rules.finding list;  (* unsuppressed: these fail the gate *)
  suppressed : Rules.finding list;
  files_scanned : int;
}

(* {2 Tree walking} *)

(* The tree can change while it is walked (a test that writes a file next
   to the sources may delete it again), and a dangling symlink has no
   target to stat: an entry that cannot be stat'ed, or a directory that
   cannot be read, counts as absent. *)
let rec walk dir acc =
  match Sys.readdir dir with
  | exception Sys_error _ -> acc
  | entries ->
      Array.fold_left
        (fun acc entry ->
          let p = Filename.concat dir entry in
          match Sys.is_directory p with
          | exception Sys_error _ -> acc
          | true ->
              if entry = "_build" || (String.length entry > 0 && entry.[0] = '.')
              then acc
              else walk p acc
          | false -> p :: acc)
        acc entries

let excluded config path =
  List.exists (fun s -> Deps.find_substring path s <> None) config.exclude

let source_files config root =
  let dirs = List.map (Filename.concat root) config.scan_dirs in
  let all = List.concat_map (fun d -> walk d []) dirs in
  all
  |> List.filter (fun p ->
         (Filename.check_suffix p ".ml" || Filename.check_suffix p ".mli")
         && not (excluded config p))
  |> List.sort String.compare

let dune_files config root =
  let dirs = List.map (Filename.concat root) config.scan_dirs in
  let all = List.concat_map (fun d -> walk d []) dirs in
  all
  |> List.filter (fun p -> Filename.basename p = "dune")
  |> List.sort String.compare

(* {2 Suppressions} *)

(* A suppression comment must *start* with the marker (mentions of the
   syntax in prose, like the header of this very file, don't count). *)
let parse_suppression path (c : Source.comment) =
  let text = String.trim c.Source.text in
  let marker = "pnnlint:allow" in
  if
    String.length text < String.length marker
    || String.sub text 0 (String.length marker) <> marker
  then None
  else
    let rest =
      String.sub text (String.length marker)
        (String.length text - String.length marker)
    in
      let words =
        String.split_on_char ' ' (String.trim rest)
        |> List.concat_map (String.split_on_char ',')
        |> List.filter (fun w -> w <> "")
      in
      let is_rule w =
        String.length w >= 2
        && w.[0] = 'R'
        && String.for_all (fun ch -> ch >= '0' && ch <= '9')
             (String.sub w 1 (String.length w - 1))
      in
      let rec span rules = function
        | w :: tl when is_rule w -> span (w :: rules) tl
        | rest -> (List.rev rules, rest)
      in
      let rules, reason_words = span [] words in
      Some
        {
          sup_path = path;
          rules;
          reason = String.concat " " reason_words;
          first_covered = c.Source.start_line;
          last_covered = c.Source.end_line + 1;
        }

let suppresses s (f : Rules.finding) =
  s.sup_path = f.Rules.path
  && List.mem f.Rules.rule s.rules
  && f.Rules.line >= s.first_covered
  && f.Rules.line <= s.last_covered

(* {2 Run} *)

let normalize path =
  if String.length path > 2 && String.sub path 0 2 = "./" then
    String.sub path 2 (String.length path - 2)
  else path

let run ?(config = default_config) ~root () =
  let files =
    List.map
      (fun p -> { (Source.load_cached p) with Source.path = normalize p })
      (source_files config root)
  in
  let libs = List.filter_map Deps.scan_dune_file (dune_files config root) in
  let libs =
    List.map (fun (l : Deps.lib) -> { l with Deps.dir = normalize l.Deps.dir }) libs
  in
  let graph = Deps.build_graph ~libs files in
  let r2_closure = Deps.closure graph ~roots:config.r2_roots in
  let r7_closure =
    (* roots: every scanned unit that mentions a seed name, plus the seeds
       themselves (so the Parallel/Coordinator libraries are covered even
       when nothing in the scan set references them) *)
    Deps.closure graph
      ~roots:
        (Deps.referencing_units graph ~names:config.r7_seeds
        @ config.r7_seeds)
  in
  let module SS = Set.Make (String) in
  let in_closure closure (f : Source.file) =
    match f.Source.kind with
    | Source.Ml -> SS.mem f.Source.path closure
    | Source.Mli ->
        (* an interface shares its implementation's obligations *)
        SS.mem (Filename.remove_extension f.Source.path ^ ".ml") closure
  in
  let all_findings = ref [] in
  let all_sups = ref [] in
  let take_suppressions path comments =
    List.iter
      (fun c ->
        match parse_suppression path c with
        | None -> ()
        | Some s ->
            if s.rules = [] || s.reason = "" then
              all_findings :=
                {
                  Rules.rule = "S1";
                  path;
                  line = s.first_covered;
                  msg =
                    "suppression must list rule ids and a non-empty \
                     reason: pnnlint:allow R<n> <why>";
                }
                :: !all_findings
            else all_sups := s :: !all_sups)
      comments
  in
  List.iter
    (fun (f : Source.file) ->
      (match f.Source.parse_error with
      | Some (line, msg) ->
          all_findings :=
            { Rules.rule = "P0"; path = f.Source.path; line; msg }
            :: !all_findings
      | None -> ());
      let ctx =
        {
          Rules.file = f;
          r2_applies = in_closure r2_closure f;
          r7_applies = in_closure r7_closure f;
          fork_allowed = config.fork_allowed;
        }
      in
      all_findings := Rules.run ctx @ !all_findings;
      take_suppressions f.Source.path f.Source.comments)
    files;
  (* R8: registered C-stub pairs (cross-language, so outside the per-file
     loop; C-side comments join the same suppression pass) *)
  List.iter
    (fun (c_rel, ml_rel, dune_rel) ->
      let full rel = Filename.concat root rel in
      let c_path = normalize (full c_rel) in
      let dune_path = normalize (full dune_rel) in
      let ml_path = normalize (full ml_rel) in
      let ml =
        match
          List.find_opt (fun f -> f.Source.path = ml_path) files
        with
        | Some f -> f
        | None ->
            { (Source.load_cached (full ml_rel)) with Source.path = ml_path }
      in
      let findings, c_comments =
        Cstub.analyze ~c_path ~c_file:(full c_rel) ~ml ~dune_path
          ~dune_file:(full dune_rel) ()
      in
      all_findings := findings @ !all_findings;
      take_suppressions c_path c_comments)
    config.cstub_pairs;
  let suppressed, findings =
    List.partition
      (fun f -> List.exists (fun s -> suppresses s f) !all_sups)
      (List.rev !all_findings)
  in
  let by_site (a : Rules.finding) (b : Rules.finding) =
    match String.compare a.Rules.path b.Rules.path with
    | 0 -> (
        match Int.compare a.Rules.line b.Rules.line with
        | 0 -> String.compare a.Rules.rule b.Rules.rule
        | c -> c)
    | c -> c
  in
  {
    findings = List.sort by_site findings;
    suppressed;
    files_scanned = List.length files;
  }

(* {2 Rendering} *)

let render_finding (f : Rules.finding) =
  Printf.sprintf "%s:%d: [%s] %s" f.Rules.path f.Rules.line f.Rules.rule
    f.Rules.msg

let render_report r =
  let b = Buffer.create 1024 in
  List.iter
    (fun f -> Buffer.add_string b (render_finding f ^ "\n"))
    r.findings;
  Buffer.add_string b
    (Printf.sprintf
       "pnnlint: %d file(s), %d finding(s), %d suppressed\n"
       r.files_scanned (List.length r.findings) (List.length r.suppressed));
  Buffer.contents b
