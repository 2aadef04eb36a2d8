(* pnnlint rule fixtures: each rule has a positive site (must be found) and a
   suppressed negative (must be counted, not reported).  The fixtures live in
   lint_fixtures/ (data_only_dirs: never compiled) and only need to parse. *)

module E = Pnnlint.Engine
module R = Pnnlint.Rules

let fixture_config =
  {
    E.scan_dirs = [ "lint_fixtures" ];
    exclude = [];
    (* three root families, like the live config: the experiment stack,
       the serving stack and the orchestration stack *)
    r2_roots =
      [ "Fixture_r2_root"; "Fixture_r2_serve"; "Fixture_r2_orchestrate" ];
    (* R7 seeds are the live defaults: fixture_r7 mentions Domain, so it is
       picked up by auto-detection like real spawning code *)
    r7_seeds = [ "Domain"; "Parallel"; "Coordinator"; "Thread" ];
    fork_allowed = [ "Coordinator" ];
    cstub_pairs =
      [
        ( "lint_fixtures/cstub/fixture_stubs.c",
          "lint_fixtures/cstub/fixture_kernels.ml",
          "lint_fixtures/cstub/fixture_dune_ok" );
        ( "lint_fixtures/cstub/fixture_badflags.c",
          "lint_fixtures/cstub/fixture_badflags_kernels.ml",
          "lint_fixtures/cstub/fixture_dune_bad" );
      ];
  }

let run_fixtures ?(config = fixture_config) () = E.run ~config ~root:"." ()

let site (f : R.finding) = Printf.sprintf "%s %s:%d" f.R.rule f.R.path f.R.line

let compare_sites (pa, la) (pb, lb) =
  match String.compare pa pb with 0 -> Int.compare la lb | c -> c

let test_golden_diagnostics () =
  let report = run_fixtures () in
  let p0, rest =
    List.partition (fun (f : R.finding) -> f.R.rule = "P0") report.E.findings
  in
  let expected =
    [
      "R1 lint_fixtures/fixture_r1.ml:2";
      "R2 lint_fixtures/fixture_r2.ml:2";
      "R2 lint_fixtures/fixture_r2.ml:3";
      "R2 lint_fixtures/fixture_r2_serve.ml:4";
      "R2 lint_fixtures/fixture_r2_orchestrate.ml:4";
      "R3 lint_fixtures/fixture_r3.ml:2";
      "R3 lint_fixtures/fixture_r3.ml:3";
      "R4 lint_fixtures/fixture_r4.ml:2";
      "R4 lint_fixtures/fixture_r4.ml:11";
      "R4 lint_fixtures/lib/tensor/fixture_r4_stub.ml:4";
      "R5 lint_fixtures/fixture_r5.ml:2";
      "R6 lint_fixtures/fixture_r6.ml:2";
      "R6 lint_fixtures/fixture_r6.ml:7";
      (* R9: bare parses in lib/, not the codec's own file *)
      "R9 lint_fixtures/lib/fixture_r9.ml:2";
      "R9 lint_fixtures/lib/fixture_r9.ml:3";
      (* R10: libm's tanh in lib/, not Fmath's own file *)
      "R10 lint_fixtures/lib/fixture_r10.ml:2";
      "R10 lint_fixtures/lib/fixture_r10.ml:3";
      "R10 lint_fixtures/lib/fixture_r10.ml:4";
      "R5 lint_fixtures/fixture_r5.ml:3";
      "S1 lint_fixtures/fixture_s1.ml:2";
      "R5 lint_fixtures/fixture_s1.ml:3";
      (* R7: fork outside the latch + module-level mutable state in the
         closure of the Domain-mentioning fixture *)
      "R7 lint_fixtures/fixture_r7.ml:5";
      "R7 lint_fixtures/fixture_r7_state.ml:3";
      "R7 lint_fixtures/fixture_r7_state.ml:4";
      "R7 lint_fixtures/fixture_r7_state.ml:9";
      (* R8 pair 1: twin/arity/single-name on the OCaml side; noalloc
         violation, fma, stray libm, orphan, pragma and attribute on the C
         side *)
      "R8 lint_fixtures/cstub/fixture_kernels.ml:10";
      "R8 lint_fixtures/cstub/fixture_kernels.ml:15";
      "R8 lint_fixtures/cstub/fixture_kernels.ml:24";
      (* cascade of the seeded arity bug: the byte twin's shape no longer
         matches the declared arity either *)
      "R8 lint_fixtures/cstub/fixture_stubs.c:32";
      "R8 lint_fixtures/cstub/fixture_stubs.c:39";
      "R8 lint_fixtures/cstub/fixture_stubs.c:60";
      "R8 lint_fixtures/cstub/fixture_stubs.c:71";
      (* tanh is off the libm allowlist: Fmath's, not libm's *)
      "R8 lint_fixtures/cstub/fixture_stubs.c:71";
      "R8 lint_fixtures/cstub/fixture_stubs.c:91";
      "R8 lint_fixtures/cstub/fixture_stubs.c:97";
      "R8 lint_fixtures/cstub/fixture_stubs.c:99";
      (* R8 pair 2: both contract flags missing from the dune stanza, and
         the multiply-add line reported as a contraction risk *)
      "R8 lint_fixtures/cstub/fixture_dune_bad:1";
      "R8 lint_fixtures/cstub/fixture_dune_bad:1";
      "R8 lint_fixtures/cstub/fixture_badflags.c:10";
    ]
  in
  Alcotest.(check (list string))
    "every rule fires at its seeded site"
    (List.sort String.compare expected)
    (List.sort String.compare (List.map site rest));
  match p0 with
  | [ f ] ->
      Alcotest.(check string)
        "parse failure reported as P0" "lint_fixtures/fixture_p0.ml" f.R.path
  | other -> Alcotest.failf "expected exactly one P0, got %d" (List.length other)

let test_suppressions_counted () =
  let report = run_fixtures () in
  Alcotest.(check int) "fifteen suppressed findings" 15
    (List.length report.E.suppressed);
  Alcotest.(check int) "fifteen valid suppression comments" 15
    (List.length report.E.suppressions);
  List.iter
    (fun (s : E.suppression) ->
      if s.E.reason = "" then
        Alcotest.failf "suppression without reason at %s:%d" s.E.sup_path
          s.E.sup_line)
    report.E.suppressions;
  (* the malformed one in fixture_s1 must not have silenced its finding *)
  let r5_s1 =
    List.exists
      (fun (f : R.finding) ->
        f.R.rule = "R5" && f.R.path = "lint_fixtures/fixture_s1.ml")
      report.E.findings
  in
  Alcotest.(check bool) "reasonless suppression suppresses nothing" true r5_s1

let test_safety_comments_tracked () =
  let report = run_fixtures () in
  Alcotest.(check (list (pair string int)))
    "SAFETY sites"
    [
      ("lint_fixtures/fixture_r4.ml", 5);
      ("lint_fixtures/fixture_r4.ml", 14);
      ("lint_fixtures/lib/tensor/fixture_r4_stub.ml", 6);
    ]
    (List.sort compare_sites
       (List.map (fun (path, line, _) -> (path, line)) report.E.safety))

let test_r2_needs_reachability () =
  (* with a root that cannot reach Fixture_r2, the wall-clock calls are not
     in any result-producing closure and R2 must stay silent *)
  let config = { fixture_config with E.r2_roots = [ "Fixture_r1" ] } in
  let report = run_fixtures ~config () in
  let r2 =
    List.filter (fun (f : R.finding) -> f.R.rule = "R2") report.E.findings
  in
  Alcotest.(check int) "no R2 outside the closure" 0 (List.length r2)

let test_r7_needs_reachability () =
  (* with seeds nothing references, no module is in the domain closure and
     only the closure-independent fork check may fire *)
  let config = { fixture_config with E.r7_seeds = [ "Fixture_no_such" ] } in
  let report = run_fixtures ~config () in
  let r7 =
    List.filter (fun (f : R.finding) -> f.R.rule = "R7") report.E.findings
  in
  Alcotest.(check (list string))
    "only the fork finding survives without reachability"
    [ "R7 lint_fixtures/fixture_r7.ml:5" ]
    (List.map site r7)

let test_rule_catalogue () =
  Alcotest.(check (list string))
    "ten documented rules"
    [ "R1"; "R2"; "R3"; "R4"; "R5"; "R6"; "R7"; "R8"; "R9"; "R10" ]
    (List.map (fun (r : R.rule_info) -> r.R.id) R.all_rules)

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let test_json_output () =
  let report = run_fixtures () in
  let js = E.render_json report in
  Alcotest.(check bool) "json carries a known finding" true
    (contains
       ~needle:
         {|{"rule":"R7","path":"lint_fixtures/fixture_r7.ml","line":5|}
       js);
  Alcotest.(check bool) "json carries suppression records" true
    (contains ~needle:{|"suppressions":[{|} js);
  Alcotest.(check bool) "json is a single terminated document" true
    (String.length js > 2 && js.[String.length js - 1] = '\n')

let test_stats_golden () =
  let report = run_fixtures () in
  let expected =
    {|{"files_scanned":21,"rules":[{"id":"R1","findings":1,"suppressed":1,"allows":1},{"id":"R2","findings":4,"suppressed":3,"allows":3},{"id":"R3","findings":2,"suppressed":1,"allows":1},{"id":"R4","findings":3,"suppressed":2,"allows":2},{"id":"R5","findings":3,"suppressed":1,"allows":1},{"id":"R6","findings":2,"suppressed":1,"allows":1},{"id":"R7","findings":4,"suppressed":3,"allows":3},{"id":"R8","findings":14,"suppressed":1,"allows":1},{"id":"R9","findings":2,"suppressed":1,"allows":1},{"id":"R10","findings":3,"suppressed":1,"allows":1},{"id":"S1","findings":1,"suppressed":0,"allows":0},{"id":"P0","findings":1,"suppressed":0,"allows":0}],"totals":{"findings":40,"suppressed":15,"suppression_comments":15,"safety_comments":3}}
|}
  in
  Alcotest.(check string) "stats json is byte-stable" expected
    (E.render_stats_json report)

let test_render_shapes () =
  let report = run_fixtures () in
  let rendered = E.render_report report in
  Alcotest.(check bool) "summary line present" true
    (String.length rendered > 0
    && List.exists
         (fun l ->
           String.length l >= 8 && String.sub l 0 8 = "pnnlint:")
         (String.split_on_char '\n' rendered));
  let allow = E.render_allow_report report in
  Alcotest.(check bool) "allow report lists suppressions" true
    (String.length allow > 0)

let test_live_tree_clean () =
  (* Run the real gate when the caller tells us where the sources are (the
     root-level `@lint` alias sets PNN_LINT_ROOT); inside the plain test
     sandbox the tree is not materialized, so there is nothing to scan. *)
  match Sys.getenv_opt "PNN_LINT_ROOT" with
  | None -> print_endline "PNN_LINT_ROOT unset; live-tree check runs via @lint"
  | Some root ->
      let report = E.run ~root () in
      List.iter
        (fun f -> print_endline (E.render_finding f))
        report.E.findings;
      Alcotest.(check int) "live tree has no unsuppressed findings" 0
        (List.length report.E.findings);
      Alcotest.(check bool) "live tree was actually scanned" true
        (report.E.files_scanned > 50)

(* A dangling symlink under a scanned directory cannot be stat'ed, the
   same error an entry deleted between [readdir] and the stat raises (a
   test writing and removing a file next to the sources while the gate
   walks them); either counts as absent. *)
let test_walk_skips_vanished () =
  let root = Filename.temp_dir "pnnlint_walk" "" in
  let lib = Filename.concat root "lib" in
  Sys.mkdir lib 0o755;
  let ok = Filename.concat lib "ok.ml" in
  Out_channel.with_open_text ok (fun oc -> output_string oc "let x = 1\n");
  let gone = Filename.concat lib "gone.ml" in
  Unix.symlink (Filename.concat lib "missing.ml") gone;
  let config = { E.default_config with scan_dirs = [ "lib" ]; cstub_pairs = [] } in
  let report =
    Fun.protect
      ~finally:(fun () ->
        List.iter Sys.remove [ gone; ok ];
        Sys.rmdir lib;
        Sys.rmdir root)
      (fun () -> E.run ~config ~root ())
  in
  Alcotest.(check int) "the readable file is scanned, the dangling link skipped" 1
    report.E.files_scanned

let () =
  Alcotest.run "lint"
    [
      ( "fixtures",
        [
          Alcotest.test_case "golden diagnostics" `Quick test_golden_diagnostics;
          Alcotest.test_case "suppressions counted" `Quick
            test_suppressions_counted;
          Alcotest.test_case "SAFETY tracked" `Quick test_safety_comments_tracked;
          Alcotest.test_case "R2 needs reachability" `Quick
            test_r2_needs_reachability;
          Alcotest.test_case "R7 needs reachability" `Quick
            test_r7_needs_reachability;
        ] );
      ( "surface",
        [
          Alcotest.test_case "rule catalogue" `Quick test_rule_catalogue;
          Alcotest.test_case "render shapes" `Quick test_render_shapes;
          Alcotest.test_case "json output" `Quick test_json_output;
          Alcotest.test_case "stats golden" `Quick test_stats_golden;
          Alcotest.test_case "walk skips vanished entries" `Quick
            test_walk_skips_vanished;
        ] );
      ( "live-tree",
        [ Alcotest.test_case "clean" `Quick test_live_tree_clean ] );
    ]
