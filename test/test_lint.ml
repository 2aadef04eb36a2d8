(* pnnlint rule fixtures: each rule has a positive site (must be found) and a
   suppressed negative (must be absorbed, not reported).  The fixtures live in
   lint_fixtures/ (data_only_dirs: never compiled) and only need to parse. *)

module E = Pnnlint.Engine
module R = Pnnlint.Rules

let fixture_config =
  {
    E.scan_dirs = [ "lint_fixtures" ];
    exclude = [];
    (* two root families, like the live config: the experiment stack and
       the serving stack *)
    r2_roots = [ "Fixture_r2_root"; "Fixture_r2_serve" ];
    (* R7 seeds are the live defaults: fixture_r7 mentions Domain, so it is
       picked up by auto-detection like real spawning code *)
    r7_seeds = [ "Domain"; "Parallel"; "Thread" ];
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
      (* R7: an unwaived fork + module-level mutable state in the
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

let test_suppressions_absorb () =
  let report = run_fixtures () in
  Alcotest.(check int) "twenty files scanned" 20 report.E.files_scanned;
  Alcotest.(check (list string))
    "each valid allow absorbs the finding at its site"
    (List.sort String.compare
       [
         "R1 lint_fixtures/fixture_r1.ml:5";
         "R2 lint_fixtures/fixture_r2.ml:6";
         "R2 lint_fixtures/fixture_r2_serve.ml:8";
         "R3 lint_fixtures/fixture_r3.ml:6";
         "R4 lint_fixtures/fixture_r4.ml:9";
         "R5 lint_fixtures/fixture_r5.ml:6";
         "R6 lint_fixtures/fixture_r6.ml:5";
         "R7 lint_fixtures/fixture_r7.ml:8";
         "R7 lint_fixtures/fixture_r7_state.ml:7";
         "R7 lint_fixtures/fixture_r7_state.ml:12";
         "R8 lint_fixtures/cstub/fixture_stubs.c:83";
         "R9 lint_fixtures/lib/fixture_r9.ml:6";
         "R10 lint_fixtures/lib/fixture_r10.ml:7";
         "R4 lint_fixtures/lib/tensor/fixture_r4_stub.ml:13";
       ])
    (List.sort String.compare (List.map site report.E.suppressed));
  (* the malformed one in fixture_s1 must not have silenced its finding *)
  let r5_s1 =
    List.exists
      (fun (f : R.finding) ->
        f.R.rule = "R5" && f.R.path = "lint_fixtures/fixture_s1.ml")
      report.E.findings
  in
  Alcotest.(check bool) "reasonless suppression suppresses nothing" true r5_s1

(* A SAFETY note covers the unsafe access or stub below it: those sites are
   neither reported nor counted as suppressed.  Only the bare accesses are
   found, and only the pnnlint:allow waivers are suppressed. *)
let test_safety_covers_r4 () =
  let report = run_fixtures () in
  let r4 fs =
    List.sort String.compare
      (List.filter_map
         (fun (f : R.finding) -> if f.R.rule = "R4" then Some (site f) else None)
         fs)
  in
  Alcotest.(check (list string))
    "bare R4 sites found"
    [
      "R4 lint_fixtures/fixture_r4.ml:11";
      "R4 lint_fixtures/fixture_r4.ml:2";
      "R4 lint_fixtures/lib/tensor/fixture_r4_stub.ml:4";
    ]
    (r4 report.E.findings);
  Alcotest.(check (list string))
    "waived R4 sites suppressed"
    [
      "R4 lint_fixtures/fixture_r4.ml:9";
      "R4 lint_fixtures/lib/tensor/fixture_r4_stub.ml:13";
    ]
    (r4 report.E.suppressed)

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

let test_render_shapes () =
  let report = run_fixtures () in
  let lines = String.split_on_char '\n' (E.render_report report) in
  Alcotest.(check (list string))
    "one line per finding, then the summary"
    [ "pnnlint: 20 file(s), 39 finding(s), 14 suppressed"; "" ]
    (List.filteri (fun i _ -> i >= 39) lines);
  Alcotest.(check string) "a finding line"
    "lint_fixtures/cstub/fixture_badflags.c:10: [R8]"
    (String.sub (List.hd lines) 0 47)

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

(* A root that lacks a registered stub pair is linted, not crashed on: each
   missing C file is an R8 finding, so the gate fails with a diagnostic. *)
let test_missing_stub_pair_is_finding () =
  let root = Filename.temp_dir "pnnlint_nostubs" "" in
  let lib = Filename.concat root "lib" in
  Sys.mkdir lib 0o755;
  let ok = Filename.concat lib "ok.ml" in
  Out_channel.with_open_text ok (fun oc -> output_string oc "let x = 1\n");
  let config = { E.default_config with scan_dirs = [ "lib" ] } in
  let report =
    Fun.protect
      ~finally:(fun () ->
        Sys.remove ok;
        Sys.rmdir lib;
        Sys.rmdir root)
      (fun () -> E.run ~config ~root ())
  in
  Alcotest.(check int) "the one source file is scanned" 1 report.E.files_scanned;
  Alcotest.(check (list string))
    "one R8 finding per missing C file"
    (List.sort String.compare
       (List.map (fun (c, _, _) -> "R8 " ^ Filename.concat root c ^ ":0")
          E.default_config.E.cstub_pairs))
    (List.sort String.compare
       (List.filter_map
          (fun (f : R.finding) ->
            if f.R.msg = "cannot read C stub file" then Some (site f) else None)
          report.E.findings))

let () =
  Alcotest.run "lint"
    [
      ( "fixtures",
        [
          Alcotest.test_case "golden diagnostics" `Quick test_golden_diagnostics;
          Alcotest.test_case "suppressions absorb their sites" `Quick
            test_suppressions_absorb;
          Alcotest.test_case "R2 needs reachability" `Quick
            test_r2_needs_reachability;
          Alcotest.test_case "R7 needs reachability" `Quick
            test_r7_needs_reachability;
          Alcotest.test_case "SAFETY covers R4 sites" `Quick test_safety_covers_r4;
        ] );
      ( "surface",
        [
          Alcotest.test_case "render shapes" `Quick test_render_shapes;
          Alcotest.test_case "walk skips vanished entries" `Quick
            test_walk_skips_vanished;
          Alcotest.test_case "missing stub pair is a finding" `Quick
            test_missing_stub_pair_is_finding;
        ] );
    ]
