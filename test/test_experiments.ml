(* Tests for the experiment harness (table/figure runners). *)

module E = Experiments

let test_report_cell () =
  Alcotest.(check string) "format" "0.821 ± 0.083" (E.Report.cell 0.8211 0.0829)

let test_report_table_aligned () =
  let s =
    E.Report.table ~header:[ "a"; "bb" ] ~rows:[ [ "xxx"; "y" ]; [ "z"; "wwww" ] ]
  in
  let lines = String.split_on_char '\n' s in
  (* header, separator, two rows, trailing empty *)
  Alcotest.(check int) "line count" 5 (List.length lines);
  match lines with
  | _ :: sep :: _ -> Alcotest.(check bool) "separator dashes" true (String.contains sep '-')
  | _ -> Alcotest.fail "missing separator"

let test_csv_escaping () =
  Alcotest.(check string) "quotes" "a,\"b,c\",\"d\"\"e\"" (E.Report.csv_line [ "a"; "b,c"; "d\"e" ])

let test_write_csv () =
  let path = Filename.temp_file "table" ".csv" in
  E.Report.write_csv ~path ~header:[ "x"; "y" ] ~rows:[ [ "1"; "2" ] ];
  let ic = open_in path in
  let l1 = input_line ic in
  let l2 = input_line ic in
  close_in ic;
  Sys.remove path;
  Alcotest.(check string) "header" "x,y" l1;
  Alcotest.(check string) "row" "1,2" l2

let test_setup_arms () =
  Alcotest.(check int) "four arms" 4 (List.length E.Setup.arms);
  let names = List.map E.Setup.arm_name E.Setup.arms in
  Alcotest.(check bool) "distinct" true
    (List.length (List.sort_uniq String.compare names) = 4)

let test_setup_scales () =
  List.iter
    (fun name ->
      let s = E.Setup.of_name name in
      Alcotest.(check bool) (name ^ " has seeds") true (List.length s.E.Setup.seeds >= 1);
      Alcotest.(check (list (float 0.0)))
        (name ^ " epsilons") [ 0.05; 0.10 ] s.E.Setup.test_epsilons)
    [ "quick"; "committed"; "paper" ];
  match E.Setup.of_name "bogus" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected invalid scale"

let astring_contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

let test_table1_mentions_all_params () =
  let s = E.Figures.render_table1 () in
  List.iter
    (fun p ->
      if not (astring_contains s p) then Alcotest.failf "table1 missing %s" p)
    [ "R1"; "R2"; "R3"; "R4"; "R5"; "W"; "L" ]

let test_fig2_curves () =
  let ptanh_curves, inv_curves = E.Figures.fig2_curves ~points:11 () in
  Alcotest.(check int) "five ptanh curves" 5 (List.length ptanh_curves);
  Alcotest.(check int) "five inv curves" 5 (List.length inv_curves);
  List.iter2
    (fun p i ->
      Alcotest.(check int) "points" 11 (Array.length p.E.Figures.vout);
      (* the negative-weight curve is the negated ptanh curve *)
      Array.iteri
        (fun k v ->
          Alcotest.(check (float 1e-12)) "negated" (-.v) i.E.Figures.vout.(k))
        p.E.Figures.vout)
    ptanh_curves inv_curves

let test_fig4_left () =
  let f = E.Figures.fig4_left ~points:21 () in
  Alcotest.(check int) "points" 21 (Array.length f.E.Figures.vin);
  Alcotest.(check bool) "good fit" true (f.E.Figures.rmse < 0.02);
  let rendered = E.Figures.render_fig4_left f in
  Alcotest.(check bool) "mentions eta" true (astring_contains rendered "eta")

(* A miniature end-to-end table2/table3 on one tiny dataset. *)
let mini_scale =
  {
    E.Setup.seeds = [ 1 ];
    test_epsilons = [ 0.05; 0.10 ];
    n_mc_test = 5;
    config =
      {
        Pnn.Config.default with
        Pnn.Config.max_epochs = 25;
        patience = 25;
        n_mc_train = 2;
        n_mc_val = 2;
      };
    init = `Centered;
    surrogate_samples = 250;
    surrogate_epochs = 150;
  }

let mini_dataset =
  Datasets.Synth.generate
    {
      Datasets.Synth.name = "mini";
      features = 3;
      classes = 2;
      samples = 80;
      modes_per_class = 1;
      class_sep = 0.3;
      spread = 0.06;
      label_noise = 0.0;
      priors = None;
      seed = 77;
    }

let surrogate =
  lazy
    (let dataset = Surrogate.Pipeline.generate_dataset ~n:250 () in
     fst
       (Surrogate.Pipeline.train_surrogate ~arch:[ 10; 8; 6; 4 ] ~max_epochs:150
          (Rng.create 42) dataset))

let table2_result =
  lazy (E.Table2.run ~datasets:[ mini_dataset ] mini_scale (Lazy.force surrogate))

let test_table2_structure () =
  let t = Lazy.force table2_result in
  Alcotest.(check int) "one row" 1 (List.length t.E.Table2.rows);
  let row = List.hd t.E.Table2.rows in
  Alcotest.(check string) "dataset name" "mini" row.E.Table2.dataset;
  Alcotest.(check int) "8 cells (4 arms x 2 eps)" 8 (List.length row.E.Table2.cells);
  List.iter
    (fun (_, cell) ->
      Alcotest.(check bool) "mean in [0,1]" true
        (cell.E.Table2.mean >= 0.0 && cell.E.Table2.mean <= 1.0);
      Alcotest.(check bool) "std >= 0" true (cell.E.Table2.std >= 0.0))
    row.E.Table2.cells

let test_table2_lookup () =
  let t = Lazy.force table2_result in
  let arm = { E.Setup.learnable = true; variation_aware = true } in
  let cell = E.Table2.cell_of t ~dataset:"mini" ~arm ~epsilon:0.05 in
  let avg = E.Table2.average_of t ~arm ~epsilon:0.05 in
  Alcotest.(check (float 1e-9)) "single dataset: average = cell" cell.E.Table2.mean
    avg.E.Table2.mean

let test_table2_render_and_csv () =
  let t = Lazy.force table2_result in
  let rendered = E.Table2.render t in
  Alcotest.(check bool) "renders dataset" true (astring_contains rendered "mini");
  Alcotest.(check bool) "renders average" true (astring_contains rendered "Average");
  let header, rows = E.Table2.to_csv_rows t in
  Alcotest.(check int) "csv columns" 17 (List.length header);
  Alcotest.(check int) "csv rows" 1 (List.length rows)

let test_table3_summary () =
  let t2 = Lazy.force table2_result in
  let t3 = E.Table3.of_table2 mini_scale t2 in
  Alcotest.(check int) "4 summary rows" 4 (List.length t3.E.Table3.rows);
  Alcotest.(check int) "2 claims" 2 (List.length t3.E.Table3.claims);
  List.iter
    (fun c ->
      Alcotest.(check bool) "contributions sum to 1" true
        (Float.abs
           (c.E.Table3.learnable_contribution +. c.E.Table3.va_contribution -. 1.0)
        < 1e-6))
    t3.E.Table3.claims;
  let rendered = E.Table3.render t3 in
  Alcotest.(check bool) "renders claims" true (astring_contains rendered "accuracy")

let test_lifetime_render () =
  let cell m s = { E.Table2.mean = m; std = s } in
  let t =
    {
      E.Lifetime.dataset = "toy";
      t_fracs = [ 0.0; 1.0 ];
      nominal_curve = [ (0.0, cell 0.8 0.01); (1.0, cell 0.6 0.05) ];
      aware_curve = [ (0.0, cell 0.78 0.01); (1.0, cell 0.75 0.02) ];
    }
  in
  let s = E.Lifetime.render t in
  Alcotest.(check bool) "mentions dataset" true (astring_contains s "toy");
  Alcotest.(check bool) "mentions aging-aware" true (astring_contains s "aging-aware")

let test_table2_determinism () =
  (* same scale + same dataset -> identical cells *)
  let t1 = Lazy.force table2_result in
  let t2 = E.Table2.run ~datasets:[ mini_dataset ] mini_scale (Lazy.force surrogate) in
  let arm = { E.Setup.learnable = false; variation_aware = false } in
  let c1 = E.Table2.cell_of t1 ~dataset:"mini" ~arm ~epsilon:0.05 in
  let c2 = E.Table2.cell_of t2 ~dataset:"mini" ~arm ~epsilon:0.05 in
  Alcotest.(check (float 1e-12)) "deterministic mean" c1.E.Table2.mean c2.E.Table2.mean;
  Alcotest.(check (float 1e-12)) "deterministic std" c1.E.Table2.std c2.E.Table2.std

(* Every cell of a Table II, the column averages included, with mean and
   std in hex-float notation: equal lists mean bitwise-equal tables. *)
let cell_bits t =
  let bits cells =
    List.map
      (fun ((arm, eps), c) ->
        Printf.sprintf "%s@%h: %h ± %h" (E.Setup.arm_name arm) eps c.E.Table2.mean
          c.E.Table2.std)
      cells
  in
  List.concat_map (fun r -> bits r.E.Table2.cells) t.E.Table2.rows @ bits t.E.Table2.average

let test_table2_warm_cache () =
  (* a cold pass fills a fresh store; a second pass against it must serve
     every cell from the store and reproduce the table bit for bit *)
  let dir = Filename.temp_dir "pnn_table2_cache" "" in
  Fun.protect ~finally:(fun () -> Fixtures.rm_rf dir) (fun () ->
      let pass () =
        let cache = Cache.create ~dir in
        let t =
          E.Table2.run ~cache ~datasets:[ mini_dataset ] mini_scale (Lazy.force surrogate)
        in
        (t, Cache.stats cache)
      in
      let cold, _ = pass () in
      let warm, warm_stats = pass () in
      Alcotest.(check int) "warm pass: no misses" 0 (Atomic.get warm_stats.Cache.misses);
      Alcotest.(check bool) "warm pass: hits" true (Atomic.get warm_stats.Cache.hits > 0);
      Alcotest.(check string) "rendered tables equal" (E.Table2.render cold) (E.Table2.render warm);
      Alcotest.(check (list string))
        "every mean and std bitwise equal" (cell_bits cold) (cell_bits warm));
  Alcotest.(check bool) "temp store removed" false (Sys.file_exists dir)

let () =
  Alcotest.run "experiments"
    [
      ( "report",
        [
          Alcotest.test_case "cell" `Quick test_report_cell;
          Alcotest.test_case "table" `Quick test_report_table_aligned;
          Alcotest.test_case "csv escaping" `Quick test_csv_escaping;
          Alcotest.test_case "write csv" `Quick test_write_csv;
        ] );
      ( "setup",
        [
          Alcotest.test_case "arms" `Quick test_setup_arms;
          Alcotest.test_case "scales" `Quick test_setup_scales;
        ] );
      ( "figures",
        [
          Alcotest.test_case "table1" `Quick test_table1_mentions_all_params;
          Alcotest.test_case "fig2" `Quick test_fig2_curves;
          Alcotest.test_case "fig4 left" `Quick test_fig4_left;
        ] );
      ( "tables",
        [
          Alcotest.test_case "table2 structure" `Quick test_table2_structure;
          Alcotest.test_case "table2 lookup" `Quick test_table2_lookup;
          Alcotest.test_case "table2 render" `Quick test_table2_render_and_csv;
          Alcotest.test_case "table3 summary" `Quick test_table3_summary;
          Alcotest.test_case "table2 determinism" `Quick test_table2_determinism;
          Alcotest.test_case "table2 warm cache" `Quick test_table2_warm_cache;
          Alcotest.test_case "lifetime render" `Quick test_lifetime_render;
        ] );
    ]
