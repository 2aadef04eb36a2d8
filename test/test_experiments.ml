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

let cell_of t ~dataset ~arm ~epsilon =
  let row = List.find (fun r -> r.E.Table2.dataset = dataset) t.E.Table2.rows in
  List.assoc (arm, epsilon) row.E.Table2.cells

(* A run given no cache writes none, whatever the environment says: a test
   of changed training code must never pass on results an older build
   stored under the same key. *)
let test_no_ambient_cache () =
  let dir = Filename.temp_dir "pnn_ambient_cache" "" in
  Fun.protect
    ~finally:(fun () ->
      Unix.putenv "REPRO_CACHE_DIR" "";
      Fixtures.rm_rf dir)
    (fun () ->
      Unix.putenv "REPRO_CACHE_DIR" dir;
      ignore (E.Table2.run ~datasets:[ mini_dataset ] mini_scale (Lazy.force surrogate));
      Alcotest.(check (list string)) "nothing stored" [] (Array.to_list (Sys.readdir dir)))

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
  let cell = cell_of t ~dataset:"mini" ~arm ~epsilon:0.05 in
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
      match (c.E.Table3.learnable_contribution, c.E.Table3.va_contribution) with
      | Some l, Some v ->
          Alcotest.(check bool) "contributions sum to 1 when defined" true
            (Float.abs (l +. v -. 1.0) < 1e-6)
      | None, None -> ()
      | _ -> Alcotest.fail "contributions defined for one factor only")
    t3.E.Table3.claims;
  let rendered = E.Table3.render t3 in
  Alcotest.(check bool) "renders claims" true (astring_contains rendered "accuracy")

(* The claims line from hand-made averages: at 5 % the full method loses
   accuracy and neither single-factor split is positive; at 10 % the std
   grows and both single-factor gains are positive. *)
let test_table3_claims_line () =
  let arm learnable variation_aware = { E.Setup.learnable; variation_aware } in
  let cell mean std = { E.Table2.mean; std } in
  let average =
    [
      ((arm true true, 0.05), cell 0.690 0.015);
      ((arm true false, 0.05), cell 0.700 0.019);
      ((arm false true, 0.05), cell 0.632 0.018);
      ((arm false false, 0.05), cell 0.703 0.018);
      ((arm true true, 0.10), cell 0.706 0.037);
      ((arm true false, 0.10), cell 0.671 0.026);
      ((arm false true, 0.10), cell 0.686 0.039);
      ((arm false false, 0.10), cell 0.646 0.028);
    ]
  in
  let t3 = E.Table3.of_table2 mini_scale { E.Table2.rows = []; average } in
  let claims =
    List.filter
      (fun l -> String.length l > 0 && l.[0] = '@')
      (String.split_on_char '\n' (E.Table3.render t3))
  in
  Alcotest.(check (list string))
    "claims"
    [
      "@5%: accuracy -2%, robustness (std) -17%; contributions: undefined";
      "@10%: accuracy +9%, robustness (std) +32%; contributions: learnable 38%, \
       variation-aware 62%";
    ]
    claims

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
  let c1 = cell_of t1 ~dataset:"mini" ~arm ~epsilon:0.05 in
  let c2 = cell_of t2 ~dataset:"mini" ~arm ~epsilon:0.05 in
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

(* {1 Seed selection} *)

let test_select_rule () =
  let check what expect losses = Alcotest.(check int) what expect (E.Seeds.select losses) in
  check "smallest wins" 2 [ 0.9; 0.7; 0.4; 0.8 ];
  check "ties keep the earlier seed" 1 [ 1.0; 0.5; 0.5 ];
  check "+inf loses to a finite loss" 1 [ infinity; 2.0 ];
  check "finite beats a later +inf" 0 [ 2.0; infinity ];
  check "all +inf picks the first" 0 [ infinity; infinity ];
  check "NaN loses to a later number" 1 [ nan; 3.0 ];
  check "NaN never beats an earlier number" 0 [ 3.0; nan ];
  check "NaN loses to +inf" 1 [ nan; infinity ];
  check "all-NaN picks the first" 0 [ nan; nan; nan ];
  Alcotest.check_raises "empty" (Invalid_argument "Seeds.select: no seeds") (fun () ->
      ignore (E.Seeds.select []))

let test_train_runs_every_seed () =
  let network =
    Pnn.Network.create (Rng.create 1) mini_scale.E.Setup.config (Lazy.force surrogate)
      ~inputs:3 ~outputs:2
  in
  let result val_loss =
    {
      Pnn.Training.network;
      history =
        {
          Nn.Train.train_losses = [||];
          val_losses = [||];
          best_epoch = 0;
          best_val_loss = val_loss;
          stopped_early = false;
        };
      val_loss;
    }
  in
  let losses = [ (1, 0.7); (2, nan); (3, 0.2); (4, 0.2) ] in
  let t = E.Seeds.train (fun (seed, l) -> (result l, seed)) losses in
  Alcotest.(check (list int)) "every seed, in order" [ 1; 2; 3; 4 ] (List.map snd t.E.Seeds.runs);
  Alcotest.(check int) "chosen index" 2 t.E.Seeds.chosen;
  Alcotest.(check int) "chosen payload" 3 (snd (E.Seeds.chosen t));
  Alcotest.check_raises "no seeds" (Invalid_argument "Seeds.select: no seeds") (fun () ->
      ignore (E.Seeds.train (fun s -> (result 0.0, s)) []))

(* {1 Cache-key and output pins}

   Literal content addresses of every cell kind the runners write, and the
   rendered text of runs whose bytes must not move when the runners are
   restructured. *)

(* The ablations load the committed quick surrogate by its path relative to
   the build root. *)
let in_build_root f =
  let here = Sys.getcwd () in
  Sys.chdir "..";
  Fun.protect ~finally:(fun () -> Sys.chdir here) f

(* the committed quick surrogate's content digest (pinned in test_lines) *)
let quick_surrogate_digest = "1a904f4164ce9887d42b56a75f40e467"

let test_cell_key_pins () =
  let surrogate = in_build_root (fun () -> E.Setup.surrogate_of_scale E.Setup.quick) in
  Alcotest.(check string) "quick surrogate" quick_surrogate_digest
    (E.Setup.surrogate_digest surrogate);
  let cache = Cache.disabled () in
  let key label jobs = (List.find (fun j -> j.E.Seeds.label = label) jobs).E.Seeds.key in
  Alcotest.(check string) "t2cell" "16cb1b15a984f8fe04332751c02d824d"
    (key "t2cell iris seed=1 learnable/va eps=0.05"
       (E.Table2.jobs ~cache ~datasets:[ Datasets.Bench13.load "iris" ] E.Setup.quick
          surrogate));
  Alcotest.(check string) "faultcell" "4fb32f33213448e28d5665dd94479a17"
    (key "faultcell seeds uniform seed=2 eps=0.1"
       (E.Faults.jobs ~cache ~dataset:"seeds" ~epsilon:0.1 E.Setup.quick surrogate))

(* Runs [f] against a fresh store and returns its result with every entry
   the run wrote, as ["kind key"] lines in store order. *)
let with_store f =
  let dir = Filename.temp_dir "pnn_key_pins" "" in
  Fun.protect ~finally:(fun () -> Fixtures.rm_rf dir) (fun () ->
      let r = f (Cache.create ~dir) in
      (r, List.map (fun e -> e.Cache.kind ^ " " ^ e.Cache.key) (Cache.entries ~dir ())))

let check_keys what ~count ~digest ~has keys =
  Alcotest.(check int) (what ^ ": entry count") count (List.length keys);
  List.iter
    (fun k -> Alcotest.(check bool) (what ^ ": has " ^ k) true (List.mem k keys))
    has;
  Alcotest.(check string) (what ^ ": every key") digest (Cache.digest_lines keys)

let test_table2_key_pins () =
  let _, keys =
    with_store (fun cache ->
        E.Table2.run ~cache ~datasets:[ mini_dataset ] mini_scale (Lazy.force surrogate))
  in
  check_keys "table2" ~count:14 ~digest:"d8f48e6603f10c3154e15f34b07f1249"
    ~has:[ "t2cell 1422d449b3c6c7460f1c91147906e340"; "mceval 4d37b9ee668b8c7cb02f4045948df877" ]
    keys

let faults_scale = { mini_scale with E.Setup.seeds = [ 1; 2 ]; n_mc_test = 4 }

let test_faults_key_pins () =
  let _, keys =
    with_store (fun cache -> E.Faults.run ~cache faults_scale (Lazy.force surrogate))
  in
  check_keys "faults" ~count:80 ~digest:"0caf0e0c3725ba87b09767e10e7d82f6"
    ~has:[ "faultcell 49295001dc366c1a602919456c652155"; "mceval 0125633655dce771892bc1edf8e411ec" ]
    keys

let test_ablation_key_pins () =
  let text, keys =
    with_store (fun cache ->
        in_build_root (fun () -> E.Ablations.initialization_ablation ~cache ()))
  in
  check_keys "init ablation" ~count:16 ~digest:"63f91036f64dc5d82c9446fc9e544e5d"
    ~has:[ "ablcell 0ba269dd6c06b882ef82437a1b021d71" ] keys;
  Alcotest.(check string) "rendered"
    (String.concat "\n"
       [
         "Ablation: crossbar initialization (nominal training, fixed circuits)";
         "dataset       init             beats majority  mean acc  best acc";
         "------------  ---------------  --------------  --------  --------";
         "seeds         centered (ours)  3/4             0.696     0.905   ";
         "seeds         random-sign      2/4             0.536     0.786   ";
         "vertebral-2c  centered (ours)  3/4             0.589     0.629   ";
         "vertebral-2c  random-sign      3/4             0.649     0.742   ";
         "";
       ])
    text

let test_temperature_ablation_pin () =
  Alcotest.(check string) "rendered"
    (String.concat "\n"
       [
         "Ablation: softmax temperature (iris, nominal training)";
         "logit scale  nominal acc  acc @10% variation";
         "-----------  -----------  ------------------";
         "2.0          0.600        0.574 \u{b1} 0.062    ";
         "4.0          0.600        0.549 \u{b1} 0.080    ";
         "10.0         0.567        0.556 \u{b1} 0.040    ";
         "";
       ])
    (in_build_root (fun () -> E.Ablations.temperature_ablation ()))

(* Each layout reports its best-validation-loss seed.  At this budget that
   seed is also the best on test accuracy in every layout; 3-3 collapses in
   both seeds (validation loss ~ ln 10). *)
let test_depth_ablation_pin () =
  Alcotest.(check string) "rendered"
    (String.concat "\n"
       [
         "Extension: pNN topology on the hardest task (pendigits; seed with the best \
          validation loss)";
         "hidden layout  nominal test acc";
         "-------------  ----------------";
         "3 (paper)      0.221           ";
         "6              0.412           ";
         "3-3            0.083           ";
         "6-4            0.575           ";
         "";
       ])
    (in_build_root (fun () -> E.Ablations.depth_ablation ()))

let () =
  Alcotest.run "experiments"
    [
      (* first, so that no earlier case has touched a cache *)
      ( "hermetic",
        [ Alcotest.test_case "no ambient cache" `Quick test_no_ambient_cache ] );
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
          Alcotest.test_case "table3 claims line" `Quick test_table3_claims_line;
          Alcotest.test_case "table2 determinism" `Quick test_table2_determinism;
          Alcotest.test_case "table2 warm cache" `Quick test_table2_warm_cache;
          Alcotest.test_case "lifetime render" `Quick test_lifetime_render;
        ] );
      ( "seeds",
        [
          Alcotest.test_case "selection rule" `Quick test_select_rule;
          Alcotest.test_case "train keeps every run" `Quick test_train_runs_every_seed;
        ] );
      ( "pins",
        [
          Alcotest.test_case "cell keys" `Quick test_cell_key_pins;
          Alcotest.test_case "table2 keys" `Quick test_table2_key_pins;
          Alcotest.test_case "faults keys" `Quick test_faults_key_pins;
          Alcotest.test_case "init ablation keys" `Quick test_ablation_key_pins;
          Alcotest.test_case "temperature ablation" `Quick test_temperature_ablation_pin;
          Alcotest.test_case "depth ablation" `Quick test_depth_ablation_pin;
        ] );
    ]
