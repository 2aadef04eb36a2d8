(* Regenerate the paper's tables and figures.

   Examples:
     dune exec bin/experiment.exe -- table1
     dune exec bin/experiment.exe -- fig2 --csv out.csv
     dune exec bin/experiment.exe -- table2 --scale quick --datasets iris,seeds
     dune exec bin/experiment.exe -- table3 --scale committed
*)

open Cmdliner

let setup_logs verbose =
  Fmt_tty.setup_std_outputs ();
  Logs.set_reporter (Logs_fmt.reporter ());
  Logs.set_level (Some (if verbose then Logs.Info else Logs.Warning))

let progress msg = Printf.eprintf "[table2] %s\n%!" msg

let setup_cache ~cache_dir ~no_cache =
  if no_cache then Cache.disabled () else Cache.create ~dir:cache_dir

let report_cache cache =
  if Cache.enabled cache then Printf.printf "%s\n" (Cache.summary cache)

let report_schema () =
  Printf.printf "cache schema: %s\n" (Pnn.Serialize.cache_schema ())

let load_datasets = function
  | None -> Datasets.Bench13.load_all ()
  | Some names -> List.map Datasets.Bench13.load names

let run_table2 scale_name datasets_opt csv ~cache ~resume =
  let scale = Experiments.Setup.of_name scale_name in
  let surrogate = Experiments.Setup.surrogate_of_scale ~cache scale in
  let datasets = load_datasets datasets_opt in
  let t0 = Clock.now () in
  let table =
    Experiments.Table2.run ~cache ~checkpoints:resume ~progress ~datasets scale
      surrogate
  in
  Printf.printf "%s" (Experiments.Table2.render table);
  Printf.printf "(%.1fs)\n" (Clock.now () -. t0);
  (match csv with
  | Some path ->
      let header, rows = Experiments.Table2.to_csv_rows table in
      Experiments.Report.write_csv ~path ~header ~rows;
      Printf.printf "wrote %s\n" path
  | None -> ());
  table

let cmd_table2 scale_name datasets_opt csv verbose cache_dir no_cache
    resume =
  setup_logs verbose;
  let cache = setup_cache ~cache_dir ~no_cache in
  ignore (run_table2 scale_name datasets_opt csv ~cache ~resume);
  report_schema ();
  report_cache cache

let cmd_table3 scale_name datasets_opt csv verbose cache_dir no_cache
    resume =
  setup_logs verbose;
  let cache = setup_cache ~cache_dir ~no_cache in
  let scale = Experiments.Setup.of_name scale_name in
  let table2 = run_table2 scale_name datasets_opt csv ~cache ~resume in
  let table3 = Experiments.Table3.of_table2 scale table2 in
  print_newline ();
  print_string (Experiments.Table3.render table3);
  report_schema ();
  report_cache cache

let cmd_fig2 csv verbose =
  setup_logs verbose;
  let curves = Experiments.Figures.fig2_curves () in
  print_string (Experiments.Figures.render_fig2 curves);
  match csv with
  | Some path ->
      let ptanh_curves, _ = curves in
      (match ptanh_curves with
      | [] -> ()
      | first :: _ ->
          let header = "vin" :: List.map (fun c -> c.Experiments.Figures.label) ptanh_curves in
          let rows =
            Array.to_list
              (Array.mapi
                 (fun i v ->
                   Printf.sprintf "%.4f" v
                   :: List.map
                        (fun c -> Printf.sprintf "%.5f" c.Experiments.Figures.vout.(i))
                        ptanh_curves)
                 first.Experiments.Figures.vin)
          in
          Experiments.Report.write_csv ~path ~header ~rows;
          Printf.printf "wrote %s\n" path)
  | None -> ()

let cmd_fig4 seed verbose =
  setup_logs verbose;
  print_string (Experiments.Figures.render_fig4_left (Experiments.Figures.fig4_left ()));
  print_newline ();
  print_string
    (Experiments.Figures.render_fig4_right (Experiments.Figures.fig4_right ~seed ()))

let cmd_table1 () = print_string (Experiments.Figures.render_table1 ())

let ablations =
  [
    ("sampler", fun ~cache:_ -> Experiments.Ablations.sampler_ablation ());
    ("architecture", fun ~cache:_ -> Experiments.Ablations.architecture_ablation ());
    ("init", fun ~cache -> Experiments.Ablations.initialization_ablation ~cache ());
    ("temperature", fun ~cache:_ -> Experiments.Ablations.temperature_ablation ());
    ("depth", fun ~cache:_ -> Experiments.Ablations.depth_ablation ());
  ]

let cmd_ablations which verbose cache_dir no_cache =
  setup_logs verbose;
  let cache = setup_cache ~cache_dir ~no_cache in
  List.iter
    (fun (name, run) ->
      if List.mem name which then (
        print_string (run ~cache);
        print_newline ()))
    ablations;
  report_schema ();
  report_cache cache

let scale_arg =
  Arg.(
    value
    & opt (Name_flag.one ~what:"scale" Experiments.Setup.names) "quick"
    & info [ "scale" ] ~doc:(String.concat " | " Experiments.Setup.names))

let datasets_arg =
  Arg.(
    value
    & opt (some Name_flag.datasets) None
    & info [ "datasets" ] ~doc:"comma-separated dataset names (default: all 13)")

let csv_arg = Arg.(value & opt (some string) None & info [ "csv" ] ~doc:"write CSV here")
let verbose_arg = Arg.(value & flag & info [ "verbose"; "v" ] ~doc:"log progress")
let seed_arg = Arg.(value & opt int 7 & info [ "seed" ] ~doc:"pipeline seed")

let cache_dir_arg =
  Arg.(
    value
    & opt string "_cache"
    & info [ "cache-dir" ] ~doc:"content-addressed artifact cache directory")

let no_cache_arg =
  Arg.(value & flag & info [ "no-cache" ] ~doc:"disable the artifact cache")

let resume_arg =
  Arg.(
    value
    & flag
    & info [ "resume" ]
        ~doc:
          "checkpoint training cells periodically and resume interrupted runs \
           bit-identically (requires the cache)")

let table1_cmd =
  Cmd.v (Cmd.info "table1" ~doc:"print the enforced design space")
    Term.(const cmd_table1 $ const ())

let table2_cmd =
  Cmd.v (Cmd.info "table2" ~doc:"run the main benchmark table")
    Term.(
      const cmd_table2 $ scale_arg $ datasets_arg $ csv_arg
      $ verbose_arg $ cache_dir_arg $ no_cache_arg $ resume_arg)

let table3_cmd =
  Cmd.v (Cmd.info "table3" ~doc:"run the ablation summary (includes table2)")
    Term.(
      const cmd_table3 $ scale_arg $ datasets_arg $ csv_arg
      $ verbose_arg $ cache_dir_arg $ no_cache_arg $ resume_arg)

let fig2_cmd =
  Cmd.v (Cmd.info "fig2" ~doc:"characteristic curves of the nonlinear circuits")
    Term.(const cmd_fig2 $ csv_arg $ verbose_arg)

let fig4_cmd =
  Cmd.v (Cmd.info "fig4" ~doc:"fit example and surrogate parity")
    Term.(const cmd_fig4 $ seed_arg $ verbose_arg)

let cmd_lifetime scale_name dataset verbose =
  setup_logs verbose;
  let scale = Experiments.Setup.of_name scale_name in
  let surrogate = Experiments.Setup.surrogate_of_scale scale in
  let result =
    Experiments.Lifetime.run ?dataset scale surrogate
  in
  print_string (Experiments.Lifetime.render result);
  report_schema ()

let dataset_arg =
  Arg.(
    value & opt (some Name_flag.dataset) None & info [ "dataset" ] ~doc:"benchmark dataset name")

let lifetime_cmd =
  Cmd.v
    (Cmd.info "lifetime" ~doc:"extension: aging-aware vs aging-unaware training")
    Term.(const cmd_lifetime $ scale_arg $ dataset_arg $ verbose_arg)

let cmd_faults scale_name dataset epsilon csv verbose cache_dir no_cache
    resume =
  setup_logs verbose;
  let cache = setup_cache ~cache_dir ~no_cache in
  let scale = Experiments.Setup.of_name scale_name in
  let surrogate = Experiments.Setup.surrogate_of_scale ~cache scale in
  let progress msg = Printf.eprintf "[faults] %s\n%!" msg in
  let t0 = Clock.now () in
  let result =
    Experiments.Faults.run ~cache ~checkpoints:resume ~progress ?dataset
      ~epsilon scale surrogate
  in
  print_string (Experiments.Faults.render result);
  Printf.printf "(%.1fs)\n" (Clock.now () -. t0);
  (match csv with
  | Some path ->
      let header, rows = Experiments.Faults.to_csv_rows result in
      Experiments.Report.write_csv ~path ~header ~rows;
      Printf.printf "wrote %s\n" path
  | None -> ());
  report_schema ();
  report_cache cache

let epsilon_arg =
  Arg.(
    value & opt Severity.fault_anchor 0.10
    & info [ "epsilon" ] ~doc:"family severity anchor")

let faults_cmd =
  Cmd.v
    (Cmd.info "faults"
       ~doc:"extension: fault-injection grid and severity sweeps (Variation models)")
    Term.(
      const cmd_faults $ scale_arg $ dataset_arg $ epsilon_arg
      $ csv_arg $ verbose_arg $ cache_dir_arg $ no_cache_arg $ resume_arg)

let which_arg =
  let names = List.map fst ablations in
  Arg.(
    value
    & opt (Name_flag.list ~what:"ablation" names) names
    & info [ "only" ]
        ~doc:("comma-separated subset of " ^ String.concat "," names ^ ", or all"))

let ablations_cmd =
  Cmd.v
    (Cmd.info "ablations" ~doc:"design-choice ablation benches (DESIGN.md §5)")
    Term.(
      const cmd_ablations $ which_arg $ verbose_arg
      $ cache_dir_arg $ no_cache_arg)

let main =
  Cmd.group
    (Cmd.info "experiment" ~doc:"reproduce the paper's tables and figures")
    [
      table1_cmd; table2_cmd; table3_cmd; fig2_cmd; fig4_cmd; ablations_cmd;
      lifetime_cmd; faults_cmd;
    ]

let () = exit (Cmd.eval main)
