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

(* Install the process-wide default cache from the CLI flags so library
   entry points that consult {!Cache.get_default} (surrogate pipeline,
   ablation cells) agree with what the command was given. *)
let setup_cache ~cache_dir ~no_cache =
  let cache =
    if no_cache then Cache.disabled () else Cache.create ~dir:cache_dir
  in
  Cache.set_default cache;
  cache

let report_cache cache =
  if Cache.enabled cache then Printf.printf "%s\n" (Cache.summary cache)

(* Select the tensor kernel backend before any tensor (dataset, surrogate,
   network) is built, so the whole computation stays on one backend. *)
let setup_backend name =
  match Tensor.backend_of_string name with
  | Some b -> Tensor.set_backend b
  | None ->
      Printf.eprintf "experiment: unknown backend %S (use %s)\n%!" name
        Tensor.backend_choices;
      exit 2

let report_backend () =
  Printf.printf "backend: %s (cache schema %s)\n"
    (Tensor.backend_name (Tensor.backend ()))
    (Pnn.Serialize.cache_schema ())

let load_datasets = function
  | None -> Datasets.Bench13.load_all ()
  | Some names ->
      List.map Datasets.Bench13.load (String.split_on_char ',' names)

let run_table2 scale_name datasets_opt csv ~cache ~resume =
  let scale = Experiments.Setup.of_name scale_name in
  let surrogate = Experiments.Setup.surrogate_of_scale scale in
  let datasets = load_datasets datasets_opt in
  let t0 = Unix.gettimeofday () in
  let table =
    Experiments.Table2.run ~cache ~checkpoints:resume ~progress ~datasets scale
      surrogate
  in
  Printf.printf "%s" (Experiments.Table2.render table);
  Printf.printf "(%.1fs)\n" (Unix.gettimeofday () -. t0);
  (match csv with
  | Some path ->
      let header, rows = Experiments.Table2.to_csv_rows table in
      Experiments.Report.write_csv ~path ~header ~rows;
      Printf.printf "wrote %s\n" path
  | None -> ());
  table

let cmd_table2 backend scale_name datasets_opt csv verbose cache_dir no_cache
    resume =
  setup_logs verbose;
  setup_backend backend;
  let cache = setup_cache ~cache_dir ~no_cache in
  ignore (run_table2 scale_name datasets_opt csv ~cache ~resume);
  report_backend ();
  report_cache cache

let cmd_table3 backend scale_name datasets_opt csv verbose cache_dir no_cache
    resume =
  setup_logs verbose;
  setup_backend backend;
  let cache = setup_cache ~cache_dir ~no_cache in
  let scale = Experiments.Setup.of_name scale_name in
  let table2 = run_table2 scale_name datasets_opt csv ~cache ~resume in
  let table3 = Experiments.Table3.of_table2 scale table2 in
  print_newline ();
  print_string (Experiments.Table3.render table3);
  report_backend ();
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

let cmd_ablations backend which verbose cache_dir no_cache =
  setup_logs verbose;
  setup_backend backend;
  let cache = setup_cache ~cache_dir ~no_cache in
  let all =
    [
      ("sampler", fun () -> Experiments.Ablations.sampler_ablation ());
      ("architecture", fun () -> Experiments.Ablations.architecture_ablation ());
      ("init", fun () -> Experiments.Ablations.initialization_ablation ());
      ("temperature", fun () -> Experiments.Ablations.temperature_ablation ());
      ("depth", fun () -> Experiments.Ablations.depth_ablation ());
    ]
  in
  let selected =
    match which with
    | None -> all
    | Some names ->
        let wanted = String.split_on_char ',' names in
        List.filter (fun (n, _) -> List.mem n wanted) all
  in
  List.iter
    (fun (_, run) ->
      print_string (run ());
      print_newline ())
    selected;
  report_backend ();
  report_cache cache

let scale_arg =
  Arg.(value & opt string "quick" & info [ "scale" ] ~doc:"quick | committed | paper")

let backend_arg =
  (* default to whatever PNN_BACKEND selected at startup, so the flag and
     the environment knob compose (flag wins when given) *)
  Arg.(
    value
    & opt string (Tensor.backend_name (Tensor.backend ()))
    & info [ "backend" ]
        ~doc:
          (Printf.sprintf
             "tensor kernel backend (%s): $(b,reference) is the bit-identity \
              oracle, $(b,c) the vectorized C-stub fast path; cached results \
              are keyed per backend"
             Tensor.backend_choices))

let datasets_arg =
  Arg.(
    value
    & opt (some string) None
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
      const cmd_table2 $ backend_arg $ scale_arg $ datasets_arg $ csv_arg
      $ verbose_arg $ cache_dir_arg $ no_cache_arg $ resume_arg)

let table3_cmd =
  Cmd.v (Cmd.info "table3" ~doc:"run the ablation summary (includes table2)")
    Term.(
      const cmd_table3 $ backend_arg $ scale_arg $ datasets_arg $ csv_arg
      $ verbose_arg $ cache_dir_arg $ no_cache_arg $ resume_arg)

let fig2_cmd =
  Cmd.v (Cmd.info "fig2" ~doc:"characteristic curves of the nonlinear circuits")
    Term.(const cmd_fig2 $ csv_arg $ verbose_arg)

let fig4_cmd =
  Cmd.v (Cmd.info "fig4" ~doc:"fit example and surrogate parity")
    Term.(const cmd_fig4 $ seed_arg $ verbose_arg)

let cmd_lifetime backend scale_name dataset verbose =
  setup_logs verbose;
  setup_backend backend;
  let scale = Experiments.Setup.of_name scale_name in
  let surrogate = Experiments.Setup.surrogate_of_scale scale in
  let result =
    Experiments.Lifetime.run ?dataset Pnn.Aging.default_model scale surrogate
  in
  print_string (Experiments.Lifetime.render result);
  report_backend ()

let dataset_arg =
  Arg.(value & opt (some string) None & info [ "dataset" ] ~doc:"benchmark dataset name")

let lifetime_cmd =
  Cmd.v
    (Cmd.info "lifetime" ~doc:"extension: aging-aware vs aging-unaware training")
    Term.(const cmd_lifetime $ backend_arg $ scale_arg $ dataset_arg $ verbose_arg)

let cmd_faults backend scale_name dataset epsilon csv verbose cache_dir no_cache
    resume =
  setup_logs verbose;
  setup_backend backend;
  let cache = setup_cache ~cache_dir ~no_cache in
  let scale = Experiments.Setup.of_name scale_name in
  let surrogate = Experiments.Setup.surrogate_of_scale scale in
  let progress msg = Printf.eprintf "[faults] %s\n%!" msg in
  let t0 = Unix.gettimeofday () in
  let result =
    Experiments.Faults.run ~cache ~checkpoints:resume ~progress ?dataset
      ~epsilon scale surrogate
  in
  print_string (Experiments.Faults.render result);
  Printf.printf "(%.1fs)\n" (Unix.gettimeofday () -. t0);
  (match csv with
  | Some path ->
      let header, rows = Experiments.Faults.to_csv_rows result in
      Experiments.Report.write_csv ~path ~header ~rows;
      Printf.printf "wrote %s\n" path
  | None -> ());
  report_backend ();
  report_cache cache

let epsilon_arg =
  Arg.(value & opt float 0.10 & info [ "epsilon" ] ~doc:"family severity anchor")

let faults_cmd =
  Cmd.v
    (Cmd.info "faults"
       ~doc:"extension: fault-injection grid and severity sweeps (Variation models)")
    Term.(
      const cmd_faults $ backend_arg $ scale_arg $ dataset_arg $ epsilon_arg
      $ csv_arg $ verbose_arg $ cache_dir_arg $ no_cache_arg $ resume_arg)

let which_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "only" ] ~doc:"comma-separated subset: sampler,architecture,init,temperature,depth")

let ablations_cmd =
  Cmd.v
    (Cmd.info "ablations" ~doc:"design-choice ablation benches (DESIGN.md §5)")
    Term.(
      const cmd_ablations $ backend_arg $ which_arg $ verbose_arg
      $ cache_dir_arg $ no_cache_arg)

let main =
  Cmd.group
    (Cmd.info "experiment" ~doc:"reproduce the paper's tables and figures")
    [
      table1_cmd; table2_cmd; table3_cmd; fig2_cmd; fig4_cmd; ablations_cmd;
      lifetime_cmd; faults_cmd;
    ]

let () = exit (Cmd.eval main)
