(* Runs the paper's Fig. 3 modelling pipeline: QMC-sample the design space,
   simulate each circuit, fit ptanh parameters, train the surrogate MLP, and
   cache the artifact for the experiment harnesses. *)

open Cmdliner

let setup_logs () =
  Fmt_tty.setup_std_outputs ();
  Logs.set_reporter (Logs_fmt.reporter ());
  Logs.set_level (Some Logs.Info)

let run n seed max_epochs arch_small force dir =
  setup_logs ();
  let arch =
    if arch_small then [ 10; 8; 6; 4 ] else Surrogate.Model.paper_arch
  in
  let arch_tag = String.concat "-" (List.map string_of_int arch) in
  let path = Printf.sprintf "%s/surrogate_n%d_%s_seed%d.txt" dir n arch_tag seed in
  if force && Sys.file_exists path then Sys.remove path;
  let t0 = Clock.now () in
  let dataset = Surrogate.Pipeline.generate_dataset ~n () in
  let t1 = Clock.now () in
  Printf.printf "dataset: kept %d / %d samples (%d rejected) in %.1fs\n%!"
    (Array.length dataset.Surrogate.Pipeline.omegas)
    n dataset.Surrogate.Pipeline.rejected (t1 -. t0);
  Printf.printf "mean fit RMSE: %.5f V\n%!"
    (Stats.mean dataset.Surrogate.Pipeline.fit_rmses);
  let rng = Rng.create seed in
  let model, report = Surrogate.Pipeline.train_surrogate ~arch ~max_epochs rng dataset in
  let t2 = Clock.now () in
  Printf.printf
    "surrogate (%s): train MSE %.5f R2 %.4f | val MSE %.5f R2 %.4f | test MSE %.5f R2 %.4f\n"
    arch_tag report.Surrogate.Pipeline.train_mse report.Surrogate.Pipeline.train_r2
    report.Surrogate.Pipeline.val_mse report.Surrogate.Pipeline.val_r2
    report.Surrogate.Pipeline.test_mse report.Surrogate.Pipeline.test_r2;
  Printf.printf "epochs: %d, training time %.1fs\n" report.Surrogate.Pipeline.epochs_run
    (t2 -. t1);
  Cache.mkdir_p dir;
  Surrogate.Model.save_file model path;
  Printf.printf "saved %s\n" path

let n_arg =
  Arg.(value & opt int 10_000 & info [ "n" ] ~doc:"QMC samples (paper: 10000)")

let seed_arg = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"RNG seed")

let epochs_arg =
  Arg.(value & opt int 3000 & info [ "epochs" ] ~doc:"max surrogate training epochs")

let arch_small_arg =
  Arg.(value & flag & info [ "small" ] ~doc:"use a small 10-8-6-4 architecture")

let force_arg = Arg.(value & flag & info [ "force" ] ~doc:"regenerate even if cached")

let dir_arg =
  Arg.(value & opt string "_artifacts" & info [ "dir" ] ~doc:"artifact directory")

let cmd =
  Cmd.v
    (Cmd.info "gen_surrogate" ~doc:"build the surrogate nonlinear-circuit model")
    Term.(const run $ n_arg $ seed_arg $ epochs_arg $ arch_small_arg $ force_arg $ dir_arg)

let () = exit (Cmd.eval cmd)
