(* Sharded multi-process experiment orchestration.

   `run` expands the scenario matrix (datasets × arms × training ε × seeds,
   plus an optional fault-table block) into content-addressed work units,
   drives a pool of forked worker processes through the directory queue, and
   assembles Table II / Table III / the fault tables from the shared cache —
   byte-identical to a single-process run at any worker count.

   `smoke` is the fast end-to-end check wired into `dune runtest`: a tiny
   matrix run at 1 worker and at 2 forked workers with a crash injected into
   one of them, asserting the recovered 2-worker table is byte-identical.

   Examples:
     dune exec bin/orchestrate.exe -- run --scale quick --workers 4
     dune exec bin/orchestrate.exe -- run --scale paper --datasets all \
       --faults seeds --cache _cache --queue _cache/queue
     dune exec bin/orchestrate.exe -- smoke
*)

open Cmdliner
module O = Orchestration

let setup_logs () =
  Fmt_tty.setup_std_outputs ();
  Logs.set_reporter (Logs_fmt.reporter ());
  Logs.set_level (Some Logs.Info)

(* pnnlint:allow R2 wall clock times phases for progress reporting only;
   every result below comes out of the content-addressed cache *)
let now () = Unix.gettimeofday ()

let fresh_dir prefix =
  let path = Filename.temp_file prefix "" in
  Sys.remove path;
  Cache.mkdir_p path;
  path

(* {1 run} *)

let cmd_run scale_name datasets_arg workers lease cache_dir queue_dir
    faults fault_eps checkpoint_every =
  setup_logs ();
  (* fork-safety: pin the pool to sequential before any pool work (the
     surrogate pipeline below would otherwise spawn domains and permanently
     disable Unix.fork); parallelism comes from the worker processes *)
  if workers > 1 && not (Parallel.require_sequential ()) then
    failwith "orchestrate: domains already spawned; cannot fork workers";
  let scale = Experiments.Setup.of_name scale_name in
  let cache = Cache.create ~dir:cache_dir in
  Cache.set_default cache;
  let surrogate = Experiments.Setup.surrogate_of_scale scale in
  let datasets =
    match datasets_arg with
    | "all" -> Datasets.Bench13.load_all ()
    | names ->
        List.map Datasets.Bench13.load
          (List.filter (fun s -> s <> "") (String.split_on_char ',' names))
  in
  let faults = match faults with "" -> None | d -> Some (d, fault_eps) in
  let ctx =
    O.Plan.create ~datasets ?faults ~checkpoint_every ~cache scale surrogate
  in
  let queue_root =
    match queue_dir with
    | "" -> Filename.concat cache_dir "queue"
    | d -> d
  in
  let t0 = now () in
  let report = O.Coordinator.run ~workers ~lease ~queue_root ctx in
  Printf.printf
    "orchestrate: %d units done with %d worker(s), %d respawn(s) in %.1fs\n%!"
    report.O.Coordinator.units report.O.Coordinator.workers
    report.O.Coordinator.respawns (now () -. t0);
  let t2 = O.Coordinator.table2 ctx in
  print_string (Experiments.Table2.render t2);
  print_newline ();
  print_string (Experiments.Table3.render (Experiments.Table3.of_table2 scale t2));
  (match O.Coordinator.fault_table ctx with
  | None -> ()
  | Some f ->
      print_newline ();
      print_string (Experiments.Faults.render f));
  print_newline ();
  Printf.printf "%s\n" (Cache.summary cache)

(* {1 Tiny smoke fixture} *)

let tiny_scale =
  {
    Experiments.Setup.seeds = [ 1; 2 ];
    test_epsilons = [ 0.05 ];
    n_mc_test = 4;
    config =
      {
        Pnn.Config.default with
        Pnn.Config.max_epochs = 20;
        patience = 20;
        n_mc_train = 2;
        n_mc_val = 2;
      };
    init = `Centered;
    surrogate_samples = 250;
    surrogate_epochs = 150;
  }

let tiny_surrogate () =
  let dataset = Surrogate.Pipeline.generate_dataset ~n:250 () in
  fst
    (Surrogate.Pipeline.train_surrogate ~arch:[ 10; 8; 6; 4 ] ~max_epochs:150
       (Rng.create 42) dataset)

let tiny_dataset () =
  Datasets.Synth.generate
    {
      Datasets.Synth.name = "orch-blobs";
      features = 3;
      classes = 2;
      samples = 70;
      modes_per_class = 1;
      class_sep = 0.32;
      spread = 0.06;
      label_noise = 0.0;
      priors = None;
      seed = 19;
    }

let orchestrated_table ~root ~tag ~workers ~lease ?chaos scale surrogate
    datasets =
  let cache = Cache.create ~dir:(Filename.concat root (tag ^ ".cache")) in
  let ctx =
    O.Plan.create ~datasets ~checkpoint_every:5 ~cache scale surrogate
  in
  let report =
    match chaos with
    | None ->
        O.Coordinator.run ~workers ~lease
          ~queue_root:(Filename.concat root (tag ^ ".queue"))
          ctx
    | Some c ->
        O.Coordinator.run ~workers ~lease ~chaos:c
          ~queue_root:(Filename.concat root (tag ^ ".queue"))
          ctx
  in
  (report, Experiments.Table2.render (O.Coordinator.table2 ctx))

(* {1 smoke} *)

let cmd_smoke () =
  if not (Parallel.require_sequential ()) then
    failwith "smoke: domains already spawned; cannot fork workers";
  let root = fresh_dir "pnn_orch_smoke" in
  Printf.printf "smoke: training throwaway surrogate...\n%!";
  let surrogate = tiny_surrogate () in
  let datasets = [ tiny_dataset () ] in
  let t0 = now () in
  let _, table1 =
    orchestrated_table ~root ~tag:"w1" ~workers:1 ~lease:30.0 tiny_scale
      surrogate datasets
  in
  Printf.printf "smoke: 1-worker run done in %.1fs\n%!" (now () -. t0);
  (* two forked workers; worker 0 crashes mid-unit (Interrupted after epoch
     8, past the epoch-5 checkpoint); the respawn must steal the expired
     claim, resume from the checkpoint, and the table must not notice *)
  let chaos = function
    | 0 -> Some { O.Worker.interrupt_after = Some 8 }
    | _ -> None
  in
  let t1 = now () in
  let report, table2 =
    orchestrated_table ~root ~tag:"w2" ~workers:2 ~lease:0.5 ~chaos
      tiny_scale surrogate datasets
  in
  Printf.printf "smoke: 2-worker crash-recovery run done in %.1fs (%d respawns)\n%!"
    (now () -. t1) report.O.Coordinator.respawns;
  let ok_identical = String.equal table1 table2 in
  let ok_respawned = report.O.Coordinator.respawns >= 1 in
  if not ok_respawned then
    print_endline "smoke: FAIL (chaos worker was never respawned)";
  if not ok_identical then begin
    print_endline "smoke: FAIL (tables differ)";
    print_string table1;
    print_string table2
  end;
  if ok_identical && ok_respawned then begin
    print_endline "smoke: PASS (2-worker crash-recovery table byte-identical)";
    exit 0
  end
  else exit 1

(* {1 CLI} *)

let scale_arg =
  Arg.(
    value & opt string "quick"
    & info [ "scale" ] ~doc:"experiment scale: quick|committed|paper|fragile")

let datasets_arg =
  Arg.(
    value & opt string "all"
    & info [ "datasets" ] ~doc:"comma-separated benchmark names, or 'all'")

let workers_arg =
  Arg.(
    value & opt int 1
    & info [ "workers" ] ~doc:"worker processes (1 = in-process, no fork)")

let lease_arg =
  Arg.(
    value & opt float 30.0
    & info [ "lease" ]
        ~doc:"claim lease seconds; bounds crash-recovery latency")

let cache_arg =
  Arg.(value & opt string "_cache" & info [ "cache" ] ~doc:"cache directory")

let queue_arg =
  Arg.(
    value & opt string ""
    & info [ "queue" ] ~doc:"queue root (default: <cache>/queue)")

let faults_arg =
  Arg.(
    value & opt string ""
    & info [ "faults" ]
        ~doc:"also run the fault-table block on this dataset (e.g. seeds)")

let fault_eps_arg =
  Arg.(
    value & opt float 0.10
    & info [ "fault-eps" ] ~doc:"fault-table severity anchor")

let ckpt_every_arg =
  Arg.(
    value & opt int 50
    & info [ "checkpoint-every" ]
        ~doc:"epochs between training checkpoints (crash-recovery grain)")

let run_cmd =
  Cmd.v
    (Cmd.info "run" ~doc:"orchestrate the experiment matrix across workers")
    Term.(
      const cmd_run $ scale_arg $ datasets_arg $ workers_arg
      $ lease_arg $ cache_arg $ queue_arg $ faults_arg $ fault_eps_arg
      $ ckpt_every_arg)

let smoke_cmd =
  Cmd.v
    (Cmd.info "smoke"
       ~doc:
         "fast end-to-end check: 2 forked workers + injected crash must \
          reproduce the 1-worker table byte-identically")
    Term.(const cmd_smoke $ const ())

let main =
  Cmd.group
    (Cmd.info "orchestrate"
       ~doc:"sharded multi-process experiment orchestration")
    [ run_cmd; smoke_cmd ]

let () = exit (Cmd.eval main)
