(* Sharded multi-process experiment orchestration.

   `run` expands the scenario matrix (datasets × arms × training ε × seeds,
   plus an optional fault-table block) into content-addressed work units,
   drives a pool of forked worker processes through the directory queue, and
   assembles Table II / Table III / the fault tables from the shared cache —
   byte-identical to a single-process run at any worker count.

   Examples:
     dune exec bin/orchestrate.exe -- run --scale quick --workers 4
     dune exec bin/orchestrate.exe -- run --scale paper --datasets all \
       --faults seeds --cache _cache --queue _cache/queue
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
  let surrogate = Experiments.Setup.surrogate_of_scale ~cache scale in
  let datasets = List.map Datasets.Bench13.load datasets_arg in
  let faults = Option.map (fun d -> (d, fault_eps)) faults in
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

(* {1 CLI} *)

let scale_arg =
  Arg.(
    value & opt string "quick"
    & info [ "scale" ] ~doc:"experiment scale: quick|committed|paper|fragile")

let datasets_arg =
  Arg.(
    value & opt Dataset_flag.names Dataset_flag.known
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
    value & opt (some Dataset_flag.name) None
    & info [ "faults" ]
        ~doc:"also run the fault-table block on this dataset (e.g. seeds)")

let fault_eps_arg =
  Arg.(
    value & opt Severity.fault_anchor 0.10
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

let main =
  Cmd.group
    (Cmd.info "orchestrate"
       ~doc:"sharded multi-process experiment orchestration")
    [ run_cmd ]

let () = exit (Cmd.eval main)
