(* Forked-worker coordination.

   OCaml 5 forbids forking a process with live domains (the child would
   inherit dangling domain state), so the coordinator shuts the shared pool
   down — it degrades to a usable sequential pool — before any [Unix.fork].
   Each child is therefore single-domain at birth and free to spawn its own
   lease-renewal ticker.  Children leave via [Unix._exit] so the parent's
   [at_exit] handlers and buffered channels are not replayed. *)

type report = { units : int; workers : int; respawns : int; completed : int }

exception Workers_failed of string

let max_respawns workers = (2 * workers) + 2

let spawn_child ?chaos q ~units ~lease ~index =
  flush stdout;
  flush stderr;
  match Unix.fork () with
  (* the pool latch only sees domains the pool layer spawned; the runtime's
     own guard is the authority, so translate its refusal too *)
  | exception Failure msg -> raise (Workers_failed ("cannot fork: " ^ msg))
  | 0 ->
      let code =
        try
          let owner = Printf.sprintf "w%d.%d" index (Unix.getpid ()) in
          ignore (Worker.run ?chaos q ~units ~owner ~lease ());
          0
        with
        | Pnn.Training.Interrupted -> 10
        | _ -> 1
      in
      Unix._exit code
  | pid -> pid

let run ?(workers = 1) ?(lease = 30.0) ?(chaos = fun _ -> None) ~queue_root
    ctx =
  let units = Plan.units ctx in
  let q =
    Work_queue.init ~root:queue_root
      ~units:(List.map (fun j -> Experiments.Seeds.(j.key, j.label)) units)
  in
  let n_units = List.length units in
  let respawns = ref 0 in
  if workers <= 1 then begin
    (* In-process: no fork, no lease ticker (no contention, and spawning a
       domain would permanently disable Unix.fork for this process).
       Identical output by the pool contract (bit-identical at any worker
       count) plus content addressing (cache hits are bit-identical to
       computes). *)
    let completed =
      Worker.run ?chaos:(chaos 0) ~ticker:false q ~units ~owner:"w0" ~lease ()
    in
    { units = n_units; workers = 1; respawns = 0; completed }
  end
  else begin
    (* Fork safety: OCaml 5 refuses Unix.fork in any process that ever
       spawned a domain, so the shared pool must never have left the
       sequential path.  [require_sequential] pins it (creating it with
       jobs = 1 if absent) and reports whether the latch is still closed. *)
    if not (Parallel.require_sequential ()) then
      raise
        (Workers_failed
           "cannot fork workers: this process already spawned domains (run \
            the orchestrator before any pool work, or with REPRO_JOBS=1, or \
            use workers=1)");
    let live = Hashtbl.create workers in
    for index = 0 to workers - 1 do
      let pid = spawn_child ?chaos:(chaos index) q ~units ~lease ~index in
      Hashtbl.replace live pid index
    done;
    let failures = ref [] in
    while Hashtbl.length live > 0 do
      let pid, status = Unix.wait () in
      match Hashtbl.find_opt live pid with
      | None -> ()
      | Some index -> (
          Hashtbl.remove live pid;
          match status with
          | Unix.WEXITED 0 -> ()
          | _ ->
              (* abnormal exit (crash, kill, chaos): respawn a clean worker
                 while work remains and the budget allows.  The dead
                 worker's claim stays until its lease expires; the respawn
                 (or a surviving sibling) steals it and resumes from the
                 last checkpoint. *)
              if Work_queue.pending q <> [] && !respawns < max_respawns workers
              then begin
                incr respawns;
                let pid' = spawn_child q ~units ~lease ~index in
                Hashtbl.replace live pid' index
              end
              else if Work_queue.pending q <> [] then
                failures :=
                  Printf.sprintf "worker %d (pid %d) died with work pending"
                    index pid
                  :: !failures)
    done;
    (match Work_queue.pending q with
    | [] -> ()
    | left ->
        raise
          (Workers_failed
             (Printf.sprintf "%d units left unfinished (%s)" (List.length left)
                (String.concat "; " !failures))));
    {
      units = n_units;
      workers;
      respawns = !respawns;
      completed = n_units - List.length (Work_queue.pending q);
    }
  end

(* {2 Assembly}

   With every training unit published, the single-process table runners
   become pure cache readers: identical keys, identical decoded results,
   identical reductions — so the rendered tables are byte-identical to a
   run that never forked at all. *)

let table2 ctx =
  Experiments.Table2.run ~cache:ctx.Plan.cache ~datasets:ctx.Plan.datasets
    ctx.Plan.scale ctx.Plan.surrogate

let fault_table ctx =
  Option.map
    (fun (dataset, epsilon) ->
      Experiments.Faults.run ~cache:ctx.Plan.cache ~dataset ~epsilon
        ctx.Plan.scale ctx.Plan.surrogate)
    ctx.Plan.faults
