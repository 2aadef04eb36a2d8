(* One worker's claim-execute-publish loop.

   The worker is the only orchestration layer that reads a wall clock, and
   only to operate the lease protocol (claim expiry stamps, renewal cadence,
   waiting for other workers' leases).  Results never see the clock: a
   unit's computation is a pure function of its job, and its identity
   is its content address. *)

type chaos = { interrupt_after : int option }

let no_chaos = { interrupt_after = None }

(* pnnlint:allow R2 wall clock feeds only the lease protocol (claim expiry
   stamps and renewal timing); unit results are clock-free by construction *)
let now () = Unix.gettimeofday ()

(* Renew the claim from a ticker domain while [f] computes the unit.  The
   worker process is single-domain when this runs (the coordinator shuts
   the shared pool down before forking), so spawning one domain is safe.
   If the claim was stolen meanwhile, [renew] keeps returning false; the
   computation still completes and publishes — content addressing makes the
   duplicate harmless. *)
let with_lease_renewal q ~owner ~lease ~key f =
  let stop = Atomic.make false in
  let ticker =
    Domain.spawn (fun () ->
        (* sleep in short slices so the join at unit completion is prompt
           even under long leases; renew at a third of the lease *)
        let slice = Float.max 0.005 (Float.min 0.05 (lease /. 10.0)) in
        let last = ref (now ()) in
        while not (Atomic.get stop) do
          Unix.sleepf slice;
          let t = now () in
          if (not (Atomic.get stop)) && t -. !last >= lease /. 3.0 then begin
            last := t;
            ignore (Work_queue.renew q ~owner ~now:t ~lease key)
          end
        done)
  in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set stop true;
      Domain.join ticker)
    f

let run ?(chaos = no_chaos) ?(ticker = true) q ~units ~owner ~lease () =
  let completed = ref 0 in
  let continue_ = ref true in
  while !continue_ do
    match Work_queue.acquire q ~owner ~now:(now ()) ~lease with
    | Some key ->
        let job =
          match List.find_opt (fun j -> j.Experiments.Seeds.key = key) units with
          | Some j -> j
          | None -> failwith ("Orchestrate.Worker: unknown unit " ^ key)
        in
        let execute () =
          ignore (job.Experiments.Seeds.train ?interrupt_after:chaos.interrupt_after ())
        in
        (* On any exception the claim is deliberately left in place: a
           crashing worker cannot release, so the simulated and the real
           crash take the same recovery path (lease expiry, then steal). *)
        if ticker then with_lease_renewal q ~owner ~lease ~key execute
        else execute ();
        Work_queue.mark_done q key;
        Work_queue.release q ~owner key;
        incr completed
    | None ->
        if Work_queue.pending q = [] then continue_ := false
        else
          (* everything claimable is claimed by live workers: wait for a
             completion or a lease expiry.  Capped well below the lease —
             a sibling's completion can land at any moment, and sleeping
             O(lease) here would stretch runs whose last units are already
             being computed by someone else. *)
          Unix.sleepf (Float.max 0.02 (Float.min 0.25 (lease /. 5.0)))
  done;
  !completed
