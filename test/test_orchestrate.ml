(* Multi-process experiment orchestration tests.

   Three layers under test:
   - the directory work queue's claim/lease/steal protocol, driven with a
     fake clock (the queue never reads a real one);
   - the plan expansion: every orchestrated unit must land on exactly the
     cache entry the single-process table runners read back;
   - the coordinator end-to-end: quick Table II byte-identical at worker
     counts 1 / 2 / 4, including a crash-injected worker (steal + checkpoint
     resume) and a real SIGKILL mid-run.

   Fork discipline: OCaml 5 permanently refuses Unix.fork once a process has
   ever spawned a domain, so the very first thing this binary does is pin
   the shared pool to the sequential path.  The one test that opens the
   latch on purpose (spawning a domain to prove the coordinator then
   refuses) runs last. *)

let fork_safe = Parallel.require_sequential ()

module O = Orchestration
module Q = Orchestration.Work_queue

let tmp_root () =
  let path = Filename.temp_file "pnn_orch_test" "" in
  Sys.remove path;
  Cache.mkdir_p path;
  path

(* {1 Queue protocol (fake clock)} *)

let test_queue_claim_lease_steal () =
  let root = Filename.concat (tmp_root ()) "q" in
  let q = Q.init ~root ~units:[ ("bbb", "second"); ("aaa", "first") ] in
  (* re-init is idempotent and never clobbers *)
  let _ = Q.init ~root ~units:[ ("aaa", "clobber attempt") ] in
  Alcotest.(check (list string)) "sorted keys" [ "aaa"; "bbb" ] (Q.unit_keys q);
  Alcotest.(check (list string)) "all pending" [ "aaa"; "bbb" ] (Q.pending q);
  Alcotest.(check bool) "claim" true
    (Q.claim q ~owner:"w1" ~now:0.0 ~lease:10.0 "aaa");
  Alcotest.(check bool) "claim is exclusive" false
    (Q.claim q ~owner:"w2" ~now:1.0 ~lease:10.0 "aaa");
  (match Q.read_claim q "aaa" with
  | Some c ->
      Alcotest.(check string) "owner" "w1" c.Q.owner;
      Alcotest.(check (float 1e-9)) "expiry" 10.0 c.Q.expires
  | None -> Alcotest.fail "claim must be readable");
  Alcotest.(check bool) "renew by owner" true
    (Q.renew q ~owner:"w1" ~now:5.0 ~lease:10.0 "aaa");
  Alcotest.(check bool) "renew by other" false
    (Q.renew q ~owner:"w2" ~now:5.0 ~lease:10.0 "aaa");
  Alcotest.(check bool) "steal before expiry" false
    (Q.steal_expired q ~now:14.9 "aaa");
  Alcotest.(check bool) "steal after expiry" true
    (Q.steal_expired q ~now:15.1 "aaa");
  Alcotest.(check bool) "only one stealer wins" false
    (Q.steal_expired q ~now:15.1 "aaa");
  Alcotest.(check bool) "stolen unit reclaimable" true
    (Q.claim q ~owner:"w2" ~now:16.0 ~lease:10.0 "aaa");
  Q.mark_done q "aaa";
  Q.mark_done q "aaa";
  Q.release q ~owner:"w2" "aaa";
  Alcotest.(check bool) "done" true (Q.is_done q "aaa");
  Alcotest.(check (list string)) "pending excludes done" [ "bbb" ] (Q.pending q);
  Alcotest.(check bool) "done unit unclaimable" false
    (Q.claim q ~owner:"w1" ~now:20.0 ~lease:10.0 "aaa");
  Alcotest.(check bool) "unknown unit unclaimable" false
    (Q.claim q ~owner:"w1" ~now:20.0 ~lease:10.0 "zzz")

let test_queue_acquire_order_and_corruption () =
  let root = Filename.concat (tmp_root ()) "q" in
  let q = Q.init ~root ~units:[ ("a", "-"); ("b", "-"); ("c", "-") ] in
  Alcotest.(check bool) "w1 takes a" true
    (Q.claim q ~owner:"w1" ~now:0.0 ~lease:100.0 "a");
  Alcotest.(check (option string)) "acquire skips live claim"
    (Some "b")
    (Q.acquire q ~owner:"w2" ~now:1.0 ~lease:100.0);
  Alcotest.(check (option string)) "acquire takes next" (Some "c")
    (Q.acquire q ~owner:"w2" ~now:1.0 ~lease:100.0);
  Alcotest.(check (option string)) "all claimed -> none" None
    (Q.acquire q ~owner:"w3" ~now:1.0 ~lease:100.0);
  Alcotest.(check (option string)) "expired lease stolen via acquire"
    (Some "a")
    (Q.acquire q ~owner:"w3" ~now:200.0 ~lease:100.0);
  (* a torn/corrupt claim file must not wedge its unit *)
  Q.mark_done q "a";
  Q.mark_done q "b";
  let corrupt = Filename.concat (Filename.concat root "claims") "c.claim" in
  Out_channel.with_open_bin corrupt (fun oc ->
      Out_channel.output_string oc "garbage");
  Alcotest.(check bool) "corrupt claim reads as none" true
    (Q.read_claim q "c" = None);
  Alcotest.(check (option string)) "corrupt claim stolen and reclaimed"
    (Some "c")
    (Q.acquire q ~owner:"w4" ~now:1.0 ~lease:100.0)

(* An expiry of nan or inf parses as a float but never compares as past:
   such a claim is damaged, and must not stay live forever. *)
let test_queue_non_finite_expiry () =
  List.iter
    (fun expiry ->
      let root = Filename.concat (tmp_root ()) "q" in
      let q = Q.init ~root ~units:[ ("u", "-") ] in
      let path = Filename.concat (Filename.concat root "claims") "u.claim" in
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc ("w9\n" ^ expiry ^ "\n"));
      Alcotest.(check bool) (expiry ^ " claim reads as none") true
        (Q.read_claim q "u" = None);
      Alcotest.(check (option string)) (expiry ^ " claim stolen and reclaimed")
        (Some "u")
        (Q.acquire q ~owner:"w4" ~now:1.0 ~lease:100.0))
    [ "nan"; "inf" ]

(* {1 Fixtures (mirroring test_parallel's tiny scale)} *)

let surrogate =
  lazy
    (let dataset = Surrogate.Pipeline.generate_dataset ~n:250 () in
     fst
       (Surrogate.Pipeline.train_surrogate ~arch:[ 10; 8; 6; 4 ] ~max_epochs:150
          (Rng.create 42) dataset))

let blob_data name seed =
  Datasets.Synth.generate
    {
      Datasets.Synth.name;
      features = 3;
      classes = 2;
      samples = 70;
      modes_per_class = 1;
      class_sep = 0.32;
      spread = 0.06;
      label_noise = 0.0;
      priors = None;
      seed;
    }

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

let make_ctx ?faults ~root ~tag () =
  let cache = Cache.create ~dir:(Filename.concat root (tag ^ ".cache")) in
  O.Plan.create
    ~datasets:[ blob_data "orch-blobs" 19 ]
    ?faults ~checkpoint_every:5 ~cache tiny_scale (Lazy.force surrogate)

let orchestrated ?chaos ~root ~tag ~workers ~lease () =
  let ctx = make_ctx ~root ~tag () in
  let queue_root = Filename.concat root (tag ^ ".queue") in
  let report = O.Coordinator.run ~workers ~lease ?chaos ~queue_root ctx in
  (ctx, report, Experiments.Table2.render (O.Coordinator.table2 ctx))

let key j = j.Experiments.Seeds.key

(* {1 Plan expansion: orchestrated units are the table runners' cache keys} *)

(* Every unit of a plan with a fault block, once trained, leaves the table
   assembly nothing to train: the units are exactly the cells the runners
   read back. *)
let test_units_cover_assembly () =
  let ctx = make_ctx ~faults:("seeds", 0.10) ~root:(tmp_root ()) ~tag:"cover" () in
  let units = O.Plan.units ctx in
  List.iter (fun j -> ignore (j.Experiments.Seeds.train ())) units;
  let cells () =
    List.filter_map
      (fun e ->
        if e.Cache.kind = "t2cell" || e.Cache.kind = "faultcell" then
          Some (e.Cache.kind ^ " " ^ e.Cache.key)
        else None)
      (Cache.entries ~dir:(Option.get (Cache.dir ctx.O.Plan.cache)) ())
  in
  let trained = cells () in
  (* 4 arms x 1 eps x 2 seeds = 8 t2 cells, plus (1 nominal + 4 families) x
     2 seeds = 10 fault cells, all distinct *)
  Alcotest.(check int) "one cell per unit" 18 (List.length trained);
  Alcotest.(check int) "unit count" 18 (List.length units);
  ignore (O.Coordinator.table2 ctx);
  Alcotest.(check bool) "fault block assembled" true
    (O.Coordinator.fault_table ctx <> None);
  Alcotest.(check (list string)) "assembly trains no new cell" trained (cells ())

(* The ordered unit keys of a tiny plan with a fault block on a benchmark
   dataset: which cells the orchestrator shards, and in what order. *)
let test_plan_unit_keys_pin () =
  let ctx = make_ctx ~faults:("seeds", 0.10) ~root:(tmp_root ()) ~tag:"pin" () in
  let keys = List.map key (O.Plan.units ctx) in
  Alcotest.(check int) "unit count" 18 (List.length keys);
  Alcotest.(check string) "keys in order" "a891e48d636e1d14cf38b446ed0c5869"
    (Cache.digest_lines keys)

(* An ill-formed fault block is refused before the queue is written. *)
let test_bad_fault_block_refused () =
  let root = tmp_root () in
  let ctx = make_ctx ~faults:("seeds", Float.nan) ~root ~tag:"nan" () in
  let queue_root = Filename.concat root "nan.queue" in
  (match O.Coordinator.run ~queue_root ctx with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "a NaN fault anchor must be refused");
  Alcotest.(check bool) "no queue written" false (Sys.file_exists queue_root)

(* {1 Crash injection: checkpoint survives, resume is exact} *)

let test_interrupted_unit_resumes_from_checkpoint () =
  let root = tmp_root () in
  let ctx = make_ctx ~root ~tag:"resume" () in
  let job = List.hd (O.Plan.units ctx) in
  let key = key job in
  (match job.Experiments.Seeds.train ~interrupt_after:8 () with
  | exception Pnn.Training.Interrupted -> ()
  | _ -> Alcotest.fail "interrupt_after must raise");
  (* the epoch-5 checkpoint must be on disk inside the cache tree *)
  let ckpt =
    match Cache.member_path ctx.O.Plan.cache ~kind:"ckpt" ~key with
    | Some p -> p
    | None -> Alcotest.fail "cache must map a checkpoint path"
  in
  Alcotest.(check bool) "checkpoint written before crash" true
    (Sys.file_exists ckpt);
  (* recovery resumes and publishes a result identical to a never-crashed
     single-process run of the same cell *)
  ignore (job.Experiments.Seeds.train ());
  let recovered = Cache.find ctx.O.Plan.cache ~kind:"t2cell" ~key in
  Alcotest.(check bool) "recovered cell published" true (recovered <> None);
  Alcotest.(check bool) "checkpoint cleaned after publish" false
    (Sys.file_exists ckpt);
  let clean_ctx = make_ctx ~root ~tag:"resume-clean" () in
  ignore ((List.hd (O.Plan.units clean_ctx)).Experiments.Seeds.train ());
  let clean = Cache.find clean_ctx.O.Plan.cache ~kind:"t2cell" ~key in
  Alcotest.(check bool) "resumed bit-identical to uninterrupted" true
    (recovered = clean)

(* {1 End-to-end determinism: workers 1 / 2 / 4} *)

let test_table2_byte_identical_1_2_4 () =
  if not fork_safe then Alcotest.fail "fixture spawned domains before fork";
  let root = tmp_root () in
  let _, _, t1 = orchestrated ~root ~tag:"w1" ~workers:1 ~lease:30.0 () in
  let _, r2, t2 = orchestrated ~root ~tag:"w2" ~workers:2 ~lease:30.0 () in
  let _, r4, t4 = orchestrated ~root ~tag:"w4" ~workers:4 ~lease:30.0 () in
  Alcotest.(check int) "w2 saw all units" 8 r2.O.Coordinator.units;
  Alcotest.(check int) "w4 saw all units" 8 r4.O.Coordinator.units;
  Alcotest.(check string) "2 workers byte-identical" t1 t2;
  Alcotest.(check string) "4 workers byte-identical" t1 t4

let test_killed_worker_steal_and_resume () =
  let root = tmp_root () in
  let _, _, baseline = orchestrated ~root ~tag:"kb" ~workers:1 ~lease:30.0 () in
  (* worker 0 dies mid-unit (Interrupted after epoch 8, past the epoch-5
     checkpoint); its claim must expire, be stolen, and the cell resume *)
  let chaos = function
    | 0 -> Some { O.Worker.interrupt_after = Some 8 }
    | _ -> None
  in
  let _, report, table =
    orchestrated ~chaos ~root ~tag:"kc" ~workers:2 ~lease:0.5 ()
  in
  Alcotest.(check bool) "crashed worker was respawned" true
    (report.O.Coordinator.respawns >= 1);
  Alcotest.(check string) "post-crash table byte-identical" baseline table

let test_sigkill_recovery () =
  let root = tmp_root () in
  let _, _, baseline = orchestrated ~root ~tag:"sb" ~workers:1 ~lease:30.0 () in
  let ctx = make_ctx ~root ~tag:"sk" () in
  let units = O.Plan.units ctx in
  let queue_root = Filename.concat root "sk.queue" in
  let q =
    Q.init ~root:queue_root
      ~units:(List.map (fun j -> (key j, j.Experiments.Seeds.label)) units)
  in
  flush stdout;
  flush stderr;
  (* pnnlint:allow R7 deliberate crash-test fork: this test process has
     spawned no domains when it forks, and the child only exercises the
     worker lease path before _exit *)
  (match Unix.fork () with
  | 0 ->
      (try ignore (O.Worker.run q ~units ~owner:"victim" ~lease:0.5 ())
       with _ -> ());
      Unix._exit 0
  | pid ->
      (* kill -9 at an arbitrary point: whatever state the victim reached
         (mid-unit, between units, already finished), recovery must converge
         on the identical table *)
      Unix.sleepf 0.1;
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] pid));
  let report = O.Coordinator.run ~workers:1 ~lease:0.5 ~queue_root ctx in
  Alcotest.(check int) "queue drained" 8 report.O.Coordinator.units;
  Alcotest.(check (list string)) "nothing pending" []
    (Q.pending (Q.load ~root:queue_root));
  let table = Experiments.Table2.render (O.Coordinator.table2 ctx) in
  Alcotest.(check string) "post-SIGKILL table byte-identical" baseline table

(* {1 Fork-safety latch (must run last: it spawns a domain)} *)

let test_fork_latch_refuses_after_domains () =
  ignore (Domain.join (Domain.spawn (fun () -> 1 + 1)));
  let root = tmp_root () in
  let ctx = make_ctx ~root ~tag:"latch" () in
  match
    O.Coordinator.run ~workers:2 ~queue_root:(Filename.concat root "latch.q")
      ctx
  with
  | exception O.Coordinator.Workers_failed _ -> ()
  | _ -> Alcotest.fail "coordinator must refuse to fork after Domain.spawn"

let () =
  Alcotest.run "orchestrate"
    [
      ( "queue",
        [
          Alcotest.test_case "claim/lease/steal protocol" `Quick
            test_queue_claim_lease_steal;
          Alcotest.test_case "acquire order and corrupt claims" `Quick
            test_queue_acquire_order_and_corruption;
          Alcotest.test_case "non-finite claim expiry is stealable" `Quick
            test_queue_non_finite_expiry;
        ] );
      ( "plan",
        [
          Alcotest.test_case "units cover the assembly" `Quick
            test_units_cover_assembly;
          Alcotest.test_case "unit keys pinned" `Quick test_plan_unit_keys_pin;
          Alcotest.test_case "bad fault block refused before the queue" `Quick
            test_bad_fault_block_refused;
          Alcotest.test_case "interrupted unit resumes from checkpoint" `Quick
            test_interrupted_unit_resumes_from_checkpoint;
        ] );
      ( "coordinator",
        [
          Alcotest.test_case "Table II byte-identical at 1/2/4 workers" `Quick
            test_table2_byte_identical_1_2_4;
          Alcotest.test_case "killed worker: steal + resume" `Quick
            test_killed_worker_steal_and_resume;
          Alcotest.test_case "SIGKILL mid-run recovery" `Quick
            test_sigkill_recovery;
          Alcotest.test_case "fork latch refuses after domains" `Quick
            test_fork_latch_refuses_after_domains;
        ] );
    ]
