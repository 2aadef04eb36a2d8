(* Deterministic checkpoint/resume for Training.fit.

   The contract under test: a run interrupted mid-training and resumed from
   its checkpoint finishes bit-identically — loss histories, final
   parameters, best-validation snapshot, everything — to a run that was never
   interrupted.  Training fans out over the env-driven shared pool, so the
   dune [determinism] alias re-runs this binary under REPRO_JOBS=1 and 4. *)

module A = Autodiff
module T = Tensor
module C = Pnn.Config

let surrogate =
  lazy
    (let dataset = Surrogate.Pipeline.generate_dataset ~n:250 () in
     let model, _ =
       Surrogate.Pipeline.train_surrogate ~arch:[ 10; 8; 6; 4 ] ~max_epochs:300
         (Rng.create 42) dataset
     in
     model)

let blob_split () =
  let data =
    Datasets.Synth.generate
      {
        Datasets.Synth.name = "blob";
        features = 3;
        classes = 2;
        samples = 160;
        modes_per_class = 1;
        class_sep = 0.3;
        spread = 0.06;
        label_noise = 0.0;
        priors = None;
        seed = 31;
      }
  in
  Datasets.Synth.split (Rng.create 8) data

(* variation-aware so the in-loop RNG position is load-bearing *)
let config =
  {
    C.default with
    C.max_epochs = 20;
    patience = 40;
    epsilon = 0.1;
    n_mc_train = 2;
    val_every = 2;
  }

let train ?checkpoint ?(config = config) () =
  Pnn.Training.train_fresh ?checkpoint (Rng.create 4) config
    (Lazy.force surrogate) ~n_classes:2 (blob_split ())

let bits = Int64.bits_of_float

let fingerprint (res : Pnn.Training.result) =
  let params =
    Pnn.Network.params_theta res.Pnn.Training.network
    @ Pnn.Network.params_omega res.Pnn.Training.network
  in
  ( Array.map bits res.Pnn.Training.history.Nn.Train.train_losses,
    Array.map bits res.Pnn.Training.history.Nn.Train.val_losses,
    List.concat_map
      (fun p -> Array.to_list (Array.map bits (T.to_array (A.value p))))
      params,
    bits res.Pnn.Training.val_loss,
    res.Pnn.Training.history.Nn.Train.best_epoch,
    res.Pnn.Training.history.Nn.Train.stopped_early )

let check_same msg a b =
  let ta, va, pa, la, ba, sa = a and tb, vb, pb, lb, bb, sb = b in
  Alcotest.(check (array int64)) (msg ^ ": train losses") ta tb;
  Alcotest.(check (array int64)) (msg ^ ": val losses") va vb;
  Alcotest.(check (list int64)) (msg ^ ": final params") pa pb;
  Alcotest.(check int64) (msg ^ ": best val loss") la lb;
  Alcotest.(check int) (msg ^ ": best epoch") ba bb;
  Alcotest.(check bool) (msg ^ ": stopped_early") sa sb

let ckpt_path () =
  let p = Filename.temp_file "pnnckpt" ".pce" in
  Sys.remove p;
  p

let baseline = lazy (fingerprint (train ()))

(* {1 Interrupt then resume: bit-identical} *)

let test_interrupt_resume_bit_identical () =
  let path = ckpt_path () in
  let interrupted =
    {
      Pnn.Training.ckpt_path = path;
      every = 4;
      interrupt_after = Some 11;
    }
  in
  (match train ~checkpoint:interrupted () with
  | exception Pnn.Training.Interrupted -> ()
  | _ -> Alcotest.fail "interrupt_after must raise");
  Alcotest.(check bool) "checkpoint written before the crash" true
    (Sys.file_exists path);
  let resumed =
    train
      ~checkpoint:
        { Pnn.Training.ckpt_path = path; every = 4;
          interrupt_after = None }
      ()
  in
  check_same "resumed vs uninterrupted" (Lazy.force baseline)
    (fingerprint resumed);
  Sys.remove path

let test_double_interrupt_resume () =
  (* crash, resume, crash again later, resume again: still bit-identical *)
  let path = ckpt_path () in
  let ck ~stop =
    { Pnn.Training.ckpt_path = path; every = 2; interrupt_after = stop }
  in
  (match train ~checkpoint:(ck ~stop:(Some 5)) () with
  | exception Pnn.Training.Interrupted -> ()
  | _ -> Alcotest.fail "first interrupt");
  (match train ~checkpoint:(ck ~stop:(Some 13)) () with
  | exception Pnn.Training.Interrupted -> ()
  | _ -> Alcotest.fail "second interrupt");
  let resumed = train ~checkpoint:(ck ~stop:None) () in
  check_same "twice-interrupted vs uninterrupted" (Lazy.force baseline)
    (fingerprint resumed);
  Sys.remove path

(* {1 Checkpointing an uninterrupted run is invisible} *)

let test_checkpointing_is_invisible () =
  let path = ckpt_path () in
  let res =
    train
      ~checkpoint:
        { Pnn.Training.ckpt_path = path; every = 3;
          interrupt_after = None }
      ()
  in
  check_same "with vs without checkpointing" (Lazy.force baseline)
    (fingerprint res);
  if Sys.file_exists path then Sys.remove path

(* {1 Bad checkpoints degrade to a fresh start} *)

let test_missing_checkpoint_fresh_start () =
  let res =
    train
      ~checkpoint:
        { Pnn.Training.ckpt_path = ckpt_path (); every = 4;
          interrupt_after = None }
      ()
  in
  check_same "resume with no file" (Lazy.force baseline) (fingerprint res)

let test_corrupt_checkpoint_fresh_start () =
  let path = ckpt_path () in
  let oc = open_out_bin path in
  output_string oc "not a checkpoint\n";
  close_out oc;
  let res =
    train
      ~checkpoint:
        { Pnn.Training.ckpt_path = path; every = 4;
          interrupt_after = None }
      ()
  in
  check_same "resume from garbage" (Lazy.force baseline) (fingerprint res);
  Sys.remove path

let test_mismatched_config_fresh_start () =
  (* a checkpoint from a different training config must be ignored *)
  let path = ckpt_path () in
  let other = { config with C.max_epochs = 9; epsilon = 0.05 } in
  (match
     train ~config:other
       ~checkpoint:
         { Pnn.Training.ckpt_path = path; every = 2;
           interrupt_after = Some 5 }
       ()
   with
  | exception Pnn.Training.Interrupted -> ()
  | _ -> Alcotest.fail "interrupt under other config");
  Alcotest.(check bool) "stale checkpoint exists" true (Sys.file_exists path);
  let res =
    train
      ~checkpoint:
        { Pnn.Training.ckpt_path = path; every = 4;
          interrupt_after = None }
      ()
  in
  check_same "stale checkpoint ignored" (Lazy.force baseline) (fingerprint res);
  Sys.remove path

(* {1 Cells: the checkpoint wiring of Experiments.Seeds.cell}

   A cell keeps its checkpoint at the store's ["ckpt"] member path of its
   key, and only when it has both a cadence and an enabled store. *)

let with_store f =
  let dir = Filename.temp_dir "pnn_cell_ckpt" "" in
  Fun.protect ~finally:(fun () -> Fixtures.rm_rf dir) (fun () ->
      f (Cache.create ~dir))

let cell_key = Cache.key ~schema:"test" ~kind:"t2cell" [ "checkpoint cell" ]

(* [fit] sees the checkpoint the cell hands it, optionally with a crash
   injected, and trains on [pool]. *)
let cell ?pool ?checkpoint_every ?interrupt_after ?(seen = ref []) cache =
  Experiments.Seeds.cell ~cache ?checkpoint_every ~kind:"t2cell" ~key:cell_key
    (Lazy.force surrogate) (fun checkpoint ->
      seen := checkpoint :: !seen;
      let checkpoint =
        Option.map (fun c -> { c with Pnn.Training.interrupt_after }) checkpoint
      in
      Pnn.Training.train_fresh ?pool ?checkpoint (Rng.create 4) config
        (Lazy.force surrogate) ~n_classes:2 (blob_split ()))

let test_cell_checkpoint_wiring () =
  let seen = ref [] in
  let no_checkpoint what cache ?checkpoint_every () =
    seen := [];
    check_same what (Lazy.force baseline)
      (fingerprint (cell ?checkpoint_every ~seen cache));
    Alcotest.(check bool) (what ^ ": fit gets no checkpoint") true (!seen = [ None ])
  in
  no_checkpoint "disabled store with a cadence" (Cache.disabled ()) ~checkpoint_every:3 ();
  with_store (fun cache -> no_checkpoint "enabled store without a cadence" cache ());
  with_store (fun cache ->
      seen := [];
      check_same "checkpointed cell" (Lazy.force baseline)
        (fingerprint (cell ~checkpoint_every:3 ~seen cache));
      let path = Cache.member_path cache ~kind:"ckpt" ~key:cell_key in
      (match !seen with
      | [ Some c ] ->
          Alcotest.(check (option string)) "at the ckpt member path" path
            (Some c.Pnn.Training.ckpt_path);
          Alcotest.(check int) "at the given cadence" 3 c.Pnn.Training.every;
          Alcotest.(check bool) "with no crash hook" true (c.Pnn.Training.interrupt_after = None)
      | _ -> Alcotest.fail "fit must run once, with a checkpoint");
      Alcotest.(check bool) "no checkpoint left once the result lands" false
        (Sys.file_exists (Option.get path)))

let test_cell_hit_skips_fit () =
  with_store (fun cache ->
      let computed = fingerprint (cell ~checkpoint_every:3 cache) in
      let seen = ref [] in
      let hit = fingerprint (cell ~checkpoint_every:3 ~seen cache) in
      Alcotest.(check int) "a stored cell never calls fit" 0 (List.length !seen);
      check_same "hit vs compute" computed hit;
      check_same "hit vs uninterrupted" (Lazy.force baseline) hit)

(* The run that crashed and the run that resumes fan the Monte-Carlo loss
   over pools of different widths. *)
let test_cell_resumes_at_another_width () =
  let pool1 = Parallel.Pool.create ~jobs:1 () in
  let pool4 = Parallel.Pool.create ~jobs:4 () in
  Fun.protect
    ~finally:(fun () -> Parallel.Pool.shutdown pool1; Parallel.Pool.shutdown pool4)
    (fun () ->
      with_store (fun cache ->
          (match cell ~pool:pool4 ~checkpoint_every:4 ~interrupt_after:11 cache with
          | exception Pnn.Training.Interrupted -> ()
          | _ -> Alcotest.fail "interrupt_after must raise");
          let path = Option.get (Cache.member_path cache ~kind:"ckpt" ~key:cell_key) in
          Alcotest.(check bool) "checkpoint written before the crash" true
            (Sys.file_exists path);
          check_same "resumed at width 1 vs uninterrupted" (Lazy.force baseline)
            (fingerprint (cell ~pool:pool1 ~checkpoint_every:4 cache));
          Alcotest.(check bool) "checkpoint deleted once the result lands" false
            (Sys.file_exists path)))

let () =
  Alcotest.run "checkpoint"
    [
      ( "resume",
        [
          Alcotest.test_case "interrupt -> resume bit-identical" `Quick
            test_interrupt_resume_bit_identical;
          Alcotest.test_case "two interrupts" `Quick test_double_interrupt_resume;
          Alcotest.test_case "checkpointing is invisible" `Quick
            test_checkpointing_is_invisible;
        ] );
      ( "fallback",
        [
          Alcotest.test_case "missing file" `Quick
            test_missing_checkpoint_fresh_start;
          Alcotest.test_case "corrupt file" `Quick
            test_corrupt_checkpoint_fresh_start;
          Alcotest.test_case "mismatched config" `Quick
            test_mismatched_config_fresh_start;
        ] );
      ( "cell",
        [
          Alcotest.test_case "checkpoint wiring" `Quick test_cell_checkpoint_wiring;
          Alcotest.test_case "hit skips fit" `Quick test_cell_hit_skips_fit;
          Alcotest.test_case "resume at another width" `Quick
            test_cell_resumes_at_another_width;
        ] );
    ]
