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
    ]
