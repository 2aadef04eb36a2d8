(* Tests for the deterministic multicore execution layer.

   The determinism contract: every parallel entry point is bit-identical for
   any worker count.  The suite compares explicit 1-job and 4-job pools
   in-process; the dune [determinism] alias additionally re-runs this binary
   under REPRO_JOBS=1 and REPRO_JOBS=4 to exercise the env-driven shared
   pool. *)

module T = Tensor
module A = Autodiff
module P = Parallel.Pool

let pool1 = lazy (P.create ~jobs:1 ())
let pool4 = lazy (P.create ~jobs:4 ())

let check_float_array msg a b =
  Alcotest.(check (array (float 0.0))) msg a b

(* {1 Pool combinators} *)

let test_map_matches_sequential () =
  let a = Array.init 10_000 (fun i -> float_of_int i *. 0.37) in
  let f x = (Stdlib.sin x *. Stdlib.exp (x *. 1e-4)) +. (x *. x *. 1e-3) in
  let expected = Array.map f a in
  check_float_array "jobs=1" expected (P.map_array (Lazy.force pool1) f a);
  check_float_array "jobs=4" expected (P.map_array (Lazy.force pool4) f a)

let test_mapi_and_list () =
  let a = Array.init 1000 (fun i -> i) in
  let f i x = (i * 3) + x in
  Alcotest.(check (array int))
    "mapi" (Array.mapi f a)
    (P.mapi_array (Lazy.force pool4) f a);
  let l = List.init 257 (fun i -> i) in
  Alcotest.(check (list int))
    "map_list"
    (List.map (fun x -> x * x) l)
    (P.map_list (Lazy.force pool4) (fun x -> x * x) l)

let test_parallel_for_covers_all_indices () =
  let n = 5000 in
  let hits = Array.make n 0 in
  P.parallel_for (Lazy.force pool4) ~n (fun i -> hits.(i) <- hits.(i) + 1);
  Alcotest.(check bool) "each index exactly once" true
    (Array.for_all (fun h -> h = 1) hits)

(* {1 Shutdown and failure semantics} *)

let test_shutdown_idempotent () =
  let pool = P.create ~jobs:4 () in
  let a = Array.init 100 (fun i -> i) in
  Alcotest.(check (array int)) "live pool" (Array.map succ a)
    (P.map_array pool succ a);
  P.shutdown pool;
  P.shutdown pool;
  (* after shutdown the pool degrades to the sequential path *)
  Alcotest.(check (array int)) "after shutdown" (Array.map succ a)
    (P.map_array pool succ a)

let test_worker_exception_propagates () =
  Alcotest.check_raises "exception crosses domains" (Failure "boom") (fun () ->
      ignore
        (P.map_array (Lazy.force pool4)
           (fun i -> if i = 17 then failwith "boom" else i)
           (Array.init 100 (fun i -> i))));
  (* the pool survives a failed region *)
  Alcotest.(check (array int)) "pool still healthy" [| 1; 2; 3 |]
    (P.map_array (Lazy.force pool4) succ [| 0; 1; 2 |])

(* {1 Fixtures for the wired-in hot loops} *)

let surrogate =
  lazy
    (let dataset =
       Surrogate.Pipeline.generate_dataset ~pool:(Lazy.force pool1) ~n:250 ()
     in
     fst
       (Surrogate.Pipeline.train_surrogate ~arch:[ 10; 8; 6; 4 ] ~max_epochs:150
          (Rng.create 42) dataset))

let blob_data =
  lazy
    (Datasets.Synth.generate
       {
         Datasets.Synth.name = "par-blobs";
         features = 3;
         classes = 2;
         samples = 70;
         modes_per_class = 1;
         class_sep = 0.32;
         spread = 0.06;
         label_noise = 0.0;
         priors = None;
         seed = 19;
       })

let blob_split () = Datasets.Synth.split (Rng.create 8) (Lazy.force blob_data)

let config =
  { Pnn.Config.default with Pnn.Config.epsilon = 0.1; n_mc_train = 5; n_mc_val = 3 }

let make_net seed =
  Pnn.Network.create (Rng.create seed) config (Lazy.force surrogate) ~inputs:3
    ~outputs:2

(* {1 Bit-identity of the wired hot loops across job counts} *)

let bits = Int64.bits_of_float

let check_tensor_bits msg a b =
  Alcotest.(check (array int64))
    msg
    (Array.map bits (T.to_array a))
    (Array.map bits (T.to_array b))

let test_mc_accuracy_bit_identical () =
  let net = make_net 11 in
  let split = blob_split () in
  let eval pool =
    Pnn.Evaluation.mc_accuracy ~pool (Rng.create 5) net
      ~model:(Pnn.Variation.Uniform 0.08) ~n:16
      ~x:split.Datasets.Synth.x_test ~y:split.Datasets.Synth.y_test
  in
  let r1 = eval (Lazy.force pool1) in
  let r4 = eval (Lazy.force pool4) in
  Alcotest.(check int) "16 draws" 16 (Array.length r1.Pnn.Evaluation.accuracies);
  Alcotest.(check (array int64))
    "accuracies bitwise equal"
    (Array.map bits r1.Pnn.Evaluation.accuracies)
    (Array.map bits r4.Pnn.Evaluation.accuracies);
  Alcotest.(check bool) "means bitwise equal" true
    (Int64.equal
       (bits r1.Pnn.Evaluation.mean)
       (bits r4.Pnn.Evaluation.mean))

(* One full training step (pooled MC loss -> backward -> Adam) must move the
   parameters to bit-identical values for 1 and 4 jobs. *)
let one_step pool =
  let net = make_net 23 in
  let split = blob_split () in
  let data = Pnn.Training.of_split ~n_classes:2 split in
  let shapes = Pnn.Network.theta_shapes net in
  let noises =
    Pnn.Noise.draw_many (Rng.create 31) ~epsilon:0.1 ~theta_shapes:shapes ~n:6
  in
  let loss =
    Pnn.Network.mc_loss_pooled pool net ~noises ~x:data.Pnn.Training.x_train
      ~labels:data.Pnn.Training.y_train
  in
  A.backward loss;
  let params = Pnn.Network.params_theta net @ Pnn.Network.params_omega net in
  let grads = List.map (fun p -> T.copy (A.grad p)) params in
  let opt = Nn.Optimizer.adam ~lr:0.05 () in
  Nn.Optimizer.step opt params;
  (T.get (A.value loss) 0 0, grads, List.map (fun p -> T.copy (A.value p)) params)

let test_training_step_bit_identical () =
  let l1, g1, v1 = one_step (Lazy.force pool1) in
  let l4, g4, v4 = one_step (Lazy.force pool4) in
  Alcotest.(check bool) "loss bitwise equal" true (Int64.equal (bits l1) (bits l4));
  List.iteri (fun i (a, b) -> check_tensor_bits (Printf.sprintf "grad %d" i) a b)
    (List.combine g1 g4);
  List.iteri
    (fun i (a, b) -> check_tensor_bits (Printf.sprintf "updated param %d" i) a b)
    (List.combine v1 v4)

let test_generate_dataset_bit_identical () =
  let gen pool = Surrogate.Pipeline.generate_dataset ~pool ~n:64 () in
  let d1 = gen (Lazy.force pool1) in
  let d4 = gen (Lazy.force pool4) in
  Alcotest.(check int) "rejected equal" d1.Surrogate.Pipeline.rejected
    d4.Surrogate.Pipeline.rejected;
  Alcotest.(check int) "kept equal"
    (Array.length d1.Surrogate.Pipeline.omegas)
    (Array.length d4.Surrogate.Pipeline.omegas);
  let flatten rows = Array.concat (Array.to_list rows) in
  Alcotest.(check (array int64))
    "omegas bitwise equal"
    (Array.map bits (flatten d1.Surrogate.Pipeline.omegas))
    (Array.map bits (flatten d4.Surrogate.Pipeline.omegas));
  Alcotest.(check (array int64))
    "etas bitwise equal"
    (Array.map bits (flatten d1.Surrogate.Pipeline.etas))
    (Array.map bits (flatten d4.Surrogate.Pipeline.etas));
  Alcotest.(check (array int64))
    "rmses bitwise equal"
    (Array.map bits d1.Surrogate.Pipeline.fit_rmses)
    (Array.map bits d4.Surrogate.Pipeline.fit_rmses)

(* A full (short) Training.fit — compiled loss graphs, in-place gradient reduction,
   Adam and early stopping included — must produce bit-identical loss
   histories and final parameters for 1 and 4 jobs. *)
let test_fit_bit_identical () =
  let fit pool =
    let net = make_net 23 in
    let data = Pnn.Training.of_split ~n_classes:2 (blob_split ()) in
    let short = { config with Pnn.Config.max_epochs = 8; patience = 20 } in
    let net = Pnn.Network.of_layers short (Pnn.Network.layers net) in
    let res = Pnn.Training.fit ~pool (Rng.create 77) net data in
    let params =
      List.map
        (fun p -> T.copy (A.value p))
        (Pnn.Network.params_theta net @ Pnn.Network.params_omega net)
    in
    (res.Pnn.Training.history, params)
  in
  let h1, p1 = fit (Lazy.force pool1) in
  let h4, p4 = fit (Lazy.force pool4) in
  Alcotest.(check (array int64))
    "train losses bitwise equal"
    (Array.map bits h1.Nn.Train.train_losses)
    (Array.map bits h4.Nn.Train.train_losses);
  Alcotest.(check (array int64))
    "val losses bitwise equal"
    (Array.map bits h1.Nn.Train.val_losses)
    (Array.map bits h4.Nn.Train.val_losses);
  List.iteri
    (fun i (a, b) -> check_tensor_bits (Printf.sprintf "final param %d" i) a b)
    (List.combine p1 p4)

(* Two seeds so the seed fan-out is exercised, one test epsilon, a short
   training budget. *)
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

(* Table II at the tiny scale: the rendered table (all cells) must match
   exactly across job counts. *)
let test_table2_bit_identical () =
  let scale = tiny_scale in
  let run pool =
    Experiments.Table2.run ~pool ~datasets:[ Lazy.force blob_data ] scale
      (Lazy.force surrogate)
  in
  let t1 = run (Lazy.force pool1) in
  let t4 = run (Lazy.force pool4) in
  Alcotest.(check string)
    "rendered tables identical"
    (Experiments.Table2.render t1)
    (Experiments.Table2.render t4)

(* {1 Runner digests}

   Every float a runner reports, in [%h] notation, hashed: one pinned digest
   that must hold at every REPRO_JOBS width the determinism alias runs. *)

let hex_digest floats = Cache.digest_lines (List.map (Printf.sprintf "%h") floats)

let faults_floats (t : Experiments.Faults.t) =
  let mc (r : Pnn.Evaluation.result) =
    Pnn.Evaluation.[ r.mean; r.std; r.min; r.q05; r.median; r.q95 ]
  in
  let sweep s = List.concat_map (fun (_, pts) -> List.concat_map (fun (_, r) -> mc r) pts) s in
  List.concat_map (fun (_, r) -> mc r) t.Experiments.Faults.grid
  @ sweep t.Experiments.Faults.defect_sweep
  @ sweep t.Experiments.Faults.sigma_sweep

let run_faults ?pool () =
  Experiments.Faults.run ?pool ~cache:(Cache.disabled ()) tiny_scale (Lazy.force surrogate)

let test_faults_digest () =
  Alcotest.(check string) "every mc_result field" "3cff339a615e0fa0892617f60e8bde4c" (hex_digest (faults_floats (run_faults ())))

let test_faults_bit_identical () =
  let t1 = run_faults ~pool:(Lazy.force pool1) () in
  let t4 = run_faults ~pool:(Lazy.force pool4) () in
  Alcotest.(check (list string))
    "every mc_result field bitwise equal"
    (List.map (Printf.sprintf "%h") (faults_floats t1))
    (List.map (Printf.sprintf "%h") (faults_floats t4))

let test_lifetime_digest () =
  let t =
    Experiments.Lifetime.run tiny_scale (Lazy.force surrogate)
  in
  let curve c =
    List.concat_map (fun (_, (x : Experiments.Table2.cell)) -> [ x.mean; x.std ]) c
  in
  Alcotest.(check string) "aging-unaware curve" "871aa2b2d5c335c2c2a8a96c209cf288"
    (hex_digest (curve t.Experiments.Lifetime.nominal_curve));
  Alcotest.(check string) "aging-aware curve" "da0d53f64a5ba3d539cad540b60dc7f7"
    (hex_digest (curve t.Experiments.Lifetime.aware_curve))

let table2_floats (t : Experiments.Table2.t) =
  let cells l =
    List.concat_map (fun (_, (c : Experiments.Table2.cell)) -> [ c.mean; c.std ]) l
  in
  List.concat_map (fun r -> cells r.Experiments.Table2.cells) t.Experiments.Table2.rows
  @ cells t.Experiments.Table2.average

(* Through the shared pool, so the determinism alias checks the same table
   at every REPRO_JOBS width. *)
let test_table2_digest () =
  let t =
    Experiments.Table2.run ~datasets:[ Lazy.force blob_data ] tiny_scale
      (Lazy.force surrogate)
  in
  Alcotest.(check string) "every cell and column average" "40116122e111fc4567838ae7b44ad6fb"
    (hex_digest (table2_floats t))

(* {1 Resuming a crashed run}

   A run that dies part-way leaves the cells it finished in the store; the
   rerun on that store, at another pool width, trains only what is missing
   and reports bit for bit what a run that never crashed reports. *)

exception Crash

let with_store f =
  let dir = Filename.temp_dir "pnn_par_resume" "" in
  Fun.protect ~finally:(fun () -> Fixtures.rm_rf dir) (fun () ->
      let keys () =
        List.map (fun e -> e.Cache.kind ^ " " ^ e.Cache.key) (Cache.entries ~dir ())
      in
      f (Cache.create ~dir) keys)

(* [progress] raising on its [n]th call stands in for the crash. *)
let crash_at n =
  let calls = ref 0 in
  fun _ ->
    incr calls;
    if !calls = n then raise Crash

let check_resume ~floats ~run =
  let clean = floats (run ~pool:(Lazy.force pool1) ~cache:(Cache.disabled ()) ~progress:ignore) in
  with_store (fun cache keys ->
      (match run ~pool:(Lazy.force pool4) ~cache ~progress:(crash_at 3) with
      | exception Crash -> ()
      | _ -> Alcotest.fail "the crash must escape the run");
      let partial = keys () in
      Alcotest.(check bool) "the crashed run stored its finished cells" true
        (partial <> []);
      let resumed = floats (run ~pool:(Lazy.force pool1) ~cache ~progress:ignore) in
      let all = keys () in
      Alcotest.(check bool) "the rerun kept every stored entry" true
        (List.for_all (fun k -> List.mem k all) partial);
      Alcotest.(check bool) "the rerun stored the missing cells" true
        (List.length all > List.length partial);
      Alcotest.(check (list string))
        "resumed bit-identical to a run that never crashed"
        (List.map (Printf.sprintf "%h") clean)
        (List.map (Printf.sprintf "%h") resumed);
      ignore (run ~pool:(Lazy.force pool4) ~cache ~progress:ignore);
      Alcotest.(check (list string)) "a finished store is all hits" all (keys ()))

let test_table2_resume () =
  check_resume ~floats:table2_floats ~run:(fun ~pool ~cache ~progress ->
      Experiments.Table2.run ~pool ~cache ~checkpoints:true ~progress
        ~datasets:[ Lazy.force blob_data ] tiny_scale (Lazy.force surrogate))

let test_faults_resume () =
  check_resume ~floats:faults_floats ~run:(fun ~pool ~cache ~progress ->
      Experiments.Faults.run ~pool ~cache ~checkpoints:true ~progress tiny_scale
        (Lazy.force surrogate))

(* {1 Fork latch}

   Runs last: [require_sequential] shuts the shared pool down. *)

let test_fork_latch_after_spawn () =
  let a = Array.init 100 (fun i -> i) in
  ignore (P.map_array (Lazy.force pool4) succ a);
  Alcotest.(check bool) "a process that spawned a domain may not fork" false
    (Parallel.require_sequential ());
  Alcotest.(check (array int)) "the pinned shared pool still maps" (Array.map succ a)
    (P.map_array (Parallel.get_pool ()) succ a)

let () =
  Alcotest.run "parallel"
    [
      ( "pool",
        [
          Alcotest.test_case "map matches sequential" `Quick test_map_matches_sequential;
          Alcotest.test_case "mapi and map_list" `Quick test_mapi_and_list;
          Alcotest.test_case "parallel_for coverage" `Quick
            test_parallel_for_covers_all_indices;
          Alcotest.test_case "shutdown idempotent" `Quick test_shutdown_idempotent;
          Alcotest.test_case "worker exception propagates" `Quick
            test_worker_exception_propagates;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "mc_accuracy bit-identical" `Quick
            test_mc_accuracy_bit_identical;
          Alcotest.test_case "training step bit-identical" `Quick
            test_training_step_bit_identical;
          Alcotest.test_case "fit bit-identical" `Quick test_fit_bit_identical;
          Alcotest.test_case "generate_dataset bit-identical" `Quick
            test_generate_dataset_bit_identical;
          Alcotest.test_case "table2 quick-scale bit-identical" `Quick
            test_table2_bit_identical;
          Alcotest.test_case "faults digest" `Quick test_faults_digest;
          Alcotest.test_case "faults bit-identical" `Quick test_faults_bit_identical;
          Alcotest.test_case "lifetime digest" `Quick test_lifetime_digest;
          Alcotest.test_case "table2 digest" `Quick test_table2_digest;
        ] );
      ( "resume",
        [
          Alcotest.test_case "table2 after a crash" `Quick test_table2_resume;
          Alcotest.test_case "faults after a crash" `Quick test_faults_resume;
        ] );
      ( "fork latch",
        [
          Alcotest.test_case "refused after a spawn" `Quick test_fork_latch_after_spawn;
        ] );
    ]
