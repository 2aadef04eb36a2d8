(* Benchmark and reproduction harness.

   Part 1 — Bechamel micro-benchmarks: one Test.make per computational pillar
   under the paper's tables and figures (crossbar forward, surrogate
   inference, Newton DC solve, DC sweep, Sobol sampling, LM fitting, a
   variation-aware training epoch).

   Part 2 — table/figure harnesses: regenerates Table I, Fig. 2, Fig. 4,
   Table II and Table III (reduced scale by default).

   Part 3 — sequential-vs-parallel variants of the Monte-Carlo pillars
   (mc eval, variation-aware epoch, surrogate generation) on a 1-job pool
   and on the REPRO_JOBS-sized pool, plus a machine-readable BENCH_1.json
   baseline (name -> ns/run, jobs used) for later PRs to compare against.

   Part 4 — allocation before/after pairs (BENCH_2.json): wall time plus
   Gc minor/major words per run for the allocating reference vs the
   in-place/cached implementations of the tensor kernels, surrogate batch
   inference, Monte-Carlo evaluation and the variation-aware epoch.

   Part 5 — cold-vs-warm content-addressed cache pair (BENCH_3.json): the
   same Table II slice run twice against one fresh cache directory; the
   second run must be served from the store (≥ 10× faster).

   Environment knobs:
     REPRO_SCALE=quick|committed|paper   (default quick)
     REPRO_DATASETS=iris,seeds,...       (default: all 13)
     REPRO_SKIP_TABLES=1                 (micro-benches only)
     REPRO_JOBS=N                        (parallel pool size; 1 = sequential)
     REPRO_BENCH_JSON=path               (default BENCH_1.json)
     REPRO_BENCH2_JSON=path              (default BENCH_2.json)
     REPRO_BENCH3_JSON=path              (default BENCH_3.json)
     REPRO_BENCH3_DATASETS=iris,seeds    (the Table II slice it re-runs)
     REPRO_SKIP_BENCH3=1                 (skip the cold/warm pair)
     REPRO_SANITIZER_DATASETS=iris       (the slice the sanitizer re-runs)
     REPRO_SKIP_SANITIZER=1              (skip the checked-mode cross-check)
     REPRO_SKIP_BACKENDS=1               (skip the backend-vs-backend pairs)
     REPRO_BENCH7_JSON=path              (default BENCH_7.json)
*)

open Bechamel
open Toolkit

(* {1 Shared fixtures} *)

let scale_name =
  match Sys.getenv_opt "REPRO_SCALE" with Some s -> s | None -> "quick"

let scale = Experiments.Setup.of_name scale_name
let surrogate = lazy (Experiments.Setup.surrogate_of_scale scale)

let iris = lazy (Datasets.Bench13.load "iris")

let iris_fixture =
  lazy
    (let data = Lazy.force iris in
     let rng = Rng.create 1 in
     let split = Datasets.Synth.split rng data in
     let tdata = Pnn.Training.of_split ~n_classes:3 split in
     let config = { scale.Experiments.Setup.config with Pnn.Config.epsilon = 0.05 } in
     let net =
       Pnn.Network.create (Rng.create 2) config (Lazy.force surrogate) ~inputs:4
         ~outputs:3
     in
     (config, net, tdata))

let mid_omega = [| 255.0; 127.0; 255e3; 127e3; 255e3; 500.0; 40.0 |]

(* {1 Micro-benchmarks} *)

let bench_crossbar_forward =
  (* Table II pillar: one full pNN forward pass on the iris training batch *)
  Test.make ~name:"pnn_forward_iris_batch"
    (Staged.stage (fun () ->
         let config, net, tdata = Lazy.force iris_fixture in
         ignore config;
         let shapes = Pnn.Network.theta_shapes net in
         let noise = Pnn.Noise.none ~theta_shapes:shapes in
         ignore (Pnn.Network.logits net ~noise tdata.Pnn.Training.x_train)))

let bench_va_epoch =
  (* Table II pillar: one variation-aware training epoch (loss + backward) *)
  Test.make ~name:"pnn_va_epoch_iris"
    (Staged.stage (fun () ->
         let config, net, tdata = Lazy.force iris_fixture in
         let shapes = Pnn.Network.theta_shapes net in
         let noises =
           Pnn.Noise.draw_many (Rng.create 3) ~epsilon:0.05 ~theta_shapes:shapes
             ~n:config.Pnn.Config.n_mc_train
         in
         let loss =
           Pnn.Network.mc_loss net ~noises ~x:tdata.Pnn.Training.x_train
             ~labels:tdata.Pnn.Training.y_train
         in
         Autodiff.backward loss))

let bench_surrogate_inference =
  (* Fig. 4/5 pillar: surrogate eta prediction for one omega *)
  Test.make ~name:"surrogate_eval"
    (Staged.stage (fun () -> ignore (Surrogate.Model.eval (Lazy.force surrogate) mid_omega)))

let bench_newton_solve =
  (* Fig. 2 pillar: one nonlinear DC operating point *)
  let netlist, _out = Circuit.Ptanh_circuit.build (Circuit.Ptanh_circuit.omega_of_array mid_omega) in
  Test.make ~name:"mna_newton_solve"
    (Staged.stage (fun () ->
         Circuit.Netlist.set_source netlist "vin" 0.5;
         ignore (Circuit.Mna.solve Circuit.Egt.default netlist)))

let bench_dc_sweep =
  (* Fig. 2 pillar: a full 41-point transfer curve *)
  Test.make ~name:"dc_sweep_41pts"
    (Staged.stage (fun () ->
         ignore
           (Circuit.Ptanh_circuit.transfer
              (Circuit.Ptanh_circuit.omega_of_array mid_omega))))

let bench_sobol =
  (* Fig. 3 pillar: design-space sampling *)
  let sobol = Qmc.Sobol.create 7 in
  Test.make ~name:"sobol_next_dim7" (Staged.stage (fun () -> ignore (Qmc.Sobol.next sobol)))

let bench_lm_fit =
  (* Fig. 4 pillar: one LM ptanh fit of a simulated curve *)
  let vin, vout =
    Circuit.Ptanh_circuit.transfer (Circuit.Ptanh_circuit.omega_of_array mid_omega)
  in
  Test.make ~name:"lm_ptanh_fit" (Staged.stage (fun () -> ignore (Fit.Ptanh.fit ~vin ~vout)))

let bench_mc_eval =
  (* Table II pillar: one Monte-Carlo test evaluation draw *)
  Test.make ~name:"mc_eval_draw_iris"
    (Staged.stage (fun () ->
         let _, net, tdata = Lazy.force iris_fixture in
         let shapes = Pnn.Network.theta_shapes net in
         let noise = Pnn.Noise.draw (Rng.create 7) ~epsilon:0.1 ~theta_shapes:shapes in
         ignore (Pnn.Network.predict net ~noise tdata.Pnn.Training.x_val)))

let bench_matmul =
  (* substrate pillar *)
  let rng = Rng.create 5 in
  let a = Tensor.uniform rng 128 64 ~lo:(-1.0) ~hi:1.0 in
  let b = Tensor.uniform rng 64 32 ~lo:(-1.0) ~hi:1.0 in
  Test.make ~name:"tensor_matmul_128x64x32"
    (Staged.stage (fun () -> ignore (Tensor.matmul a b)))

let analyze_group tests =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instance = Instance.monotonic_clock in
  let cfg =
    Benchmark.cfg ~limit:2000 ~stabilize:true ~quota:(Time.second 0.5)
      ~kde:(Some 1000) ()
  in
  let raw = Benchmark.all cfg [ instance ] tests in
  let results = Analyze.all ols instance raw in
  let rows = ref [] in
  (* pnnlint:allow R3 hash order cannot escape: the rows are re-sorted on
     their unique test-name key immediately below *)
  Hashtbl.iter
    (fun name result ->
      match Analyze.OLS.estimates result with
      | Some [ ns ] -> rows := (name, ns) :: !rows
      | Some _ | None -> ())
    results;
  List.sort (fun (a, _) (b, _) -> String.compare a b) !rows

let print_rows header rows =
  Printf.printf "== %s (monotonic clock) ==\n" header;
  List.iter
    (fun (name, ns) ->
      let pretty =
        if ns > 1e9 then Printf.sprintf "%8.2f s " (ns /. 1e9)
        else if ns > 1e6 then Printf.sprintf "%8.2f ms" (ns /. 1e6)
        else if ns > 1e3 then Printf.sprintf "%8.2f us" (ns /. 1e3)
        else Printf.sprintf "%8.0f ns" ns
      in
      Printf.printf "  %-45s %s/run\n" name pretty)
    rows;
  print_newline ()

let micro_benchmarks () =
  let rows =
    analyze_group
      (Test.make_grouped ~name:"printed-neuromorphic"
         [
           bench_matmul;
           bench_sobol;
           bench_newton_solve;
           bench_dc_sweep;
           bench_lm_fit;
           bench_surrogate_inference;
           bench_crossbar_forward;
           bench_mc_eval;
           bench_va_epoch;
         ])
  in
  print_rows "micro-benchmarks" rows;
  rows

(* {1 Sequential-vs-parallel variants (the REPRO_JOBS execution layer)} *)

module P = Parallel.Pool

let par_jobs = Parallel.default_jobs ()
let pool_seq = lazy (P.create ~jobs:1 ())
let pool_par = lazy (P.create ~jobs:par_jobs ())

let iris_split = lazy (Datasets.Synth.split (Rng.create 1) (Lazy.force iris))

let bench_mc_eval_pool ~name pool =
  (* Table II pillar: a full 30-draw Monte-Carlo test evaluation, the noise
     fan-out wired through Evaluation.mc_accuracy *)
  Test.make ~name
    (Staged.stage (fun () ->
         let _, net, _ = Lazy.force iris_fixture in
         let split = Lazy.force iris_split in
         ignore
           (Pnn.Evaluation.mc_accuracy ~pool:(Lazy.force pool) (Rng.create 7)
              net ~epsilon:0.1 ~n:30 ~x:split.Datasets.Synth.x_test
              ~y:split.Datasets.Synth.y_test)))

let bench_va_epoch_pool ~name pool =
  (* Table II pillar: one variation-aware epoch through the data-parallel
     Network.mc_loss_pooled path (per-draw replicas, ordered gradient sum) *)
  Test.make ~name
    (Staged.stage (fun () ->
         let config, net, tdata = Lazy.force iris_fixture in
         let shapes = Pnn.Network.theta_shapes net in
         let noises =
           Pnn.Noise.draw_many (Rng.create 3) ~epsilon:0.05 ~theta_shapes:shapes
             ~n:config.Pnn.Config.n_mc_train
         in
         let loss =
           Pnn.Network.mc_loss_pooled (Lazy.force pool) net ~noises
             ~x:tdata.Pnn.Training.x_train ~labels:tdata.Pnn.Training.y_train
         in
         Autodiff.backward loss))

let bench_surrogate_gen_pool ~name pool =
  (* Fig. 3 pillar: a 48-candidate slice of surrogate dataset generation
     (MNA DC sweep + LM fit per candidate) *)
  Test.make ~name
    (Staged.stage (fun () ->
         ignore
           (Surrogate.Pipeline.generate_dataset ~pool:(Lazy.force pool) ~n:48 ())))

let parallel_benchmarks () =
  let rows =
    analyze_group
      (Test.make_grouped ~name:"parallel"
         [
           bench_mc_eval_pool ~name:"mc_eval_draw_iris_seq" pool_seq;
           bench_mc_eval_pool ~name:"mc_eval_draw_iris_par" pool_par;
           bench_va_epoch_pool ~name:"pnn_va_epoch_iris_seq" pool_seq;
           bench_va_epoch_pool ~name:"pnn_va_epoch_iris_par" pool_par;
           bench_surrogate_gen_pool ~name:"surrogate_gen48_seq" pool_seq;
           bench_surrogate_gen_pool ~name:"surrogate_gen48_par" pool_par;
         ])
  in
  print_rows (Printf.sprintf "seq-vs-par benchmarks (par jobs=%d)" par_jobs) rows;
  rows

(* {1 Allocation benchmarks (BENCH_2)}

   Before/after pairs for the allocation-free training hot path: each pair
   runs the allocating reference implementation and the in-place/cached one
   over identical inputs, measuring wall time (bechamel) plus GC allocation
   per run (Gc.quick_stat deltas; minor_words is the interesting figure — the
   in-place paths should allocate almost nothing in steady state).

   Gc counters are domain-local in OCaml 5, so every body here runs on the
   calling domain: pooled paths use the 1-job pool, which executes inline. *)

let measure_alloc ?(runs = 20) f =
  (* two warm-up calls: force lazy fixtures and build the cached replica /
     scratch buffers, so the measurement sees the steady state *)
  f ();
  f ();
  Gc.full_major ();
  let s0 = Gc.quick_stat () in
  for _ = 1 to runs do
    f ()
  done;
  (* quick_stat only reflects young-area allocation after a minor collection
     (observed on OCaml 5.1); force one so low-allocation bodies are not
     under-reported as zero *)
  Gc.minor ();
  let s1 = Gc.quick_stat () in
  ( (s1.Gc.minor_words -. s0.Gc.minor_words) /. float_of_int runs,
    (s1.Gc.major_words -. s0.Gc.major_words) /. float_of_int runs )

let tensor_pair_fixture =
  lazy
    (let rng = Rng.create 5 in
     let a = Tensor.uniform rng 128 64 ~lo:(-1.0) ~hi:1.0 in
     let b = Tensor.uniform rng 128 64 ~lo:(-1.0) ~hi:1.0 in
     let m = Tensor.uniform rng 64 32 ~lo:(-1.0) ~hi:1.0 in
     let dst_add = Tensor.zeros 128 64 in
     let dst_mm = Tensor.zeros 128 32 in
     (a, b, m, dst_add, dst_mm))

let tensor_add_alloc () =
  let a, b, _, _, _ = Lazy.force tensor_pair_fixture in
  ignore (Tensor.add a b)

let tensor_add_into () =
  let a, b, _, dst, _ = Lazy.force tensor_pair_fixture in
  Tensor.add_into a b ~dst

let tensor_matmul_alloc () =
  let a, _, m, _, _ = Lazy.force tensor_pair_fixture in
  ignore (Tensor.matmul a m)

let tensor_matmul_into () =
  let a, _, m, _, dst = Lazy.force tensor_pair_fixture in
  Tensor.matmul_into a m ~dst

let va_noises () =
  let config, net, _ = Lazy.force iris_fixture in
  let shapes = Pnn.Network.theta_shapes net in
  Pnn.Noise.draw_many (Rng.create 3) ~epsilon:0.05 ~theta_shapes:shapes
    ~n:config.Pnn.Config.n_mc_train

let va_epoch_with mc_loss () =
  let _, net, tdata = Lazy.force iris_fixture in
  let loss =
    mc_loss (Lazy.force pool_seq) net ~noises:(va_noises ())
      ~x:tdata.Pnn.Training.x_train ~labels:tdata.Pnn.Training.y_train
  in
  Autodiff.backward loss

let va_epoch_alloc = va_epoch_with Pnn.Network.mc_loss_pooled_alloc
let va_epoch_cached = va_epoch_with Pnn.Network.mc_loss_pooled

let mc_eval_with predict () =
  let _, net, _ = Lazy.force iris_fixture in
  let split = Lazy.force iris_split in
  let shapes = Pnn.Network.theta_shapes net in
  let rng = Rng.create 7 in
  for _ = 1 to 30 do
    let noise = Pnn.Noise.draw rng ~epsilon:0.1 ~theta_shapes:shapes in
    ignore (predict net ~noise split.Datasets.Synth.x_test)
  done

let mc_eval_alloc = mc_eval_with Pnn.Network.predict
let mc_eval_cached = mc_eval_with Pnn.Network.predict_cached

(* Surrogate batch inference: 64 circuit parameter vectors through the
   13-layer surrogate MLP graph — fresh graph per call vs one compiled tape
   refreshed in place. *)
let omegas64 =
  lazy
    (let lo = Surrogate.Design_space.omega_lo
     and hi = Surrogate.Design_space.omega_hi in
     let rng = Rng.create 11 in
     Tensor.init 64 7 (fun _ c -> Rng.uniform rng ~lo:lo.(c) ~hi:hi.(c)))

let surrogate_batch_alloc () =
  let m = Lazy.force surrogate in
  ignore (Autodiff.value (Surrogate.Model.eval_ad m (Autodiff.const (Lazy.force omegas64))))

let surrogate_tape_fixture =
  lazy
    (let m = Lazy.force surrogate in
     let leaf = Autodiff.const (Tensor.copy (Lazy.force omegas64)) in
     let out = Surrogate.Model.eval_ad m leaf in
     (leaf, out, Autodiff.compile out))

let surrogate_batch_tape () =
  let leaf, out, tape = Lazy.force surrogate_tape_fixture in
  Autodiff.set_value leaf (Lazy.force omegas64);
  Autodiff.refresh tape;
  ignore (Autodiff.value out)

let alloc_pairs =
  [
    ("tensor_add_128x64_alloc", tensor_add_alloc);
    ("tensor_add_128x64_into", tensor_add_into);
    ("tensor_matmul_128x64x32_alloc", tensor_matmul_alloc);
    ("tensor_matmul_128x64x32_into", tensor_matmul_into);
    ("surrogate_batch64_alloc", surrogate_batch_alloc);
    ("surrogate_batch64_tape", surrogate_batch_tape);
    ("mc_eval30_alloc", mc_eval_alloc);
    ("mc_eval30_cached", mc_eval_cached);
    ("va_epoch_alloc", va_epoch_alloc);
    ("va_epoch_cached", va_epoch_cached);
  ]

let strip_group name =
  match String.index_opt name '/' with
  | Some i -> String.sub name (i + 1) (String.length name - i - 1)
  | None -> name

let alloc_benchmarks () =
  let times =
    analyze_group
      (Test.make_grouped ~name:"alloc"
         (List.map
            (fun (name, f) -> Test.make ~name (Staged.stage f))
            alloc_pairs))
  in
  let times = List.map (fun (name, ns) -> (strip_group name, ns)) times in
  let rows =
    List.map
      (fun (name, f) ->
        let minor, major = measure_alloc f in
        let ns = List.assoc_opt name times in
        (name, ns, minor, major))
      alloc_pairs
  in
  Printf.printf "== allocation benchmarks (per run) ==\n";
  List.iter
    (fun (name, ns, minor, major) ->
      Printf.printf "  %-32s %10.0f minor words  %10.0f major words  %s\n" name
        minor major
        (match ns with Some ns -> Printf.sprintf "%10.0f ns" ns | None -> ""))
    rows;
  print_newline ();
  rows

(* {1 BENCH_1.json perf baseline} *)

let write_bench_json rows =
  let path =
    match Sys.getenv_opt "REPRO_BENCH_JSON" with
    | Some p -> p
    | None -> "BENCH_1.json"
  in
  let oc = open_out path in
  Printf.fprintf oc "{\n  \"bench\": \"BENCH_1\",\n  \"scale\": %S,\n" scale_name;
  Printf.fprintf oc "  \"jobs\": %d,\n  \"results\": [\n" par_jobs;
  let n = List.length rows in
  List.iteri
    (fun i (name, ns) ->
      Printf.fprintf oc "    { \"name\": %S, \"ns_per_run\": %.1f }%s\n" name ns
        (if i = n - 1 then "" else ","))
    rows;
  output_string oc "  ]\n}\n";
  close_out oc;
  Printf.printf "wrote %s (%d entries, jobs=%d)\n%!" path n par_jobs

(* {1 BENCH_2.json allocation baseline} *)

let write_bench2_json rows =
  let path =
    match Sys.getenv_opt "REPRO_BENCH2_JSON" with
    | Some p -> p
    | None -> "BENCH_2.json"
  in
  let oc = open_out path in
  Printf.fprintf oc "{\n  \"bench\": \"BENCH_2\",\n  \"scale\": %S,\n" scale_name;
  output_string oc "  \"results\": [\n";
  let n = List.length rows in
  List.iteri
    (fun i (name, ns, minor, major) ->
      Printf.fprintf oc
        "    { \"name\": %S, \"ns_per_run\": %.1f, \"minor_words_per_run\": \
         %.1f, \"major_words_per_run\": %.1f }%s\n"
        name
        (match ns with Some ns -> ns | None -> 0.0)
        minor major
        (if i = n - 1 then "" else ","))
    rows;
  output_string oc "  ]\n}\n";
  close_out oc;
  Printf.printf "wrote %s (%d entries)\n%!" path n

(* {1 BENCH_3.json cold-vs-warm cache pair}

   One Table II slice computed twice against the same fresh cache directory.
   The cold pass trains and evaluates everything, populating the store; the
   warm pass must reproduce the identical table from cache hits alone.  The
   frozen surrogate is forced before timing so both passes measure only the
   experiment work the cache is supposed to absorb. *)

let cache_benchmarks () =
  let dataset_names =
    match Sys.getenv_opt "REPRO_BENCH3_DATASETS" with
    | Some s -> s
    | None -> "iris,seeds"
  in
  let datasets =
    List.map Datasets.Bench13.load (String.split_on_char ',' dataset_names)
  in
  let surrogate = Lazy.force surrogate in
  let dir = Filename.temp_file "pnnbench3" ".cache" in
  Sys.remove dir;
  let pass () =
    let cache = Cache.create ~dir in
    let t0 = Unix.gettimeofday () in
    let table = Experiments.Table2.run ~cache ~datasets scale surrogate in
    let dt = Unix.gettimeofday () -. t0 in
    (dt, table, cache)
  in
  let cold_s, cold_table, cold_cache = pass () in
  let warm_s, warm_table, warm_cache = pass () in
  if Experiments.Table2.render warm_table <> Experiments.Table2.render cold_table
  then failwith "BENCH_3: warm table differs from cold table";
  ignore (Cache.gc ~all:true ~dir ());
  Printf.printf "== cold-vs-warm cache (table2, %s, scale=%s) ==\n"
    dataset_names scale_name;
  Printf.printf "  cold  %8.2f s   (%s)\n" cold_s (Cache.summary cold_cache);
  Printf.printf "  warm  %8.2f s   (%s)\n" warm_s (Cache.summary warm_cache);
  Printf.printf "  speedup %.0fx\n\n" (cold_s /. Float.max warm_s 1e-3);
  (dataset_names, cold_s, warm_s)

let write_bench3_json (dataset_names, cold_s, warm_s) =
  let path =
    match Sys.getenv_opt "REPRO_BENCH3_JSON" with
    | Some p -> p
    | None -> "BENCH_3.json"
  in
  let oc = open_out path in
  Printf.fprintf oc "{\n  \"bench\": \"BENCH_3\",\n  \"scale\": %S,\n" scale_name;
  Printf.fprintf oc "  \"jobs\": %d,\n  \"datasets\": %S,\n" par_jobs dataset_names;
  (* a sub-millisecond warm pass would print an unbounded ratio *)
  let speedup = cold_s /. Float.max warm_s 1e-3 in
  Printf.fprintf oc "  \"cold_s\": %.3f,\n  \"warm_s\": %.4f,\n" cold_s warm_s;
  Printf.fprintf oc "  \"speedup\": %.1f\n}\n" speedup;
  close_out oc;
  Printf.printf "wrote %s (speedup %.1fx)\n%!" path speedup

(* {1 Sanitizer cross-check}

   The PNN_CHECKED dual-loop tensor kernels promise the checked bodies run
   the same float operations in the same order as the unsafe ones.  Prove it
   on a real workload: one quick Table II slice computed unchecked and again
   in checked mode must render byte-equal, and the timing pair is the
   sanitizer's true end-to-end overhead. *)

let sanitizer_benchmarks () =
  let dataset_names =
    match Sys.getenv_opt "REPRO_SANITIZER_DATASETS" with
    | Some s -> s
    | None -> "iris"
  in
  let datasets =
    List.map Datasets.Bench13.load (String.split_on_char ',' dataset_names)
  in
  let surrogate = Lazy.force surrogate in
  let pass checked =
    Tensor.set_checked checked;
    let t0 = Unix.gettimeofday () in
    let table = Experiments.Table2.run ~datasets scale surrogate in
    let dt = Unix.gettimeofday () -. t0 in
    (dt, Experiments.Table2.render table)
  in
  let was = Tensor.checked () in
  let unchecked_s, unchecked_text = pass false in
  let checked_s, checked_text = pass true in
  Tensor.set_checked was;
  if checked_text <> unchecked_text then
    failwith "sanitizer: checked-mode table2 differs from unchecked";
  Printf.printf "== sanitizer cross-check (table2, %s, scale=%s) ==\n"
    dataset_names scale_name;
  Printf.printf "  unchecked %8.2f s\n" unchecked_s;
  Printf.printf "  checked   %8.2f s   (output byte-equal)\n" checked_s;
  Printf.printf "  overhead %.2fx\n\n%!"
    (checked_s /. Float.max unchecked_s 1e-3)

(* {1 Backend benchmarks (BENCH_7)}

   Part 6 — reference-vs-C pairs over identical workloads: the raw matmul
   and elementwise kernels, the tape-refreshed surrogate batch, the
   variation-aware epoch at the paper's iris size and at a wide pNN size
   (64 inputs -> 48 hidden -> 16 outputs, batch 256) where the matmuls
   dominate dispatch overhead, and one quick single-dataset Table II slice
   end-to-end.

   Every fixture — dataset tensors, network, noises, even the surrogate — is
   built *after* selecting the backend, so each measured computation stays on
   one backend's storage rather than exercising the mixed-operand fallback. *)

let time_us ~runs f =
  (* two warm-up calls, like measure_alloc: build caches and scratch *)
  f ();
  f ();
  let t0 = Unix.gettimeofday () in
  for _ = 1 to runs do
    f ()
  done;
  (Unix.gettimeofday () -. t0) /. float_of_int runs *. 1e6

let backend_rows be =
  let prev = Tensor.backend () in
  Tensor.set_backend be;
  Fun.protect ~finally:(fun () -> Tensor.set_backend prev) @@ fun () ->
  (* raw kernels *)
  let rng = Rng.create 5 in
  let a = Tensor.uniform rng 128 64 ~lo:(-1.0) ~hi:1.0 in
  let b = Tensor.uniform rng 128 64 ~lo:(-1.0) ~hi:1.0 in
  let m = Tensor.uniform rng 64 32 ~lo:(-1.0) ~hi:1.0 in
  let dst_add = Tensor.zeros 128 64 in
  let dst_mm = Tensor.zeros 128 32 in
  let t_mm = time_us ~runs:500 (fun () -> Tensor.matmul_into a m ~dst:dst_mm) in
  let t_add = time_us ~runs:2000 (fun () -> Tensor.add_into a b ~dst:dst_add) in
  (* surrogate batch inference on a tape owned by this backend *)
  let sur = Experiments.Setup.surrogate_of_scale scale in
  let lo = Surrogate.Design_space.omega_lo
  and hi = Surrogate.Design_space.omega_hi in
  let orng = Rng.create 11 in
  let omegas = Tensor.init 64 7 (fun _ c -> Rng.uniform orng ~lo:lo.(c) ~hi:hi.(c)) in
  let leaf = Autodiff.const (Tensor.copy omegas) in
  let out = Surrogate.Model.eval_ad sur leaf in
  let tape = Autodiff.compile out in
  let t_sur =
    time_us ~runs:100 (fun () ->
        Autodiff.set_value leaf omegas;
        Autodiff.refresh tape;
        ignore (Autodiff.value out))
  in
  (* variation-aware epoch, iris size (4 -> hidden -> 3, batch 90) *)
  let data = Datasets.Bench13.load "iris" in
  let split = Datasets.Synth.split (Rng.create 1) data in
  let tdata = Pnn.Training.of_split ~n_classes:3 split in
  let config =
    { scale.Experiments.Setup.config with Pnn.Config.epsilon = 0.05 }
  in
  let net = Pnn.Network.create (Rng.create 2) config sur ~inputs:4 ~outputs:3 in
  let shapes = Pnn.Network.theta_shapes net in
  let noises =
    Pnn.Noise.draw_many (Rng.create 3) ~epsilon:0.05 ~theta_shapes:shapes
      ~n:config.Pnn.Config.n_mc_train
  in
  let pool = Lazy.force pool_seq in
  let t_iris =
    time_us ~runs:50 (fun () ->
        let loss =
          Pnn.Network.mc_loss_pooled pool net ~noises
            ~x:tdata.Pnn.Training.x_train ~labels:tdata.Pnn.Training.y_train
        in
        Autodiff.backward loss)
  in
  (* variation-aware epoch, wide pNN (64 -> 48 -> 16, batch 256) *)
  let inputs = 64 and outputs = 16 and batch = 256 in
  let wconfig = { config with Pnn.Config.hidden = 48 } in
  let wrng = Rng.create 13 in
  let x = Tensor.uniform wrng batch inputs ~lo:0.0 ~hi:1.0 in
  let labels =
    Tensor.init batch outputs (fun r c -> if r mod outputs = c then 1.0 else 0.0)
  in
  let wnet = Pnn.Network.create (Rng.create 2) wconfig sur ~inputs ~outputs in
  let wshapes = Pnn.Network.theta_shapes wnet in
  let wnoises =
    Pnn.Noise.draw_many (Rng.create 3) ~epsilon:0.05 ~theta_shapes:wshapes
      ~n:wconfig.Pnn.Config.n_mc_train
  in
  let t_wide =
    time_us ~runs:20 (fun () ->
        let loss =
          Pnn.Network.mc_loss_pooled pool wnet ~noises:wnoises ~x ~labels
        in
        Autodiff.backward loss)
  in
  (* one quick Table II slice end-to-end (train + MC evaluate, iris only) *)
  let t0 = Unix.gettimeofday () in
  ignore (Experiments.Table2.run ~datasets:[ data ] scale sur);
  let t_t2 = (Unix.gettimeofday () -. t0) *. 1e6 in
  [
    ("tensor_matmul_128x64x32", t_mm);
    ("tensor_add_128x64", t_add);
    ("surrogate_batch64", t_sur);
    ("va_epoch_iris", t_iris);
    ("va_epoch_wide", t_wide);
    ("table2_quick_iris", t_t2);
  ]

(* Two checks ride along with the pairs:

   - the quick Table II slice on C must render byte-identical with and
     without checked mode (checked mode only adds length assertions in
     front of the same stubs, so any difference is a contract break);
   - a batched-serving row (wide pNN, batch 64) measuring the per-batch
     latency distribution on reference vs C, since the fused layer kernel
     targets exactly the serve/train hot path. *)

let with_backend_for_bench be f =
  let prev = Tensor.backend () in
  Tensor.set_backend be;
  Fun.protect ~finally:(fun () -> Tensor.set_backend prev) f

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else sorted.(min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1))

let bench7_serving_row be =
  with_backend_for_bench be @@ fun () ->
  let sur = Experiments.Setup.surrogate_of_scale scale in
  let inputs = 64 and outputs = 16 and batch = 64 in
  let config =
    { scale.Experiments.Setup.config with Pnn.Config.hidden = 48 }
  in
  let net = Pnn.Network.create (Rng.create 11) config sur ~inputs ~outputs in
  let model = Serving.Serve_model.of_network net in
  let rng = Rng.create 17 in
  let rows =
    Array.init batch (fun _ ->
        Array.init inputs (fun _ -> Rng.uniform rng ~lo:0.0 ~hi:1.0))
  in
  (* warm up twice (scratch, tape caches), then record per-batch latency *)
  ignore (Serving.Serve_model.predict_batch model rows);
  ignore (Serving.Serve_model.predict_batch model rows);
  let runs = 200 in
  let lat = Array.make runs 0.0 in
  for i = 0 to runs - 1 do
    let t0 = Unix.gettimeofday () in
    ignore (Serving.Serve_model.predict_batch model rows);
    lat.(i) <- (Unix.gettimeofday () -. t0) *. 1e6
  done;
  Array.sort Float.compare lat;
  (percentile lat 0.50, percentile lat 0.99)

let bench7_checked_byte_equality () =
  (* quick Table II (iris) on the C backend, checked vs unchecked *)
  with_backend_for_bench Tensor.C64 @@ fun () ->
  let sur = Experiments.Setup.surrogate_of_scale scale in
  let data = Datasets.Bench13.load "iris" in
  let render () =
    Experiments.Table2.render
      (Experiments.Table2.run ~datasets:[ data ] scale sur)
  in
  let unchecked = render () in
  let checked =
    let prev = Tensor.checked () in
    Tensor.set_checked true;
    Fun.protect ~finally:(fun () -> Tensor.set_checked prev) render
  in
  if not (String.equal unchecked checked) then
    failwith "BENCH_7: checked Table II differs from unchecked on backend c";
  Printf.printf
    "BENCH_7: quick Table II (iris) byte-equal checked vs unchecked on c\n%!"

let bench7_benchmarks () =
  let ref_rows = backend_rows Tensor.Reference in
  let c_rows = backend_rows Tensor.C64 in
  let rows =
    List.map2
      (fun (name, ref_us) (_, c_us) -> (name, ref_us, c_us))
      ref_rows c_rows
  in
  Printf.printf "== backend benchmarks (reference vs c, scale=%s) ==\n"
    scale_name;
  List.iter
    (fun (name, ref_us, c_us) ->
      Printf.printf "  %-28s %10.2f us  %10.2f us  (c %5.2fx ref)\n" name
        ref_us c_us
        (ref_us /. Float.max c_us 1e-3))
    rows;
  print_newline ();
  bench7_checked_byte_equality ();
  let ref_p50, ref_p99 = bench7_serving_row Tensor.Reference in
  let c_p50, c_p99 = bench7_serving_row Tensor.C64 in
  Printf.printf
    "  serve_wide_batch64  reference p50 %.1f us p99 %.1f us | c p50 %.1f us \
     p99 %.1f us (p99 %.2fx)\n%!"
    ref_p50 ref_p99 c_p50 c_p99
    (ref_p99 /. Float.max c_p99 1e-3);
  (rows, (ref_p50, ref_p99), (c_p50, c_p99))

let write_bench7_json (rows, (ref_p50, ref_p99), (c_p50, c_p99)) =
  let path =
    match Sys.getenv_opt "REPRO_BENCH7_JSON" with
    | Some p -> p
    | None -> "BENCH_7.json"
  in
  let oc = open_out path in
  Printf.fprintf oc "{\n  \"bench\": \"BENCH_7\",\n  \"scale\": %S,\n" scale_name;
  output_string oc "  \"results\": [\n";
  let n = List.length rows in
  List.iteri
    (fun i (name, ref_us, c_us) ->
      Printf.fprintf oc
        "    { \"name\": %S, \"ref_ns\": %.1f, \"c_ns\": %.1f, \"c_vs_ref\": \
         %.2f }%s\n"
        name (ref_us *. 1e3) (c_us *. 1e3)
        (ref_us /. Float.max c_us 1e-3)
        (if i = n - 1 then "" else ","))
    rows;
  output_string oc "  ],\n";
  output_string oc "  \"checked_table2_quick_iris_byte_equal\": true,\n";
  Printf.fprintf oc
    "  \"serving\": [\n\
    \    { \"name\": \"serve_wide_batch64\", \"backend\": \"reference\", \
     \"p50_us\": %.1f, \"p99_us\": %.1f },\n\
    \    { \"name\": \"serve_wide_batch64\", \"backend\": \"c\", \"p50_us\": \
     %.1f, \"p99_us\": %.1f }\n\
    \  ],\n"
    ref_p50 ref_p99 c_p50 c_p99;
  Printf.fprintf oc "  \"serving_p99_speedup_c_vs_reference\": %.2f\n}\n"
    (ref_p99 /. Float.max c_p99 1e-3);
  close_out oc;
  Printf.printf "wrote %s (%d entries)\n%!" path n

(* {1 Table/figure harnesses} *)

let section title = Printf.printf "\n===== %s =====\n%!" title

let run_tables () =
  section "Table I (design space)";
  print_string (Experiments.Figures.render_table1 ());
  section "Fig. 2 (characteristic curves)";
  print_string (Experiments.Figures.render_fig2 (Experiments.Figures.fig2_curves ()));
  section "Fig. 4 left (fit example)";
  print_string (Experiments.Figures.render_fig4_left (Experiments.Figures.fig4_left ()));
  section "Fig. 4 right (surrogate parity)";
  print_string
    (Experiments.Figures.render_fig4_right (Experiments.Figures.fig4_right ~seed:7 ()));
  section
    (Printf.sprintf "Table II (scale=%s; see EXPERIMENTS.md for the committed run)"
       scale_name);
  let datasets =
    match Sys.getenv_opt "REPRO_DATASETS" with
    | None -> Datasets.Bench13.load_all ()
    | Some names -> List.map Datasets.Bench13.load (String.split_on_char ',' names)
  in
  let progress msg = Printf.eprintf "  [running] %s\n%!" msg in
  let table2 = Experiments.Table2.run ~progress ~datasets scale (Lazy.force surrogate) in
  print_string (Experiments.Table2.render table2);
  section "Table III (ablation summary)";
  print_string (Experiments.Table3.render (Experiments.Table3.of_table2 scale table2))

let () =
  let micro = micro_benchmarks () in
  let par = parallel_benchmarks () in
  write_bench_json (micro @ par);
  write_bench2_json (alloc_benchmarks ());
  (match Sys.getenv_opt "REPRO_SKIP_BACKENDS" with
  | Some "1" -> ()
  | Some _ | None -> write_bench7_json (bench7_benchmarks ()));
  (match Sys.getenv_opt "REPRO_SKIP_BENCH3" with
  | Some "1" -> ()
  | Some _ | None -> write_bench3_json (cache_benchmarks ()));
  (match Sys.getenv_opt "REPRO_SKIP_SANITIZER" with
  | Some "1" -> ()
  | Some _ | None -> sanitizer_benchmarks ());
  (match Sys.getenv_opt "REPRO_SKIP_TABLES" with
  | Some "1" -> ()
  | Some _ | None -> run_tables ());
  if Lazy.is_val pool_seq then P.shutdown (Lazy.force pool_seq);
  if Lazy.is_val pool_par then P.shutdown (Lazy.force pool_par)
