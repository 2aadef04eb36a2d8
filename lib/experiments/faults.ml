type t = {
  dataset : string;
  epsilon : float;
  train_arms : string list;
  test_families : string list;
  grid : ((string * string) * Pnn.Evaluation.result) list;
  defect_sweep : (string * (float * Pnn.Evaluation.result) list) list;
  sigma_sweep : (string * (float * Pnn.Evaluation.result) list) list;
}

(* The four fault families at a comparable severity: uniform at the paper's
   full ε, gaussian/correlated at ε/2 (a lognormal σ produces heavier tails
   than the bounded uniform at the same magnitude), defects at a fixed
   4 % total failure rate. *)
let families epsilon =
  [
    ("uniform", Pnn.Variation.Uniform epsilon);
    ("gaussian", Pnn.Variation.Gaussian (epsilon /. 2.0));
    ( "correlated",
      Pnn.Variation.Correlated { global = epsilon /. 2.0; local = epsilon /. 2.0 } );
    ("defects", Pnn.Variation.Defects { p_open = 0.03; p_short = 0.01 });
  ]

let train_arms epsilon =
  ("nominal", None) :: List.map (fun (n, m) -> (n, Some m)) (families epsilon)

let defect_rates = [ 0.0; 0.01; 0.02; 0.05; 0.10 ]
let sigmas = [ 0.0; 0.025; 0.05; 0.10; 0.20 ]

(* Deterministic per-(arm, seed) / per-(arm, evaluation) RNG streams, same
   arithmetic-tag scheme as {!Table2.run_seed}. *)
let train_rng ~arm_idx ~seed = Rng.create ((arm_idx * 7907) lxor (seed * 131) lxor 5557)
let eval_rng ~arm_idx ~test_idx = Rng.create ((arm_idx * 101) lxor (test_idx * 9176) lxor 33)

(* Canonical fault-model descriptor folded into cache keys: the family alone
   is not enough, the parameters change both training and evaluation. *)
let rec model_desc = function
  | Pnn.Variation.Uniform e -> Printf.sprintf "uniform:%h" e
  | Pnn.Variation.Gaussian s -> Printf.sprintf "gaussian:%h" s
  | Pnn.Variation.Correlated { global; local } ->
      Printf.sprintf "correlated:%h:%h" global local
  | Pnn.Variation.Defects { p_open; p_short } ->
      Printf.sprintf "defects:%h:%h" p_open p_short
  | Pnn.Variation.Aging { kappa_max; beta; t_frac } ->
      Printf.sprintf "aging:%h:%h:%s" kappa_max beta
        (match t_frac with None -> "-" | Some t -> Printf.sprintf "%h" t)
  | Pnn.Variation.Compose models ->
      Printf.sprintf "compose[%s]" (String.concat ";" (List.map model_desc models))

let model_tag = function None -> "nominal" | Some m -> model_desc m

let run ?pool ?(cache = Cache.disabled ()) ?(checkpoints = false)
    ?(progress = fun _ -> ()) ?(dataset = "seeds") ?(epsilon = 0.10) scale
    surrogate =
  List.iter (fun (_, m) -> Pnn.Variation.validate m) (families epsilon);
  let checkpoint_every = if checkpoints then Some 50 else None in
  let digest = Setup.surrogate_digest surrogate in
  let data = Datasets.Bench13.load dataset in
  let spec = data.Datasets.Synth.spec in
  let n_classes = spec.Datasets.Synth.classes in
  (* the split is shared by all arms for a fair comparison *)
  let splits =
    List.map
      (fun seed -> (seed, Datasets.Synth.split (Rng.create (seed + 700)) data))
      scale.Setup.seeds
  in
  (* Train every arm; each keeps its best-validation-loss seed, as Table II
     does. *)
  let trained =
    List.mapi
      (fun arm_idx (name, model) ->
        progress (Printf.sprintf "%s train %s" dataset name);
        (* [train_rng]'s tag covers (arm_idx, seed); the key carries both
           plus the model descriptor, so arms sharing a config never
           collide. *)
        let train (seed, split) =
          ( Seeds.cell ~cache ?checkpoint_every ~kind:"faultcell"
              ~key:
                (Cache.key ~schema:(Pnn.Serialize.cache_schema ()) ~kind:"faultcell"
                   [
                     digest;
                     Pnn.Serialize.config_line scale.Setup.config;
                     dataset;
                     string_of_int arm_idx;
                     model_tag model;
                     string_of_int seed;
                     Setup.init_name scale.Setup.init;
                   ])
              surrogate
              (fun checkpoint ->
                let rng = train_rng ~arm_idx ~seed in
                let network =
                  Pnn.Network.create ~init:scale.Setup.init rng scale.Setup.config
                    surrogate ~inputs:spec.Datasets.Synth.features ~outputs:n_classes
                in
                Pnn.Training.fit ?pool ?model ?checkpoint rng network
                  (Pnn.Training.of_split ~n_classes split)),
            split )
        in
        let result, split = Seeds.chosen (Seeds.train ?pool train splits) in
        (name, arm_idx, result.Pnn.Training.network, split))
      (train_arms epsilon)
  in
  let evaluate ~arm_idx ~test_idx network (split : Datasets.Synth.split) model =
    (* arm_idx and test_idx determine the evaluation stream ([eval_rng]), so
       both belong in the key alongside the content inputs. *)
    Pnn.Evaluation.mc_accuracy ?pool
      ?cache:
        (Seeds.eval_cache cache network
           [
             model_tag (Some model);
             string_of_int arm_idx;
             string_of_int test_idx;
             string_of_int scale.Setup.n_mc_test;
           ]
           split)
      (eval_rng ~arm_idx ~test_idx)
      network ~model ~n:scale.Setup.n_mc_test ~x:split.Datasets.Synth.x_test
      ~y:split.Datasets.Synth.y_test
  in
  (* Table III-style mismatch grid: every trained arm under every family. *)
  let grid =
    List.concat_map
      (fun (train_name, arm_idx, network, split) ->
        progress (Printf.sprintf "%s grid %s" dataset train_name);
        List.mapi
          (fun test_idx (test_name, model) ->
            ((train_name, test_name), evaluate ~arm_idx ~test_idx network split model))
          (families epsilon))
      trained
  in
  (* Severity sweeps: defect rate and gaussian σ, per trained arm. *)
  let sweep ~base models =
    List.map
      (fun (train_name, arm_idx, network, split) ->
        progress (Printf.sprintf "%s sweep %s" dataset train_name);
        ( train_name,
          List.mapi
            (fun i (param, model) ->
              (param, evaluate ~arm_idx ~test_idx:(base + i) network split model))
            models ))
      trained
  in
  let defect_sweep =
    sweep ~base:100
      (List.map
         (fun p -> (p, Pnn.Variation.Defects { p_open = p /. 2.0; p_short = p /. 2.0 }))
         defect_rates)
  in
  let sigma_sweep =
    sweep ~base:200 (List.map (fun s -> (s, Pnn.Variation.Gaussian s)) sigmas)
  in
  {
    dataset;
    epsilon;
    train_arms = List.map (fun (n, _) -> n) (train_arms epsilon);
    test_families = List.map fst (families epsilon);
    grid;
    defect_sweep;
    sigma_sweep;
  }

let render t =
  let grid_table =
    let header = "train \\ test" :: t.test_families in
    let rows =
      List.map
        (fun train ->
          train
          :: List.map
               (fun test ->
                 let r = List.assoc (train, test) t.grid in
                 Report.cell r.Pnn.Evaluation.mean r.Pnn.Evaluation.std)
               t.test_families)
        t.train_arms
    in
    Report.table ~header ~rows
  in
  let sweep_table label params sweep =
    let header = "train" :: List.map (fun p -> Printf.sprintf "%g" p) params in
    let rows =
      List.map
        (fun (train, points) ->
          train
          :: List.map
               (fun (_, r) -> Report.cell r.Pnn.Evaluation.mean r.Pnn.Evaluation.std)
               points)
        sweep
    in
    Printf.sprintf "%s\n%s" label (Report.table ~header ~rows)
  in
  Printf.sprintf
    "Fault injection (%s, eps=%g%%): train-model x test-model accuracy\n%s\n%s\n%s"
    t.dataset (t.epsilon *. 100.0) grid_table
    (sweep_table "Accuracy vs total defect rate (p_open = p_short = p/2)"
       defect_rates t.defect_sweep)
    (sweep_table "Accuracy vs gaussian sigma" sigmas t.sigma_sweep)

let to_csv_rows t =
  let header =
    [
      "kind"; "train_model"; "test_model"; "param"; "mean"; "std"; "min"; "q05";
      "median"; "q95";
    ]
  in
  let row ~kind ~train ~test ~param (r : Pnn.Evaluation.result) =
    [
      kind; train; test; param;
      Printf.sprintf "%.4f" r.Pnn.Evaluation.mean;
      Printf.sprintf "%.4f" r.Pnn.Evaluation.std;
      Printf.sprintf "%.4f" r.Pnn.Evaluation.min;
      Printf.sprintf "%.4f" r.Pnn.Evaluation.q05;
      Printf.sprintf "%.4f" r.Pnn.Evaluation.median;
      Printf.sprintf "%.4f" r.Pnn.Evaluation.q95;
    ]
  in
  let grid_rows =
    List.map
      (fun ((train, test), r) ->
        row ~kind:"grid" ~train ~test ~param:(Printf.sprintf "%g" t.epsilon) r)
      t.grid
  in
  let sweep_rows ~kind ~test sweep =
    List.concat_map
      (fun (train, points) ->
        List.map
          (fun (param, r) ->
            row ~kind ~train ~test ~param:(Printf.sprintf "%g" param) r)
          points)
      sweep
  in
  ( header,
    grid_rows
    @ sweep_rows ~kind:"defect_sweep" ~test:"defects" t.defect_sweep
    @ sweep_rows ~kind:"sigma_sweep" ~test:"gaussian" t.sigma_sweep )
