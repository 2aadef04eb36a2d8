type cell = { mean : float; std : float }

type dataset_row = {
  dataset : string;
  cells : ((Setup.arm * float) * cell) list;
}

type t = {
  rows : dataset_row list;
  average : ((Setup.arm * float) * cell) list;
}

(* Deterministic per-(dataset, arm, eps, seed) RNG streams. *)
let run_seed ~dataset_seed ~arm ~eps ~seed =
  let tag =
    (dataset_seed * 7919)
    lxor (if arm.Setup.learnable then 101 else 202)
    lxor (if arm.Setup.variation_aware then 3030 else 4040)
    lxor int_of_float (eps *. 10_000.0)
    lxor (seed * 131)
  in
  Rng.create tag

(* The training groups of one dataset, in the order [run] trains them: one
   per (arm, train ε) — nominal arms once at ε = 0, variation-aware arms once
   per test ε — each holding one job per seed with that seed's split.  A
   split is shared by every arm, so the arm comparison is fair, and is a
   function of (dataset identity, seed) only, so any process can reproduce
   it. *)
let groups ?pool ~cache ?checkpoint_every ~digest scale surrogate
    (data : Datasets.Synth.t) =
  let spec = data.Datasets.Synth.spec in
  let dataset = spec.Datasets.Synth.name in
  let dataset_seed = spec.Datasets.Synth.seed in
  let splits =
    List.map
      (fun seed -> (seed, Datasets.Synth.split (Rng.create (dataset_seed + seed)) data))
      scale.Setup.seeds
  in
  List.concat_map
    (fun arm ->
      let train_epsilons =
        if arm.Setup.variation_aware then scale.Setup.test_epsilons else [ 0.0 ]
      in
      List.map
        (fun eps ->
          let config =
            Pnn.Config.with_epsilon
              (Pnn.Config.with_learnable scale.Setup.config arm.Setup.learnable)
              eps
          in
          (* Content address of one (dataset, seed, arm) training cell:
             everything the run reads — the frozen surrogate, the resolved
             config (which encodes arm and ε), the dataset identity and both
             seed layers.  [run_seed]'s stream tag is derived from the same
             inputs, so the key covers it. *)
          let job seed split =
            Seeds.job ~cache ?checkpoint_every ~kind:"t2cell"
              ~key:
                (Cache.key ~schema:(Pnn.Serialize.cache_schema ()) ~kind:"t2cell"
                   [
                     digest;
                     Pnn.Serialize.config_line config;
                     dataset;
                     string_of_int dataset_seed;
                     string_of_int seed;
                     Setup.init_name scale.Setup.init;
                   ])
              ~label:
                (Printf.sprintf "t2cell %s seed=%d %s eps=%g" dataset seed
                   (Setup.arm_name arm) eps)
              surrogate
              (fun checkpoint ->
                Pnn.Training.train_fresh ?pool ~init:scale.Setup.init ?checkpoint
                  (run_seed ~dataset_seed ~arm ~eps ~seed)
                  config surrogate ~n_classes:spec.Datasets.Synth.classes split)
          in
          (arm, eps, List.map (fun (seed, split) -> (job seed split, split)) splits))
        train_epsilons)
    Setup.arms

let jobs ~cache ?checkpoint_every ~datasets scale surrogate =
  let digest = Setup.surrogate_digest surrogate in
  List.concat_map
    (fun data ->
      List.concat_map
        (fun (_, _, seeds) -> List.map fst seeds)
        (groups ~cache ?checkpoint_every ~digest scale surrogate data))
    datasets

let evaluate ?pool ~cache scale ~dataset_seed network ~epsilon
    ~(split : Datasets.Synth.split) =
  let rng = Rng.create ((dataset_seed * 31) + int_of_float (epsilon *. 1e4) + 5) in
  let r =
    Pnn.Evaluation.mc_accuracy ?pool
      ?cache:
        (Seeds.eval_cache cache network
           [
             Printf.sprintf "%h" epsilon;
             string_of_int scale.Setup.n_mc_test;
             string_of_int dataset_seed;
           ]
           split)
      rng network ~model:(Pnn.Variation.Uniform epsilon) ~n:scale.Setup.n_mc_test
      ~x:split.Datasets.Synth.x_test ~y:split.Datasets.Synth.y_test
  in
  { mean = r.Pnn.Evaluation.mean; std = r.Pnn.Evaluation.std }

(* Per training group: every seed trains (fanned out over the pool), the
   best-validation-loss network is chosen, and the chosen one is evaluated at
   each test ε it covers — every test ε for a nominal arm, its own for a
   variation-aware one. *)
let run_dataset ?pool ~cache ?checkpoint_every ~digest ~progress scale surrogate
    (data : Datasets.Synth.t) =
  let spec = data.Datasets.Synth.spec in
  let dataset = spec.Datasets.Synth.name in
  let cells =
    List.concat_map
      (fun (arm, eps, seeds) ->
        let name = Printf.sprintf "%s %s" dataset (Setup.arm_name arm) in
        let va = arm.Setup.variation_aware in
        progress (if va then Printf.sprintf "%s eps=%g" name eps else name);
        let result, split =
          Seeds.chosen
            (Seeds.train ?pool
               (fun (job, split) -> (job.Seeds.train (), split))
               seeds)
        in
        List.map
          (fun eps ->
            ( (arm, eps),
              evaluate ?pool ~cache scale ~dataset_seed:spec.Datasets.Synth.seed
                result.Pnn.Training.network ~epsilon:eps ~split ))
          (if va then [ eps ] else scale.Setup.test_epsilons))
      (groups ?pool ~cache ?checkpoint_every ~digest scale surrogate data)
  in
  { dataset; cells }

let column_keys scale =
  List.concat_map
    (fun arm -> List.map (fun eps -> (arm, eps)) scale.Setup.test_epsilons)
    Setup.arms

let run ?pool ?(cache = Cache.disabled ()) ?(checkpoints = false)
    ?(progress = fun _ -> ()) ?datasets scale surrogate =
  let datasets =
    match datasets with Some d -> d | None -> Datasets.Bench13.load_all ()
  in
  let digest = Setup.surrogate_digest surrogate in
  let checkpoint_every = if checkpoints then Some 50 else None in
  let rows =
    List.map
      (run_dataset ?pool ~cache ?checkpoint_every ~digest ~progress scale surrogate)
      datasets
  in
  let average =
    List.map
      (fun key ->
        let means = List.map (fun r -> (List.assoc key r.cells).mean) rows in
        let stds = List.map (fun r -> (List.assoc key r.cells).std) rows in
        let avg l = List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l) in
        (key, { mean = avg means; std = avg stds }))
      (column_keys scale)
  in
  { rows; average }

let average_of t ~arm ~epsilon = List.assoc (arm, epsilon) t.average

let ordered_keys t =
  match t.rows with
  | [] -> List.map fst t.average
  | r :: _ -> List.map fst r.cells

(* Paper column order: fixed/nominal, fixed/va, learnable/nominal,
   learnable/va — each at 5 % and 10 %. *)
let paper_order (a : Setup.arm * float) (b : Setup.arm * float) =
  let rank (arm, eps) =
    ( (if arm.Setup.learnable then 1 else 0),
      (if arm.Setup.variation_aware then 1 else 0),
      eps )
  in
  let la, va, ea = rank a and lb, vb, eb = rank b in
  let c = Int.compare la lb in
  if c <> 0 then c
  else
    let c = Int.compare va vb in
    if c <> 0 then c else Float.compare ea eb

let render t =
  let keys = List.sort paper_order (ordered_keys t) in
  let header =
    "Dataset"
    :: List.map
         (fun (arm, eps) ->
           Printf.sprintf "%s@%g%%" (Setup.arm_name arm) (eps *. 100.0))
         keys
  in
  let data_rows =
    List.map
      (fun r ->
        r.dataset
        :: List.map
             (fun key ->
               let c = List.assoc key r.cells in
               Report.cell c.mean c.std)
             keys)
      t.rows
  in
  let avg_row =
    "Average"
    :: List.map
         (fun key ->
           let c = List.assoc key t.average in
           Report.cell c.mean c.std)
         keys
  in
  Report.table ~header ~rows:(data_rows @ [ avg_row ])

let to_csv_rows t =
  let keys = List.sort paper_order (ordered_keys t) in
  let header =
    "dataset"
    :: List.concat_map
         (fun (arm, eps) ->
           let base = Printf.sprintf "%s@%g" (Setup.arm_name arm) (eps *. 100.0) in
           [ base ^ "_mean"; base ^ "_std" ])
         keys
  in
  let rows =
    List.map
      (fun r ->
        r.dataset
        :: List.concat_map
             (fun key ->
               let c = List.assoc key r.cells in
               [ Printf.sprintf "%.4f" c.mean; Printf.sprintf "%.4f" c.std ])
             keys)
      t.rows
  in
  (header, rows)
