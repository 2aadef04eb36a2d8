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

let config_for scale arm eps =
  let base = scale.Setup.config in
  let base = Pnn.Config.with_learnable base arm.Setup.learnable in
  Pnn.Config.with_epsilon base (if arm.Setup.variation_aware then eps else 0.0)

(* Content address of one (dataset, seed, arm) training cell: everything the
   run reads — the frozen surrogate, the resolved config (which encodes arm
   and ε), the dataset identity and both seed layers.  [run_seed]'s stream
   tag is derived from the same inputs, so the key covers it. *)
let cell_key ~surrogate_digest ~config ~dataset ~dataset_seed ~seed ~init =
  Cache.key ~schema:(Pnn.Serialize.cache_schema ()) ~kind:"t2cell"
    [
      surrogate_digest;
      Pnn.Serialize.config_line config;
      dataset;
      string_of_int dataset_seed;
      string_of_int seed;
      Setup.init_name init;
    ]

(* the per-seed train/validation/test split, shared by every arm so the arm
   comparison is fair; a function of (dataset identity, seed) only, so any
   process can reproduce it *)
let split_for (data : Datasets.Synth.t) ~seed =
  let dataset_seed = data.Datasets.Synth.spec.Datasets.Synth.seed in
  Datasets.Synth.split (Rng.create (dataset_seed + seed)) data

(* One memoized training cell — the unit of work the multi-process
   orchestrator distributes, so everything here (the key, the RNG stream
   derivation, the checkpoint placement) must stay a pure function of the
   named inputs. *)
let train_cell ?pool ?cache ?checkpoints ?checkpoint_every ?interrupt_after
    ~digest ~scale ~surrogate ~dataset ~dataset_seed ~n_classes ~seed ~split
    ~arm ~eps () =
  let config = config_for scale arm eps in
  let key =
    cell_key ~surrogate_digest:digest ~config ~dataset ~dataset_seed ~seed
      ~init:scale.Setup.init
  in
  Seeds.cell ?cache ?checkpoints ?checkpoint_every ?interrupt_after
    ~kind:"t2cell" ~key surrogate (fun checkpoint ->
      Pnn.Training.train_fresh ?pool ~init:scale.Setup.init ?checkpoint
        (run_seed ~dataset_seed ~arm ~eps ~seed)
        config surrogate ~n_classes split)

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

(* Per (dataset, arm): every seed trains (fanned out over the pool), the
   best-validation-loss network is chosen, and the chosen one is evaluated at
   each test ε.  Nominal arms train once; variation-aware arms train per ε. *)
let run_dataset ?pool ~cache ?checkpoints ~digest ~progress scale surrogate
    (data : Datasets.Synth.t) =
  let spec = data.Datasets.Synth.spec in
  let n_classes = spec.Datasets.Synth.classes in
  let dataset_seed = spec.Datasets.Synth.seed in
  let dataset = spec.Datasets.Synth.name in
  (* one split per seed, shared by all arms for a fair comparison *)
  let splits =
    List.map (fun seed -> (seed, split_for data ~seed)) scale.Setup.seeds
  in
  let train arm eps =
    Seeds.chosen
      (Seeds.train ?pool
         (fun (seed, split) ->
           ( train_cell ?pool ~cache ?checkpoints ~digest ~scale ~surrogate
               ~dataset ~dataset_seed ~n_classes ~seed ~split ~arm ~eps (),
             split ))
         splits)
  in
  let cells =
    List.concat_map
      (fun arm ->
        let name = Printf.sprintf "%s %s" dataset (Setup.arm_name arm) in
        let cell eps (result, split) =
          ( (arm, eps),
            evaluate ?pool ~cache scale ~dataset_seed result.Pnn.Training.network
              ~epsilon:eps ~split )
        in
        if arm.Setup.variation_aware then
          List.map
            (fun eps ->
              progress (Printf.sprintf "%s eps=%g" name eps);
              cell eps (train arm eps))
            scale.Setup.test_epsilons
        else begin
          progress name;
          let chosen = train arm 0.0 in
          List.map (fun eps -> cell eps chosen) scale.Setup.test_epsilons
        end)
      Setup.arms
  in
  { dataset; cells }

let column_keys scale =
  List.concat_map
    (fun arm -> List.map (fun eps -> (arm, eps)) scale.Setup.test_epsilons)
    Setup.arms

let run ?pool ?cache ?checkpoints ?(progress = fun _ -> ()) ?datasets scale
    surrogate =
  let datasets =
    match datasets with Some d -> d | None -> Datasets.Bench13.load_all ()
  in
  let cache = match cache with Some c -> c | None -> Cache.get_default () in
  let digest = Setup.surrogate_digest surrogate in
  let rows =
    List.map
      (run_dataset ?pool ~cache ?checkpoints ~digest ~progress scale surrogate)
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

let cell_of t ~dataset ~arm ~epsilon =
  let row = List.find (fun r -> r.dataset = dataset) t.rows in
  List.assoc (arm, epsilon) row.cells

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
