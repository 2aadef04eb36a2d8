type t = {
  dataset : string;
  epsilon : float;
  train_arms : string list;
  test_families : string list;
  grid : ((string * string) * Pnn.Evaluation.mc_result) list;
  defect_sweep : (string * (float * Pnn.Evaluation.mc_result) list) list;
  sigma_sweep : (string * (float * Pnn.Evaluation.mc_result) list) list;
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

(* the per-seed split, shared by all arms; a function of the seed only (the
   dataset is fixed per run), so any process can reproduce it *)
let split_for (data : Datasets.Synth.t) ~seed =
  Datasets.Synth.split (Rng.create (seed + 700)) data

let init_name = function `Centered -> "centered" | `Random_sign -> "random_sign"

(* [train_rng]'s tag covers (arm_idx, seed); the key carries both plus the
   model descriptor, so arms sharing a config never collide. *)
let cell_key ~surrogate_digest ~scale ~dataset ~arm_idx ~model ~seed =
  Cache.key ~schema:(Pnn.Serialize.cache_schema ()) ~kind:"faultcell"
    [
      surrogate_digest;
      Pnn.Serialize.config_line scale.Setup.config;
      dataset;
      string_of_int arm_idx;
      model_tag model;
      string_of_int seed;
      init_name scale.Setup.init;
    ]

(* One memoized training cell — the fault-table counterpart of
   {!Table2.train_cell}, and the unit the orchestrator distributes. *)
let train_cell ?pool ?(cache = Cache.disabled ()) ?(checkpoints = false)
    ?(checkpoint_every = 50) ?interrupt_after ~digest ~scale ~surrogate
    ~dataset ~features ~n_classes ~arm_idx ~model ~seed ~split () =
  let pool = match pool with Some p -> p | None -> Parallel.get_pool () in
  let key = cell_key ~surrogate_digest:digest ~scale ~dataset ~arm_idx ~model ~seed in
  Cache.memoize cache ~kind:"faultcell" ~key ~encode:Pnn.Training.result_lines
    ~decode:(Pnn.Training.result_of_lines surrogate)
    (fun () ->
      let rng = train_rng ~arm_idx ~seed in
      let tdata = Pnn.Training.of_split ~n_classes split in
      let network =
        Pnn.Network.create ~init:scale.Setup.init rng scale.Setup.config
          surrogate ~inputs:features ~outputs:n_classes
      in
      let checkpoint =
        if not checkpoints then None
        else
          match Cache.member_path cache ~kind:"ckpt" ~key with
          | None -> None
          | Some path ->
              Some
                {
                  Pnn.Training.ckpt_path = path;
                  every = checkpoint_every;
                  resume = true;
                  interrupt_after;
                }
      in
      let r =
        match model with
        | None -> Pnn.Training.fit ~pool ?checkpoint rng network tdata
        | Some m ->
            Pnn.Training.fit_under ~pool ?checkpoint rng ~model:m network tdata
      in
      (match checkpoint with
      | Some c -> (
          try Sys.remove c.Pnn.Training.ckpt_path with Sys_error _ -> ())
      | None -> ());
      r)

let best_of candidates =
  match candidates with
  | [] -> invalid_arg "Faults.run: no seeds"
  | first :: rest ->
      List.fold_left
        (fun (best, bsplit) (r, split) ->
          if r.Pnn.Training.val_loss < best.Pnn.Training.val_loss then (r, split)
          else (best, bsplit))
        first rest

let run ?pool ?cache ?(checkpoints = false) ?(progress = fun _ -> ())
    ?(dataset = "seeds") ?(epsilon = 0.10) scale surrogate =
  let pool = match pool with Some p -> p | None -> Parallel.get_pool () in
  let cache = match cache with Some c -> c | None -> Cache.get_default () in
  let digest = Cache.digest_lines (Surrogate.Model.to_lines surrogate) in
  let data = Datasets.Bench13.load dataset in
  let spec = data.Datasets.Synth.spec in
  let n_classes = spec.Datasets.Synth.classes in
  (* one split per seed, shared by all arms for a fair comparison *)
  let splits =
    List.map (fun seed -> (seed, split_for data ~seed)) scale.Setup.seeds
  in
  let train_one ~arm_idx model (seed, split) =
    let result =
      train_cell ~pool ~cache ~checkpoints ~digest ~scale ~surrogate ~dataset
        ~features:spec.Datasets.Synth.features ~n_classes ~arm_idx ~model ~seed
        ~split ()
    in
    (result, split)
  in
  (* Train every arm (best-of-seeds by validation loss, as Table II does). *)
  let trained =
    List.mapi
      (fun arm_idx (name, model) ->
        progress (Printf.sprintf "%s train %s" dataset name);
        let result, split = best_of (List.map (train_one ~arm_idx model) splits) in
        (name, arm_idx, result.Pnn.Training.network, split))
      (train_arms epsilon)
  in
  let evaluate ~arm_idx ~test_idx network (split : Datasets.Synth.split) model =
    (* arm_idx and test_idx determine the evaluation stream ([eval_rng]), so
       both belong in the key alongside the content inputs. *)
    let eval_cache =
      if not (Cache.enabled cache) then None
      else
        Some
          ( cache,
            Cache.key ~schema:(Pnn.Serialize.cache_schema ()) ~kind:"mceval"
              [
                Pnn.Serialize.digest network;
                model_tag (Some model);
                string_of_int arm_idx;
                string_of_int test_idx;
                string_of_int scale.Setup.n_mc_test;
                Cache.digest_lines
                  [ Lines.tensor_line split.Datasets.Synth.x_test ];
                Cache.digest_lines
                  (List.map string_of_int
                     (Array.to_list split.Datasets.Synth.y_test));
              ] )
    in
    Pnn.Evaluation.mc_result_under ~pool ?cache:eval_cache
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
  let row ~kind ~train ~test ~param (r : Pnn.Evaluation.mc_result) =
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
