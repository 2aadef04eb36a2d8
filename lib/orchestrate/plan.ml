type ctx = {
  scale : Experiments.Setup.scale;
  surrogate : Surrogate.Model.t;
  digest : string;
  datasets : Datasets.Synth.t list;
  faults : (string * float) option;
  cache : Cache.t;
  checkpoints : bool;
  checkpoint_every : int;
}

let create ?(datasets = []) ?faults ?(checkpoints = true)
    ?(checkpoint_every = 50) ~cache scale surrogate =
  {
    scale;
    surrogate;
    digest = Experiments.Setup.surrogate_digest surrogate;
    datasets;
    faults;
    cache;
    checkpoints;
    checkpoint_every;
  }

(* Training ε values per arm, as Table II trains them: variation-aware arms
   train once per test ε, nominal arms train once at ε = 0. *)
let train_epsilons (scale : Experiments.Setup.scale)
    (arm : Experiments.Setup.arm) =
  if arm.Experiments.Setup.variation_aware then
    scale.Experiments.Setup.test_epsilons
  else [ 0.0 ]

let specs ctx =
  let t2 =
    List.concat_map
      (fun (data : Datasets.Synth.t) ->
        let spec = data.Datasets.Synth.spec in
        List.concat_map
          (fun arm ->
            List.concat_map
              (fun eps ->
                List.map
                  (fun seed ->
                    Spec.T2_cell
                      {
                        dataset = spec.Datasets.Synth.name;
                        dataset_seed = spec.Datasets.Synth.seed;
                        seed;
                        arm;
                        eps;
                      })
                  ctx.scale.Experiments.Setup.seeds)
              (train_epsilons ctx.scale arm))
          Experiments.Setup.arms)
      ctx.datasets
  in
  let fault =
    match ctx.faults with
    | None -> []
    | Some (dataset, epsilon) ->
        List.concat_map
          (fun (arm_idx, _) ->
            List.map
              (fun seed -> Spec.Fault_cell { dataset; arm_idx; seed; epsilon })
              ctx.scale.Experiments.Setup.seeds)
          (List.mapi
             (fun i a -> (i, a))
             (Experiments.Faults.train_arms epsilon))
  in
  t2 @ fault

let units ctx =
  List.map
    (fun spec ->
      (Spec.key ~digest:ctx.digest ~scale:ctx.scale spec, spec))
    (specs ctx)

let dataset_for ctx name =
  match
    List.find_opt
      (fun (d : Datasets.Synth.t) ->
        d.Datasets.Synth.spec.Datasets.Synth.name = name)
      ctx.datasets
  with
  | Some d -> d
  | None -> Datasets.Bench13.load name

let execute ?pool ?interrupt_after ctx spec =
  match spec with
  | Spec.T2_cell { dataset; dataset_seed; seed; arm; eps } ->
      let data = dataset_for ctx dataset in
      let n_classes = data.Datasets.Synth.spec.Datasets.Synth.classes in
      let split = Experiments.Table2.split_for data ~seed in
      ignore
        (Experiments.Table2.train_cell ?pool ~cache:ctx.cache
           ~checkpoints:ctx.checkpoints ~checkpoint_every:ctx.checkpoint_every
           ?interrupt_after ~digest:ctx.digest ~scale:ctx.scale
           ~surrogate:ctx.surrogate ~dataset ~dataset_seed ~n_classes ~seed
           ~split ~arm ~eps ())
  | Spec.Fault_cell { dataset; arm_idx; seed; epsilon } ->
      let data = dataset_for ctx dataset in
      let spec' = data.Datasets.Synth.spec in
      let split = Experiments.Faults.split_for data ~seed in
      ignore
        (Experiments.Faults.train_cell ?pool ~cache:ctx.cache
           ~checkpoints:ctx.checkpoints ~checkpoint_every:ctx.checkpoint_every
           ?interrupt_after ~digest:ctx.digest ~scale:ctx.scale
           ~surrogate:ctx.surrogate ~dataset
           ~features:spec'.Datasets.Synth.features
           ~n_classes:spec'.Datasets.Synth.classes ~arm_idx
           ~model:(Spec.fault_model ~arm_idx ~epsilon)
           ~seed ~split ())
