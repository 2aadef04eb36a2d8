type t = {
  dataset : string;
  t_fracs : float list;
  nominal_curve : (float * Table2.cell) list;
  aware_curve : (float * Table2.cell) list;
}

let seeds = [ 1; 2; 3 ]
let n_mc = 40
let t_fracs = [ 0.0; 0.25; 0.5; 0.75; 1.0 ]

let run ?(dataset = "seeds") model scale surrogate =
  let data = Datasets.Bench13.load dataset in
  let spec = data.Datasets.Synth.spec in
  let n_classes = spec.Datasets.Synth.classes in
  let config = scale.Setup.config in
  let train aging seed =
    let split = Datasets.Synth.split (Rng.create (seed + 400)) data in
    let tdata = Pnn.Training.of_split ~n_classes split in
    let rng = Rng.create (seed + (if aging then 9000 else 0)) in
    let net =
      Pnn.Network.create rng config surrogate ~inputs:spec.Datasets.Synth.features
        ~outputs:n_classes
    in
    let result =
      if aging then Pnn.Aging.fit_aging_aware rng model net tdata
      else Pnn.Training.fit rng net tdata
    in
    (result, split)
  in
  let curve aging =
    let result, split = Seeds.chosen (Seeds.train (train aging) seeds) in
    List.map
      (fun (t, e) ->
        ( t,
          {
            Table2.mean = e.Pnn.Evaluation.mean_accuracy;
            std = e.Pnn.Evaluation.std_accuracy;
          } ))
      (Pnn.Aging.accuracy_over_lifetime (Rng.create 555) model
         result.Pnn.Training.network ~t_fracs ~n:n_mc
         ~x:split.Datasets.Synth.x_test ~y:split.Datasets.Synth.y_test)
  in
  {
    dataset;
    t_fracs;
    nominal_curve = curve false;
    aware_curve = curve true;
  }

let render t =
  let header =
    "training" :: List.map (fun f -> Printf.sprintf "t=%.2f" f) t.t_fracs
  in
  let row label curve =
    label
    :: List.map (fun (_, c) -> Report.cell c.Table2.mean c.Table2.std) curve
  in
  Printf.sprintf "Extension: accuracy over device lifetime (%s)\n" t.dataset
  ^ Report.table ~header
      ~rows:[ row "aging-unaware" t.nominal_curve; row "aging-aware" t.aware_curve ]
