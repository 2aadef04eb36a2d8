type t = {
  dataset : string;
  t_fracs : float list;
  nominal_curve : (float * Table2.cell) list;
  aware_curve : (float * Table2.cell) list;
}

let seeds = [ 1; 2; 3 ]
let n_mc = 40
let t_fracs = [ 0.0; 0.25; 0.5; 0.75; 1.0 ]

(* κ_max = 0.2, β = 0.5; [None] samples the life fraction per draw. *)
let aging t_frac = Pnn.Variation.Aging { kappa_max = 0.2; beta = 0.5; t_frac }

let run ?(dataset = "seeds") scale surrogate =
  let data = Datasets.Bench13.load dataset in
  let spec = data.Datasets.Synth.spec in
  let n_classes = spec.Datasets.Synth.classes in
  let config = scale.Setup.config in
  let train aware seed =
    let split = Datasets.Synth.split (Rng.create (seed + 400)) data in
    let tdata = Pnn.Training.of_split ~n_classes split in
    let rng = Rng.create (seed + (if aware then 9000 else 0)) in
    let net =
      Pnn.Network.create rng config surrogate ~inputs:spec.Datasets.Synth.features
        ~outputs:n_classes
    in
    let model = if aware then Some (aging None) else None in
    (Pnn.Training.fit ?model rng net tdata, split)
  in
  let curve aware =
    let result, split = Seeds.chosen (Seeds.train (train aware) seeds) in
    (* every life point draws from the one stream, in order *)
    let rng = Rng.create 555 in
    List.map
      (fun t ->
        let e =
          Pnn.Evaluation.mc_accuracy rng result.Pnn.Training.network
            ~model:(aging (Some t)) ~n:n_mc ~x:split.Datasets.Synth.x_test
            ~y:split.Datasets.Synth.y_test
        in
        (t, { Table2.mean = e.Pnn.Evaluation.mean; std = e.Pnn.Evaluation.std }))
      t_fracs
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
