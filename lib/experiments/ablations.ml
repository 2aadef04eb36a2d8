(* Random i.i.d. sampling for the sampler ablation: like LHS but without the
   stratification. *)
let sample_random rng ~n =
  Array.init n (fun _ ->
      Surrogate.Design_space.assemble
        (Array.mapi
           (fun i lo ->
             Rng.uniform rng ~lo ~hi:Surrogate.Design_space.learnable_hi.(i))
           Surrogate.Design_space.learnable_lo))

(* the simulation budget and training length of both surrogate ablations *)
let samples = 1200
let surrogate_epochs = 800

let surrogate_quality dataset =
  let rng = Rng.create 42 in
  let _, report =
    Surrogate.Pipeline.train_surrogate ~arch:[ 10; 9; 8; 6; 4 ] ~max_epochs:surrogate_epochs rng
      dataset
  in
  (report.Surrogate.Pipeline.val_mse, report.Surrogate.Pipeline.val_r2)

let sampler_ablation () =
  let make sampler =
    match sampler with
    | `Sobol -> Surrogate.Pipeline.generate_dataset ~n:samples ()
    | `Lhs -> Surrogate.Pipeline.generate_dataset ~n:samples ~sampler:(`Lhs (Rng.create 7)) ()
    | `Random -> Surrogate.Pipeline.dataset_of_omegas (sample_random (Rng.create 7) ~n:samples)
  in
  let rows =
    List.map
      (fun (name, sampler) ->
        let dataset = make sampler in
        let mse, r2 = surrogate_quality dataset in
        [
          name;
          string_of_int (Array.length dataset.Surrogate.Pipeline.omegas);
          Printf.sprintf "%.5f" mse;
          Printf.sprintf "%.4f" r2;
        ])
      [ ("sobol (paper)", `Sobol); ("latin hypercube", `Lhs); ("iid uniform", `Random) ]
  in
  "Ablation: design-space sampler (equal simulation budget)\n"
  ^ Report.table ~header:[ "sampler"; "kept"; "val MSE"; "val R2" ] ~rows

let architecture_ablation () =
  let dataset = Surrogate.Pipeline.generate_dataset ~n:samples () in
  let rows =
    List.map
      (fun (name, arch) ->
        let rng = Rng.create 42 in
        let _, report =
          Surrogate.Pipeline.train_surrogate ~arch ~max_epochs:surrogate_epochs rng dataset
        in
        [
          name;
          string_of_int (List.length arch - 1);
          Printf.sprintf "%.5f" report.Surrogate.Pipeline.val_mse;
          Printf.sprintf "%.4f" report.Surrogate.Pipeline.val_r2;
        ])
      [
        ("13-layer deep-narrow (paper)", Surrogate.Model.paper_arch);
        ("3-layer wide", [ 10; 32; 32; 4 ]);
        ("2-layer", [ 10; 24; 4 ]);
        ("linear", [ 10; 4 ]);
      ]
  in
  "Ablation: surrogate architecture (same data, same epochs)\n"
  ^ Report.table ~header:[ "architecture"; "layers"; "val MSE"; "val R2" ] ~rows

let surrogate_small = lazy (Setup.surrogate_of_scale Setup.quick)

let surrogate_small_digest = lazy (Setup.surrogate_digest (Lazy.force surrogate_small))

let cell_of_lines lines =
  match List.map Lines.words lines with
  | [ [ "acc"; a; m ] ] ->
      let value = Lines.float_field ~fmt:"Ablations" "accuracy" in
      (value a, value m)
  | _ -> failwith "Ablations: bad cell payload"

let train_once ~cache ~init ~config ~seed data =
  let spec = data.Datasets.Synth.spec in
  let key =
    Cache.key ~schema:(Pnn.Serialize.cache_schema ()) ~kind:"ablcell"
      [
        Lazy.force surrogate_small_digest;
        Pnn.Serialize.config_line config;
        spec.Datasets.Synth.name;
        string_of_int seed;
        Setup.init_name init;
      ]
  in
  Cache.memoize cache ~kind:"ablcell" ~key
    ~encode:(fun (acc, majority) -> [ Printf.sprintf "acc %h %h" acc majority ])
    ~decode:cell_of_lines
    (fun () ->
      let split = Datasets.Synth.split (Rng.create (seed + 100)) data in
      let rng = Rng.create seed in
      let tdata =
        Pnn.Training.of_split ~n_classes:spec.Datasets.Synth.classes split
      in
      let net =
        Pnn.Network.create ~init rng config (Lazy.force surrogate_small)
          ~inputs:spec.Datasets.Synth.features ~outputs:spec.Datasets.Synth.classes
      in
      let result = Pnn.Training.fit rng net tdata in
      let acc =
        Pnn.Evaluation.nominal_accuracy result.Pnn.Training.network
          ~x:split.Datasets.Synth.x_test ~y:split.Datasets.Synth.y_test
      in
      (acc, Datasets.Synth.majority_fraction data))

let initialization_ablation ?(cache = Cache.disabled ()) () =
  let seeds = 4 in
  let config =
    { Pnn.Config.default with Pnn.Config.max_epochs = 400; patience = 120 }
  in
  let rows =
    List.concat_map
      (fun dataset_name ->
        let data = Datasets.Bench13.load dataset_name in
        List.map
          (fun (label, init) ->
            let results =
              List.init seeds (fun s -> train_once ~cache ~init ~config ~seed:(s + 1) data)
            in
            let accs = Array.of_list (List.map fst results) in
            let majority = snd (List.hd results) in
            let ok =
              Array.fold_left
                (fun acc a -> if a > majority +. 0.05 then acc + 1 else acc)
                0 accs
            in
            [
              dataset_name;
              label;
              Printf.sprintf "%d/%d" ok seeds;
              Printf.sprintf "%.3f" (Stats.mean accs);
              Printf.sprintf "%.3f" (Stats.max accs);
            ])
          [ ("centered (ours)", `Centered); ("random-sign", `Random_sign) ])
      [ "seeds"; "vertebral-2c" ]
  in
  "Ablation: crossbar initialization (nominal training, fixed circuits)\n"
  ^ Report.table
      ~header:[ "dataset"; "init"; "beats majority"; "mean acc"; "best acc" ]
      ~rows

let temperature_ablation () =
  let data = Datasets.Bench13.load "iris" in
  let surrogate = Lazy.force surrogate_small in
  let rows =
    List.map
      (fun temp ->
        let config =
          {
            Pnn.Config.default with
            Pnn.Config.logit_scale = temp;
            max_epochs = 500;
            patience = 150;
          }
        in
        let train s =
          let split = Datasets.Synth.split (Rng.create (s + 200)) data in
          (Pnn.Training.train_fresh (Rng.create s) config surrogate ~n_classes:3 split, split)
        in
        let r, split = Seeds.chosen (Seeds.train train [ 1; 2; 3 ]) in
        let e10 =
          Pnn.Evaluation.mc_accuracy (Rng.create 9) r.Pnn.Training.network
            ~model:(Pnn.Variation.Uniform 0.10) ~n:40 ~x:split.Datasets.Synth.x_test
            ~y:split.Datasets.Synth.y_test
        in
        let nominal =
          Pnn.Evaluation.nominal_accuracy r.Pnn.Training.network
            ~x:split.Datasets.Synth.x_test ~y:split.Datasets.Synth.y_test
        in
        [
          Printf.sprintf "%.1f" temp;
          Printf.sprintf "%.3f" nominal;
          Report.cell e10.Pnn.Evaluation.mean e10.Pnn.Evaluation.std;
        ])
      [ 2.0; 4.0; 10.0 ]
  in
  "Ablation: softmax temperature (iris, nominal training)\n"
  ^ Report.table ~header:[ "logit scale"; "nominal acc"; "acc @10% variation" ] ~rows

let depth_ablation () =
  let data = Datasets.Bench13.load "pendigits" in
  let spec = data.Datasets.Synth.spec in
  let surrogate = Lazy.force surrogate_small in
  let config = { Pnn.Config.default with Pnn.Config.max_epochs = 400; patience = 120 } in
  let rows =
    List.map
      (fun (label, hidden_sizes) ->
        let sizes = (spec.Datasets.Synth.features :: hidden_sizes) @ [ spec.Datasets.Synth.classes ] in
        let train s =
          let split = Datasets.Synth.split (Rng.create (s + 300)) data in
          let tdata = Pnn.Training.of_split ~n_classes:spec.Datasets.Synth.classes split in
          let net = Pnn.Network.create_deep (Rng.create s) config surrogate ~sizes in
          (Pnn.Training.fit (Rng.create (s + 17)) net tdata, split)
        in
        let r, split = Seeds.chosen (Seeds.train train [ 1; 2 ]) in
        [
          label;
          Printf.sprintf "%.3f"
            (Pnn.Evaluation.nominal_accuracy r.Pnn.Training.network
               ~x:split.Datasets.Synth.x_test ~y:split.Datasets.Synth.y_test);
        ])
      [ ("3 (paper)", [ 3 ]); ("6", [ 6 ]); ("3-3", [ 3; 3 ]); ("6-4", [ 6; 4 ]) ]
  in
  "Extension: pNN topology on the hardest task (pendigits; seed with the best \
   validation loss)\n"
  ^ Report.table ~header:[ "hidden layout"; "nominal test acc" ] ~rows
