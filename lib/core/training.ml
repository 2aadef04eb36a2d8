type data = {
  x_train : Tensor.t;
  y_train : Tensor.t;
  x_val : Tensor.t;
  y_val : Tensor.t;
}

type result = {
  network : Network.t;
  history : Nn.Train.history;
  val_loss : float;
}

let of_split ~n_classes (s : Datasets.Synth.split) =
  {
    x_train = s.Datasets.Synth.x_train;
    y_train = Datasets.Synth.one_hot ~n_classes s.Datasets.Synth.y_train;
    x_val = s.Datasets.Synth.x_val;
    y_val = Datasets.Synth.one_hot ~n_classes s.Datasets.Synth.y_val;
  }

type checkpoint = {
  ckpt_path : string;
  every : int;
  interrupt_after : int option;
}

exception Interrupted

(* Sub-stream derivation follows the split-only convention (docs/INTERNALS).
   Without a model the config's ε is [Uniform ε]: training noise comes from
   [rng] itself and the fixed validation draws from one split, taken only
   when ε > 0.  An explicit model takes two splits, training first, so
   neither derived stream aliases the caller's — later caller draws never
   replay training noise. *)
let fit ?pool ?model ?checkpoint rng network data =
  let pool = match pool with Some p -> p | None -> Parallel.get_pool () in
  let config = Network.config network in
  let law =
    match model with Some m -> m | None -> Variation.Uniform config.Config.epsilon
  in
  Variation.validate law;
  let train_rng, val_rng =
    match model with
    | None -> (rng, if Variation.nominal law then rng else Rng.split rng)
    | Some _ ->
        let train_rng = Rng.split rng in
        (train_rng, Rng.split rng)
  in
  (* Fresh training draws read the current parameters through [ctx], so
     defect models track the optimizer. *)
  let ctx = Variation.ctx_of_network network in
  let draw_train () =
    Variation.mc_draws train_rng law ctx ~n:config.Config.n_mc_train
  in
  (* Fixed validation draws: a stable early-stopping signal across epochs. *)
  let val_noises = Variation.mc_draws val_rng law ctx ~n:config.Config.n_mc_val in
  let opt_theta = Nn.Optimizer.adam ~lr:config.Config.lr_theta () in
  let optimizers =
    let groups = [ (opt_theta, Network.params_theta network) ] in
    if Config.learnable config then
      (Nn.Optimizer.adam ~lr:config.Config.lr_omega (), Network.params_omega network)
      :: groups
    else groups
  in
  let best = ref (Network.snapshot network) in
  let st = Nn.Train.fresh_state () in
  (* Resume before the first epoch: the caller has just re-run the identical
     pre-loop derivations (network init, fixed validation noises), so
     restoring the loop-time state — weights, best snapshot, progress,
     optimizer moments, in-loop RNG position — re-enters the interrupted
     trajectory bit-exactly.  Anything wrong with the file is a fresh start. *)
  (match checkpoint with
  | Some ck -> (
      match Checkpoint.load ck.ckpt_path with
      | Some c when Checkpoint.matches c config -> (
          match
            Checkpoint.apply c ~rng:train_rng ~state:st ~network ~optimizers
          with
          | b -> best := b
          | exception Failure _ -> ())
      | Some _ | None -> ())
  | None -> ());
  let on_epoch =
    match checkpoint with
    | None -> None
    | Some ck ->
        Some
          (fun (s : Nn.Train.state) ->
            if ck.every > 0 && s.Nn.Train.epoch mod ck.every = 0 then
              Checkpoint.save ~path:ck.ckpt_path ~config ~rng:train_rng
                ~state:s ~network ~best:!best ~optimizers;
            match ck.interrupt_after with
            | Some n when s.Nn.Train.epoch >= n -> raise Interrupted
            | Some _ | None -> ())
  in
  let val_loss () =
    (* Forward-only: one η stage for the fixed draws, then the compiled
       loss graphs; the mean of the one-draw losses, summed in draw order. *)
    Network.mc_loss_value pool network ~noises:val_noises ~x:data.x_val
      ~labels:data.y_val
  in
  let history =
    Nn.Train.run ~state:st ?on_epoch
      ~config:
        {
          Nn.Train.max_epochs = config.Config.max_epochs;
          patience = config.Config.patience;
          val_every = config.Config.val_every;
        }
      ~optimizers
      ~train_loss:(fun () ->
        (* Data-parallel over the pre-drawn noises; the fixed-order gradient
           reduction keeps updates bit-identical for any pool size. *)
        Network.mc_loss_pooled pool network ~noises:(draw_train ()) ~x:data.x_train
          ~labels:data.y_train)
      ~val_loss
      ~snapshot:(fun () -> best := Network.snapshot network)
      ~restore:(fun () -> Network.restore network !best)
      ()
  in
  { network; history; val_loss = history.Nn.Train.best_val_loss }

let train_fresh ?pool ?init ?checkpoint rng config surrogate ~n_classes split =
  let data = of_split ~n_classes split in
  let inputs = Tensor.cols data.x_train in
  let network = Network.create ?init rng config surrogate ~inputs ~outputs:n_classes in
  fit ?pool ?checkpoint rng network data

(* {2 Result codec}

   Cache payload for a completed training run: the trained network plus its
   full history, [%h]-exact so a cache hit is bit-identical to the compute it
   replaced. *)

let fmt = "Training"

let result_lines r =
  Serialize.to_lines r.network
  @ [
      Printf.sprintf "hist %d %b %h" r.history.Nn.Train.best_epoch
        r.history.Nn.Train.stopped_early r.history.Nn.Train.best_val_loss;
      Lines.counted_line "train" r.history.Nn.Train.train_losses;
      Lines.counted_line "val" r.history.Nn.Train.val_losses;
    ]

let result_of_lines surrogate lines =
  let network, rest = Serialize.of_lines surrogate lines in
  match rest with
  | [ hist_l; train_l; val_l ] ->
      let best_epoch, stopped_early, best_val_loss =
        match Lines.words hist_l with
        | [ "hist"; be; se; bv ] ->
            ( Lines.int_field ~fmt "best epoch" be,
              Lines.bool_field ~fmt "stopped early" se,
              Lines.float_field ~fmt "best val loss" bv )
        | _ -> failwith "Training: bad hist line"
      in
      let history =
        {
          Nn.Train.train_losses = Lines.counted_of_line ~fmt "train" train_l;
          val_losses = Lines.counted_of_line ~fmt "val" val_l;
          best_epoch;
          best_val_loss;
          stopped_early;
        }
      in
      { network; history; val_loss = best_val_loss }
  | _ -> failwith "Training: bad result payload"
