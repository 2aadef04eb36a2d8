type config = {
  max_epochs : int;
  patience : int;
  val_every : int;
}

let default_config = { max_epochs = 1000; patience = 100; val_every = 1 }

type history = {
  train_losses : float array;
  val_losses : float array;
  best_epoch : int;
  best_val_loss : float;
  stopped_early : bool;
}

type state = {
  (* pnnlint:allow R7 epoch-loop bookkeeping confined to the domain running
     [fit]; parallel experiment replicas each own a private state *)
  mutable epoch : int;
  mutable train_hist : float list;
  mutable val_hist : float list;
  mutable best_val : float;
  mutable best_epoch : int;
  mutable epochs_since_best : int;
  mutable stopped_early : bool;
}

let fresh_state () =
  {
    epoch = 0;
    train_hist = [];
    val_hist = [];
    best_val = infinity;
    best_epoch = 0;
    epochs_since_best = 0;
    stopped_early = false;
  }

let run ?state ?on_epoch ~config ~optimizers ~train_loss ~val_loss ~snapshot
    ~restore () =
  if config.val_every < 1 then invalid_arg "Train.run: val_every < 1";
  let st = match state with Some s -> s | None -> fresh_state () in
  (try
     for epoch = st.epoch to config.max_epochs - 1 do
       let loss = train_loss () in
       Autodiff.backward loss;
       List.iter (fun (opt, ps) -> Optimizer.step opt ps) optimizers;
       let tl = Tensor.get (Autodiff.value loss) 0 0 in
       st.train_hist <- tl :: st.train_hist;
       st.epochs_since_best <- st.epochs_since_best + 1;
       if epoch mod config.val_every = 0 then begin
         let vl = val_loss () in
         st.val_hist <- vl :: st.val_hist;
         (* a NaN loss never compares below the best, so it is never kept *)
         if vl < st.best_val then begin
           st.best_val <- vl;
           st.best_epoch <- epoch;
           st.epochs_since_best <- 0;
           snapshot ()
         end
         else if st.epochs_since_best > config.patience then begin
           st.stopped_early <- true;
           raise Exit
         end
       end;
       st.epoch <- epoch + 1;
       match on_epoch with Some f -> f st | None -> ()
     done
   with Exit -> ());
  if st.best_val < infinity then restore ();
  {
    train_losses = Array.of_list (List.rev st.train_hist);
    val_losses = Array.of_list (List.rev st.val_hist);
    best_epoch = st.best_epoch;
    best_val_loss = st.best_val;
    stopped_early = st.stopped_early;
  }
