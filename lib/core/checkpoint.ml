let tag = "ckpt"

type t = {
  config : Config.t;
  rng : Rng.t;
  epoch : int;
  best_epoch : int;
  epochs_since_best : int;
  stopped_early : bool;
  best_val : float;
  train_hist : float list;
  val_hist : float list;
  weights : Network.weights;
  best : Network.weights;
  opt_groups : int;
  opt_lines : string list;
}

let state_line (st : Nn.Train.state) =
  Printf.sprintf "state %d %d %d %b %h" st.Nn.Train.epoch st.Nn.Train.best_epoch
    st.Nn.Train.epochs_since_best st.Nn.Train.stopped_early st.Nn.Train.best_val

let weights_lines label (ws : Network.weights) =
  Printf.sprintf "%s %d" label (List.length ws)
  :: List.concat_map
       (fun (theta, act, neg) ->
         [ Lines.tensor_line theta; Lines.tensor_line act; Lines.tensor_line neg ])
       ws

let save ~path ~config ~rng ~state ~network ~best ~optimizers =
  let lines =
    (Serialize.config_line config :: Lines.rng_line rng
    :: state_line state
    (* histories newest-first, exactly as [Nn.Train.state] keeps them, so a
       restored state is field-for-field identical *)
    :: Lines.counted_line "train" (Array.of_list state.Nn.Train.train_hist)
    :: Lines.counted_line "val" (Array.of_list state.Nn.Train.val_hist)
    :: weights_lines "weights" (Network.snapshot network))
    @ weights_lines "best" best
    @ (Printf.sprintf "opts %d" (List.length optimizers)
      :: List.concat_map
           (fun (opt, params) -> Nn.Optimizer.state_lines opt params)
           optimizers)
  in
  ignore (Cache.Blob.write ~tag path lines)

let fmt = "Checkpoint"

let weights_of_lines label lines =
  match lines with
  | head :: rest -> (
      match Lines.words head with
      | [ l; n ] when l = label ->
          let tensor = Lines.tensor_of_line ~fmt in
          Lines.take ~fmt label ~n:(Lines.count_field ~fmt (label ^ " count") n) ~width:3
            (fun line -> (tensor (line 0), tensor (line 1), tensor (line 2)))
            rest
      | _ -> failwith (Printf.sprintf "Checkpoint: bad %s header" label))
  | [] -> failwith (Printf.sprintf "Checkpoint: missing %s section" label)

let parse lines =
  match lines with
  | config_l :: rng_l :: state_l :: train_l :: val_l :: rest ->
      let config = Serialize.config_of_line config_l in
      let rng = Lines.rng_of_line ~fmt rng_l in
      let epoch, best_epoch, epochs_since_best, stopped_early, best_val =
        match Lines.words state_l with
        | [ "state"; e; be; esb; se; bv ] ->
            ( Lines.int_field ~fmt "epoch" e,
              Lines.int_field ~fmt "best epoch" be,
              Lines.int_field ~fmt "epochs since best" esb,
              Lines.bool_field ~fmt "stopped early" se,
              Lines.float_field ~fmt "best val" bv )
        | _ -> failwith "Checkpoint: bad state line"
      in
      let hist label line = Array.to_list (Lines.counted_of_line ~fmt label line) in
      let train_hist = hist "train" train_l in
      let val_hist = hist "val" val_l in
      let weights, rest = weights_of_lines "weights" rest in
      let best, rest = weights_of_lines "best" rest in
      let opt_groups, opt_lines =
        match rest with
        | head :: opt_lines -> (
            match Lines.words head with
            | [ "opts"; n ] -> (Lines.count_field ~fmt "optimizer count" n, opt_lines)
            | _ -> failwith "Checkpoint: bad opts header")
        | [] -> failwith "Checkpoint: missing opts section"
      in
      {
        config;
        rng;
        epoch;
        best_epoch;
        epochs_since_best;
        stopped_early;
        best_val;
        train_hist;
        val_hist;
        weights;
        best;
        opt_groups;
        opt_lines;
      }
  | _ -> failwith "Checkpoint: truncated"

let load path =
  match Cache.Blob.read ~tag path with
  | Cache.Blob.Valid lines -> ( try Some (parse lines) with Failure _ -> None)
  | Cache.Blob.Corrupt | Cache.Blob.Missing -> None

let matches ck config = ck.config = config

let same_shapes ws ws' =
  List.length ws = List.length ws'
  && List.for_all2
       (fun (a, b, c) (a', b', c') ->
         let dims t t' =
           Tensor.rows t = Tensor.rows t' && Tensor.cols t = Tensor.cols t'
         in
         dims a a' && dims b b' && dims c c')
       ws ws'

let apply ck ~rng ~state ~network ~optimizers =
  (* Validate structure before any mutation so a stale checkpoint from a
     different architecture degrades to a clean fresh start. *)
  let current = Network.snapshot network in
  if not (same_shapes ck.weights current && same_shapes ck.best current) then
    failwith "Checkpoint: architecture mismatch";
  if ck.opt_groups <> List.length optimizers then
    failwith "Checkpoint: optimizer group mismatch";
  let installs, rest =
    List.fold_left
      (fun (installs, lines) (opt, params) ->
        let install, rest = Nn.Optimizer.read_state opt params lines in
        (install :: installs, rest))
      ([], ck.opt_lines) optimizers
  in
  if rest <> [] then failwith "Checkpoint: trailing optimizer state";
  List.iter (fun install -> install ()) installs;
  Network.restore network ck.weights;
  state.Nn.Train.epoch <- ck.epoch;
  state.Nn.Train.train_hist <- ck.train_hist;
  state.Nn.Train.val_hist <- ck.val_hist;
  state.Nn.Train.best_val <- ck.best_val;
  state.Nn.Train.best_epoch <- ck.best_epoch;
  state.Nn.Train.epochs_since_best <- ck.epochs_since_best;
  state.Nn.Train.stopped_early <- ck.stopped_early;
  Rng.set_state rng (Rng.state ck.rng);
  ck.best
