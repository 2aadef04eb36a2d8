type dataset = {
  omegas : float array array;
  etas : float array array;
  fit_rmses : float array;
  rejected : int;
}

(* η sanity box: fits outside are degenerate (flat curves chased by huge
   amplitude/offset compensation) and would wreck min-max normalization. *)
let eta_sane (e : Fit.Ptanh.eta) =
  Float.abs e.Fit.Ptanh.eta1 <= 3.0
  && Float.abs e.Fit.Ptanh.eta2 <= 3.0
  && e.Fit.Ptanh.eta3 >= -2.0
  && e.Fit.Ptanh.eta3 <= 3.0
  && Float.abs e.Fit.Ptanh.eta4 <= 100.0

(* {2 Per-chunk dataset cache}

   The DC sweep + LM fit per candidate dominates pipeline cost, so outcomes
   are memoized in fixed-size chunks keyed by the chunk's ω content plus
   every knob the sweep/fit/filter reads.  ω itself is reconstructed from the
   input on decode, so the payload stores only the (η, rmse) verdicts. *)

(* bump when the transfer sweep, the ptanh fit or the η sanity box changes:
   old verdict entries silently re-key instead of being replayed *)
let chunk_schema = "surchunk-2"
let chunk_size = 256

let outcome_line = function
  | None -> "r"
  | Some (_omega, eta, rmse) -> Printf.sprintf "k %s %h" (Lines.float_line eta) rmse

let outcome_of_line omega line =
  match Lines.words line with
  | [ "r" ] -> None
  | "k" :: words ->
      let values = Lines.floats ~fmt:"Pipeline" "outcome value" ~n:5 words in
      Some (omega, Array.sub values 0 4, values.(4))
  | _ -> failwith "Pipeline: bad outcome line"

let chunk_of_lines chunk lines =
  if List.length lines <> Array.length chunk then failwith "Pipeline: chunk length mismatch";
  Array.mapi (fun i line -> outcome_of_line chunk.(i) line) (Array.of_list lines)

(* Each candidate's MNA DC sweep + LM fit is independent and fans out over
   the pool.  Acceptance is then folded in candidate order, so the dataset is
   bit-identical for any worker count. *)
let dataset_of_omegas ?pool ?cache ?(sweep_points = 41) ?(max_fit_rmse = 0.02) omegas =
  let pool = match pool with Some p -> p | None -> Parallel.get_pool () in
  let cache = match cache with Some c -> c | None -> Cache.disabled () in
  let candidate omega =
    match
      Circuit.Ptanh_circuit.transfer ~points:sweep_points
        (Circuit.Ptanh_circuit.omega_of_array omega)
    with
    | exception Circuit.Mna.No_convergence _ -> None
    | vin, vout ->
        let { Fit.Ptanh.eta; rmse; converged = _ } = Fit.Ptanh.fit ~vin ~vout in
        if rmse <= max_fit_rmse && eta_sane eta then
          Some (omega, Fit.Ptanh.eta_to_array eta, rmse)
        else None
  in
  let chunk_outcomes chunk =
    let key =
      Cache.key ~schema:chunk_schema ~kind:"surchunk"
        [
          string_of_int sweep_points;
          Printf.sprintf "%h" max_fit_rmse;
          Cache.digest_lines (Array.to_list (Array.map Lines.float_line chunk));
        ]
    in
    Cache.memoize cache ~kind:"surchunk" ~key
      ~encode:(fun outcomes ->
        Array.to_list (Array.map outcome_line outcomes))
      ~decode:(chunk_of_lines chunk)
      (fun () -> Parallel.Pool.map_array pool candidate chunk)
  in
  let outcomes =
    if not (Cache.enabled cache) then Parallel.Pool.map_array pool candidate omegas
    else begin
      let total = Array.length omegas in
      let n_chunks = (total + chunk_size - 1) / chunk_size in
      Array.concat
        (List.init n_chunks (fun c ->
             let lo = c * chunk_size in
             chunk_outcomes (Array.sub omegas lo (min chunk_size (total - lo)))))
    end
  in
  let kept_omegas = ref [] and kept_etas = ref [] and kept_rmses = ref [] in
  let rejected = ref 0 in
  Array.iter
    (function
      | None -> incr rejected
      | Some (omega, eta, rmse) ->
          kept_omegas := omega :: !kept_omegas;
          kept_etas := eta :: !kept_etas;
          kept_rmses := rmse :: !kept_rmses)
    outcomes;
  {
    omegas = Array.of_list (List.rev !kept_omegas);
    etas = Array.of_list (List.rev !kept_etas);
    fit_rmses = Array.of_list (List.rev !kept_rmses);
    rejected = !rejected;
  }

(* Candidates are sampled up-front on this domain (the Sobol / LHS streams
   stay sequential), ahead of the cache, so hits leave every RNG stream
   exactly where a cold run would. *)
let generate_dataset ?pool ?cache ?(n = 10_000) ?sweep_points ?max_fit_rmse
    ?(sampler = `Sobol) () =
  let omegas =
    match sampler with
    | `Sobol -> Design_space.sample_sobol ~n
    | `Lhs rng -> Design_space.sample_lhs rng ~n
  in
  dataset_of_omegas ?pool ?cache ?sweep_points ?max_fit_rmse omegas

type split = { train : int array; validation : int array; test : int array }

let split_dataset rng dataset =
  let n = Array.length dataset.omegas in
  if n < 10 then invalid_arg "Pipeline.split_dataset: dataset too small";
  let perm = Rng.perm rng n in
  let n_train = n * 70 / 100 in
  let n_val = n * 20 / 100 in
  {
    train = Array.sub perm 0 n_train;
    validation = Array.sub perm n_train n_val;
    test = Array.sub perm (n_train + n_val) (n - n_train - n_val);
  }

type report = {
  train_mse : float;
  val_mse : float;
  test_mse : float;
  train_r2 : float;
  val_r2 : float;
  test_r2 : float;
  epochs_run : int;
  kept_samples : int;
  rejected_samples : int;
}

let normalized_tensors dataset =
  let extended = Array.map Design_space.extend dataset.omegas in
  let omega_scaler = Scaler.fit extended in
  let eta_scaler = Scaler.fit dataset.etas in
  let x = Tensor.of_arrays (Array.map (Scaler.transform omega_scaler) extended) in
  let y = Tensor.of_arrays (Array.map (Scaler.transform eta_scaler) dataset.etas) in
  (omega_scaler, eta_scaler, x, y)

let train_surrogate ?(arch = Model.paper_arch) ?(max_epochs = 3000) ?(patience = 200)
    ?(lr = 2e-3) rng dataset =
  let omega_scaler, eta_scaler, x_all, y_all = normalized_tensors dataset in
  (match arch with
  | first :: _ when first = Design_space.extended_dim -> ()
  | _ -> invalid_arg "Pipeline.train_surrogate: arch must start with 10");
  let split = split_dataset rng dataset in
  let take idx = (Tensor.take_rows x_all idx, Tensor.take_rows y_all idx) in
  let x_train, y_train = take split.train in
  let x_val, y_val = take split.validation in
  let x_test, y_test = take split.test in
  let mlp = Nn.Mlp.create rng ~sizes:arch ~hidden:Nn.Activation.Tanh ~output:Nn.Activation.Linear in
  let params = Nn.Mlp.params mlp in
  let opt = Nn.Optimizer.adam ~lr () in
  let x_train_node = Autodiff.const x_train in
  let best = ref (Nn.Mlp.snapshot mlp) in
  let history =
    Nn.Train.run
      ~config:{ Nn.Train.default_config with max_epochs; patience }
      ~optimizers:[ (opt, params) ]
      ~train_loss:(fun () -> Autodiff.mse (Nn.Mlp.forward mlp x_train_node) y_train)
      ~val_loss:(fun () -> Nn.Metrics.mse (Nn.Mlp.forward_tensor mlp x_val) y_val)
      ~snapshot:(fun () -> best := Nn.Mlp.snapshot mlp)
      ~restore:(fun () -> Nn.Mlp.restore mlp !best)
      ()
  in
  let model = { Model.mlp; omega_scaler; eta_scaler } in
  let metrics x y =
    let pred = Nn.Mlp.forward_tensor mlp x in
    (Nn.Metrics.mse pred y, Nn.Metrics.r2 ~pred ~target:y)
  in
  let train_mse, train_r2 = metrics x_train y_train in
  let val_mse, val_r2 = metrics x_val y_val in
  let test_mse, test_r2 = metrics x_test y_test in
  ( model,
    {
      train_mse;
      val_mse;
      test_mse;
      train_r2;
      val_r2;
      test_r2;
      epochs_run = Array.length history.Nn.Train.train_losses;
      kept_samples = Array.length dataset.omegas;
      rejected_samples = dataset.rejected;
    } )

let parity_rows model dataset split =
  let _, eta_scaler, x_all, y_all = normalized_tensors dataset in
  ignore eta_scaler;
  let rows tag idx =
    let pred = Nn.Mlp.forward_tensor model.Model.mlp (Tensor.take_rows x_all idx) in
    let truth = Tensor.take_rows y_all idx in
    List.concat
      (List.init (Tensor.rows pred) (fun r ->
           List.init (Tensor.cols pred) (fun c ->
               (tag, Tensor.get truth r c, Tensor.get pred r c))))
  in
  rows "train" split.train @ rows "val" split.validation @ rows "test" split.test

let ensure ?(dir = "_artifacts") ?cache ?(n = 4000) ?(arch = Model.paper_arch)
    ?(max_epochs = 3000) ~seed () =
  let arch_tag = String.concat "-" (List.map string_of_int arch) in
  let path = Printf.sprintf "%s/surrogate_n%d_%s_seed%d.txt" dir n arch_tag seed in
  if Sys.file_exists path then Model.load_file path
  else begin
    (* Unconditional: a run from another directory misses the committed
       artifact and its numbers differ from the repo root's. *)
    let abs = if Filename.is_relative path then Filename.concat (Sys.getcwd ()) path else path in
    Printf.eprintf "surrogate: %s not found; training a new surrogate (n=%d)\n%!" abs n;
    let dataset = generate_dataset ?cache ~n () in
    let rng = Rng.create seed in
    let model, report = train_surrogate ~arch ~max_epochs rng dataset in
    Logs.info (fun m ->
        m "surrogate trained: val MSE %.5f, test MSE %.5f (kept %d, rejected %d)"
          report.val_mse report.test_mse report.kept_samples report.rejected_samples);
    Model.save_file model path;
    model
  end
