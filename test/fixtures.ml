(* Shared test fixtures. *)

(* A surrogate with the paper's architecture, random weights and scalers
   fitted to random design points: cheap to build, and its η̂ varies with ω
   the way a trained one does, which is all the graph-level tests need. *)
let surrogate () =
  let rng = Rng.create 5 in
  let module Ds = Surrogate.Design_space in
  let omegas =
    Array.init 24 (fun _ ->
        Ds.extend
          (Array.init Ds.dim (fun i -> Rng.uniform rng ~lo:Ds.omega_lo.(i) ~hi:Ds.omega_hi.(i))))
  in
  let etas =
    Array.init 24 (fun _ ->
        [|
          Rng.uniform rng ~lo:(-0.2) ~hi:0.5; Rng.uniform rng ~lo:0.1 ~hi:1.0;
          Rng.uniform rng ~lo:(-1.0) ~hi:1.0; Rng.uniform rng ~lo:1.0 ~hi:10.0;
        |])
  in
  {
    Surrogate.Model.mlp =
      Nn.Mlp.create rng ~sizes:Surrogate.Model.paper_arch ~hidden:Nn.Activation.Tanh
        ~output:Nn.Activation.Linear;
    omega_scaler = Surrogate.Scaler.fit omegas;
    eta_scaler = Surrogate.Scaler.fit etas;
  }

(* Remove a file or a directory tree (test temp stores). *)
let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path
