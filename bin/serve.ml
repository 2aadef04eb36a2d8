(* The pNN inference server CLI.

   Examples:
     dune exec bin/serve.exe -- run --model net.pnn --socket /tmp/pnn.sock
     dune exec bin/serve.exe -- run --model net.pnn --socket /tmp/pnn.sock \
       --max-batch 64 --linger-us 1000
     dune exec bin/serve.exe -- smoke
*)

open Cmdliner

(* {1 run} *)

let cmd_run model_path sock_path digest max_batch linger_us mc_model
    surrogate_n surrogate_epochs =
  let surrogate =
    Surrogate.Pipeline.ensure ~n:surrogate_n ~max_epochs:surrogate_epochs ~seed:42 ()
  in
  let model =
    try Serving.Serve_model.load ?expect_digest:digest surrogate model_path
    with Failure msg ->
      (* the satellite contract: refuse to start on a corrupt model *)
      Printf.eprintf "serve: refusing to start: %s\n%!" msg;
      exit 1
  in
  let config =
    {
      Serving.Server.max_batch;
      linger = float_of_int linger_us *. 1e-6;
      mc_model;
    }
  in
  let server =
    Serving.Server.create ~config model (Unix.ADDR_UNIX sock_path)
  in
  Printf.printf
    "serve: model %s (digest %s, %d -> %d), batch <= %d, linger %d us\n\
     serve: listening on %s\n\
     %!"
    model_path
    (Serving.Serve_model.digest model)
    (Serving.Serve_model.inputs model)
    (Serving.Serve_model.outputs model)
    max_batch linger_us sock_path;
  Serving.Server.run server;
  let s = Serving.Server.stats server in
  Printf.printf "serve: stopped after %Ld answers (%Ld batches, %Ld mc, %Ld errors)\n%!"
    s.Serving.Protocol.served s.Serving.Protocol.batches s.Serving.Protocol.mc_served
    s.Serving.Protocol.errors

(* {1 smoke}

   End-to-end liveness check used by the @serve alias: build a tiny model,
   save/load it through Serialize (digest-verified), start the server on a
   temp socket, round-trip one predict / one MC / one stats request, shut
   down cleanly, and verify the corrupt-model refusal on the way out. *)

let cmd_smoke () =
  let dataset = Surrogate.Pipeline.generate_dataset ~n:250 () in
  let surrogate, _ =
    Surrogate.Pipeline.train_surrogate ~arch:[ 10; 8; 6; 4 ] ~max_epochs:300
      (Rng.create 42) dataset
  in
  let net =
    Pnn.Network.create (Rng.create 7) Pnn.Config.default surrogate ~inputs:4
      ~outputs:3
  in
  let dir = Filename.temp_file "pnn_smoke" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let model_path = Filename.concat dir "model.pnn" in
  Pnn.Serialize.save_file net model_path;
  let expect_digest = Pnn.Serialize.digest net in
  let model = Serving.Serve_model.load ~expect_digest surrogate model_path in
  let sock = Filename.concat dir "serve.sock" in
  let server = Serving.Server.create model (Unix.ADDR_UNIX sock) in
  let server_domain = Domain.spawn (fun () -> Serving.Server.run server) in
  let client = Serving.Client.connect (Unix.ADDR_UNIX sock) in
  let features = [| 0.1; 0.7; 0.3; 0.9 |] in
  let cls = Serving.Client.predict client ~id:1l features in
  let direct = (Serving.Serve_model.predict_batch model [| features |]).(0) in
  if cls <> direct then failwith "smoke: served class differs from direct predict";
  let mc_cls, mean_p, q05, q95 =
    Serving.Client.predict_mc client ~id:2l ~draws:16 ~seed:5l features
  in
  if mean_p < 0.0 || mean_p > 1.0 || q05 > q95 then
    failwith "smoke: malformed mc summary";
  let stats = Serving.Client.stats client in
  if stats.Serving.Protocol.served <> 1L then failwith "smoke: served counter wrong";
  Serving.Client.shutdown client;
  Serving.Client.close client;
  Domain.join server_domain;
  (* corrupt-model refusal: truncate the save and expect a clean failure *)
  let full = In_channel.with_open_text model_path In_channel.input_all in
  Out_channel.with_open_text model_path (fun oc ->
      Out_channel.output_string oc (String.sub full 0 (String.length full / 2)));
  (match Serving.Serve_model.load surrogate model_path with
  | _ -> failwith "smoke: corrupt model was not refused"
  | exception Failure _ -> ());
  Sys.remove model_path;
  (try Unix.unlink sock with Unix.Unix_error _ -> ());
  (try Unix.rmdir dir with Unix.Unix_error _ -> ());
  Printf.printf "smoke ok: class %d, mc class %d p=%.3f [%.3f, %.3f], clean shutdown\n%!"
    cls mc_cls mean_p q05 q95

(* {1 Command line} *)

let model_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "model" ] ~docv:"PATH" ~doc:"saved network (Serialize v2 format)")

let socket_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH" ~doc:"unix-domain socket path to listen on")

let digest_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "digest" ] ~docv:"HEX"
        ~doc:"expected model digest; refuse to start on mismatch")

let max_batch_arg =
  Arg.(
    value & opt int 64
    & info [ "max-batch" ] ~doc:"coalesce at most this many requests per forward pass")

let linger_arg =
  Arg.(
    value & opt int 1000
    & info [ "linger-us" ]
        ~doc:"microseconds the oldest queued request may wait for company")

let mc_family_arg =
  Arg.(
    value
    & opt
        (enum
           [
             ("uniform", `Uniform); ("gaussian", `Gaussian); ("correlated", `Correlated);
           ])
        `Uniform
    & info [ "mc-model" ]
        ~doc:"variation family for MC requests: uniform | gaussian | correlated")

let mc_param_arg =
  Arg.(
    value & opt float 0.1
    & info [ "mc-param" ] ~doc:"magnitude parameter of the MC variation family")

(* --mc-param's valid range depends on the family, so the pair is checked
   together, by the severity flags' rule *)
let mc_model_arg =
  let model family p =
    let m =
      match family with
      | `Uniform -> Pnn.Variation.Uniform p
      | `Gaussian -> Pnn.Variation.Gaussian p
      | `Correlated -> Pnn.Variation.Correlated { global = p; local = p }
    in
    match Severity.check [ m ] with
    | Ok () -> `Ok m
    | Error msg -> `Error (true, "option '--mc-param': " ^ msg)
  in
  Term.(ret (const model $ mc_family_arg $ mc_param_arg))

let surrogate_n_arg =
  Arg.(
    value & opt int 2000
    & info [ "surrogate-n" ] ~doc:"surrogate dataset size (must match training)")

let surrogate_epochs_arg =
  Arg.(
    value & opt int 1500
    & info [ "surrogate-epochs" ]
        ~doc:"surrogate training epochs (must match training)")

let run_cmd =
  Cmd.v
    (Cmd.info "run" ~doc:"serve a trained pNN over a unix socket")
    Term.(
      const cmd_run $ model_arg $ socket_arg $ digest_arg
      $ max_batch_arg $ linger_arg $ mc_model_arg
      $ surrogate_n_arg $ surrogate_epochs_arg)

let smoke_cmd =
  Cmd.v
    (Cmd.info "smoke"
       ~doc:"start a throwaway server, round-trip one request, shut down")
    Term.(const cmd_smoke $ const ())

let main =
  Cmd.group
    (Cmd.info "serve" ~doc:"batched concurrent pNN inference service")
    [ run_cmd; smoke_cmd ]

let () = exit (Cmd.eval main)
