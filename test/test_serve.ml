(* Serving-stack tests: the wire codec (round-trips, malformed/truncated/
   oversized frames), the clock-free batcher policy, the read-only
   serve-time model view, and live socket servers under concurrent
   clients.

   The concurrency suite's contract is the PR 7 acceptance criterion:
   every response that crosses the wire — classes and Monte-Carlo
   quantiles alike — is bit-identical to the single-threaded in-process
   answer, for any pool size.  The dune rules re-run this executable under
   REPRO_JOBS 1, 2, 3 and 4. *)

module P = Serving.Protocol
module B = Serving.Batcher
module SM = Serving.Serve_model

let surrogate =
  lazy
    (let dataset = Surrogate.Pipeline.generate_dataset ~n:250 () in
     let model, _ =
       Surrogate.Pipeline.train_surrogate ~arch:[ 10; 8; 6; 4 ] ~max_epochs:300
         (Rng.create 42) dataset
     in
     model)

let make_net ?(seed = 7) ~inputs ~outputs () =
  Pnn.Network.create (Rng.create seed) Pnn.Config.default (Lazy.force surrogate)
    ~inputs ~outputs

let bits = Int64.bits_of_float

let float_bits =
  Alcotest.testable (fun fmt f -> Fmt.pf fmt "%h" f) (fun a b -> bits a = bits b)

(* substring check for error-message assertions *)
let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let nominal_noise net =
  Pnn.Noise.none ~theta_shapes:(Pnn.Network.theta_shapes net)

let predict_alone net x =
  (Pnn.Network.predict net ~noise:(nominal_noise net) (Tensor.of_array x)).(0)

let features_of ~inputs seed =
  let rng = Rng.create seed in
  Array.init inputs (fun _ -> Rng.float rng)

(* {1 Protocol codec} *)

let check_request_roundtrip msg req =
  let frame = P.encode_request req in
  (* strip the 4-byte length prefix to get the payload *)
  let payload = Bytes.sub frame 4 (Bytes.length frame - 4) in
  match P.decode_request payload with
  | Error e -> Alcotest.failf "%s: decode failed: %s" msg e
  | Ok req' -> (
      match (req, req') with
      | P.Predict { id; features }, P.Predict { id = id'; features = f' } ->
          Alcotest.(check int32) (msg ^ " id") id id';
          Alcotest.(check (array float_bits)) (msg ^ " features") features f'
      | ( P.Predict_mc { id; features; draws; seed },
          P.Predict_mc { id = id'; features = f'; draws = d'; seed = s' } ) ->
          Alcotest.(check int32) (msg ^ " id") id id';
          Alcotest.(check int) (msg ^ " draws") draws d';
          Alcotest.(check int32) (msg ^ " seed") seed s';
          Alcotest.(check (array float_bits)) (msg ^ " features") features f'
      | P.Stats { id }, P.Stats { id = id' } | P.Shutdown { id }, P.Shutdown { id = id' }
        ->
          Alcotest.(check int32) (msg ^ " id") id id'
      | _ -> Alcotest.failf "%s: variant changed across the wire" msg)

let test_request_roundtrips () =
  check_request_roundtrip "predict"
    (P.Predict { id = 42l; features = [| 0.0; -0.0; 1.5e-300; 3.25 |] });
  check_request_roundtrip "predict non-finite"
    (P.Predict
       { id = 1l; features = [| Float.nan; Float.infinity; Float.neg_infinity |] });
  check_request_roundtrip "predict zero features"
    (P.Predict { id = 7l; features = [||] });
  check_request_roundtrip "predict_mc"
    (P.Predict_mc { id = 3l; features = [| 0.25; 0.5 |]; draws = 64; seed = 99l });
  check_request_roundtrip "stats" (P.Stats { id = 5l });
  check_request_roundtrip "shutdown" (P.Shutdown { id = 0l })

let check_response_roundtrip msg resp =
  let frame = P.encode_response resp in
  let payload = Bytes.sub frame 4 (Bytes.length frame - 4) in
  match P.decode_response payload with
  | Error e -> Alcotest.failf "%s: decode failed: %s" msg e
  | Ok resp' -> (
      match (resp, resp') with
      | P.Class { id; cls }, P.Class { id = id'; cls = cls' } ->
          Alcotest.(check int32) (msg ^ " id") id id';
          Alcotest.(check int) (msg ^ " cls") cls cls'
      | ( P.Mc_class { id; cls; mean_p; q05; q95 },
          P.Mc_class { id = id'; cls = c'; mean_p = m'; q05 = l'; q95 = h' } ) ->
          Alcotest.(check int32) (msg ^ " id") id id';
          Alcotest.(check int) (msg ^ " cls") cls c';
          Alcotest.(check float_bits) (msg ^ " mean_p") mean_p m';
          Alcotest.(check float_bits) (msg ^ " q05") q05 l';
          Alcotest.(check float_bits) (msg ^ " q95") q95 h'
      | P.Stats_reply { id; stats }, P.Stats_reply { id = id'; stats = s' } ->
          Alcotest.(check int32) (msg ^ " id") id id';
          Alcotest.(check int64) (msg ^ " served") stats.P.served s'.P.served;
          Alcotest.(check (array int64))
            (msg ^ " occupancy") stats.P.occupancy s'.P.occupancy
      | P.Shutdown_ack { id }, P.Shutdown_ack { id = id' } ->
          Alcotest.(check int32) (msg ^ " id") id id'
      | P.Error { id; message }, P.Error { id = id'; message = m' } ->
          Alcotest.(check int32) (msg ^ " id") id id';
          Alcotest.(check string) (msg ^ " message") message m'
      | _ -> Alcotest.failf "%s: variant changed across the wire" msg)

let test_response_roundtrips () =
  check_response_roundtrip "class" (P.Class { id = 9l; cls = 2 });
  check_response_roundtrip "mc"
    (P.Mc_class { id = 1l; cls = 0; mean_p = 0.375; q05 = 0.25; q95 = 0.5 });
  check_response_roundtrip "stats"
    (P.Stats_reply
       {
         id = 2l;
         stats =
           {
             P.served = 100L;
             mc_served = 3L;
             batches = 11L;
             errors = 1L;
             occupancy = [| 5L; 0L; 2L |];
           };
       });
  check_response_roundtrip "ack" (P.Shutdown_ack { id = 4l });
  check_response_roundtrip "error" (P.Error { id = 0l; message = "boom" })

let expect_decode_error msg payload =
  match P.decode_request payload with
  | Error _ -> ()
  | Ok _ -> Alcotest.failf "%s: malformed payload decoded" msg

let test_malformed_payloads () =
  expect_decode_error "empty" Bytes.empty;
  (* wrong protocol version *)
  let frame = P.encode_request (P.Stats { id = 1l }) in
  let payload = Bytes.sub frame 4 (Bytes.length frame - 4) in
  let bad_ver = Bytes.copy payload in
  Bytes.set_uint8 bad_ver 0 (P.version + 1);
  expect_decode_error "bad version" bad_ver;
  (* unknown request kind *)
  let bad_kind = Bytes.copy payload in
  Bytes.set_uint8 bad_kind 1 200;
  expect_decode_error "unknown kind" bad_kind;
  (* header promises 4 features but carries 2 *)
  let b = Buffer.create 64 in
  Buffer.add_uint8 b P.version;
  Buffer.add_uint8 b 1 (* predict *);
  Buffer.add_int32_be b 1l;
  Buffer.add_uint16_be b 4;
  Buffer.add_int64_be b 0L;
  Buffer.add_int64_be b 0L;
  expect_decode_error "truncated features" (Buffer.to_bytes b);
  (* feature count above the protocol bound *)
  let b = Buffer.create 64 in
  Buffer.add_uint8 b P.version;
  Buffer.add_uint8 b 1;
  Buffer.add_int32_be b 1l;
  Buffer.add_uint16_be b (P.max_features + 1);
  expect_decode_error "oversized feature count" (Buffer.to_bytes b)

(* Every truncation of a valid Predict / Predict_mc payload is refused
   with the message naming the field the cut falls in, the first field
   that cannot be read whole.  Layout: version (1 byte), kind (1), id (4),
   feature count (2), then for Predict_mc draw count (2) and seed (4), then
   8 bytes per feature. *)
let test_truncations_name_the_field () =
  let features = [| 0.5; -0.0; Float.nan; 3.0e300; -7.25 |] in
  let payload req =
    let frame = P.encode_request req in
    Bytes.sub frame 4 (Bytes.length frame - 4)
  in
  let check name req fields =
    let full = payload req in
    let fields = fields @ [ ("feature", 8 * Array.length features) ] in
    let field_at len =
      let rec go start = function
        | (what, size) :: rest -> if len < start + size then what else go (start + size) rest
        | [] -> Alcotest.failf "%s: no field at %d" name len
      in
      go 0 fields
    in
    for len = 0 to Bytes.length full - 1 do
      let expected = "truncated payload reading " ^ field_at len in
      match P.decode_request (Bytes.sub full 0 len) with
      | Ok _ -> Alcotest.failf "%s cut to %d bytes decoded" name len
      | Error e -> Alcotest.(check string) (Printf.sprintf "%s cut to %d bytes" name len) expected e
    done;
    match P.decode_request full with
    | Ok _ -> ()
    | Error e -> Alcotest.failf "%s: the whole payload failed: %s" name e
  in
  let head = [ ("version", 1); ("kind", 1); ("request id", 4); ("feature count", 2) ] in
  check "predict" (P.Predict { id = 3l; features }) head;
  check "predict_mc"
    (P.Predict_mc { id = 4l; features; draws = 16; seed = 9l })
    (head @ [ ("draw count", 2); ("mc seed", 4) ])

(* A request that declares the largest feature count and carries none is
   refused before the feature array exists: the refusal costs a cursor and
   an error, a few dozen words, where the declared array would take
   max_features + 1. *)
let test_declared_count_checked_before_allocation () =
  let b = Buffer.create 16 in
  Buffer.add_uint8 b P.version;
  Buffer.add_uint8 b 1 (* predict *);
  Buffer.add_int32_be b 1l;
  Buffer.add_uint16_be b P.max_features;
  Buffer.add_int64_be b 0L;
  let payload = Buffer.to_bytes b in
  (* as test_lines measures: [Gc.minor_words] is exact on the allocating
     domain (Gc.allocated_bytes only catches up with the minor heap at a
     collection), and the counters' major words take the direct major
     allocation a large array makes *)
  let words () =
    let _, _, major = Gc.counters () in
    Gc.minor_words () +. major
  in
  let before = words () in
  let result = P.decode_request payload in
  let words = words () -. before in
  Alcotest.(check (result reject string))
    "refused" (Error "truncated payload reading feature")
    (Result.map (fun _ -> ()) result);
  if words > 256.0 then
    Alcotest.failf "decoding the refused request allocated %.0f words (bound 256)" words

let test_reader_incremental () =
  (* two frames delivered one byte at a time must come out intact *)
  let f1 = P.encode_request (P.Predict { id = 1l; features = [| 0.5; 0.25 |] }) in
  let f2 = P.encode_request (P.Shutdown { id = 2l }) in
  let stream = Bytes.cat f1 f2 in
  let rd = P.reader () in
  let got = ref [] in
  Bytes.iteri
    (fun i _ ->
      P.feed rd stream ~pos:i ~len:1;
      match P.next_frame rd with
      | Ok (Some payload) -> got := payload :: !got
      | Ok None -> ()
      | Error e -> Alcotest.failf "framing error mid-stream: %s" e)
    stream;
  match List.rev !got with
  | [ p1; p2 ] ->
      (match P.decode_request p1 with
      | Ok (P.Predict { id = 1l; _ }) -> ()
      | _ -> Alcotest.fail "first frame mangled");
      (match P.decode_request p2 with
      | Ok (P.Shutdown { id = 2l }) -> ()
      | _ -> Alcotest.fail "second frame mangled")
  | frames -> Alcotest.failf "expected 2 frames, got %d" (List.length frames)

let test_reader_oversized_frame () =
  let rd = P.reader () in
  let hdr = Bytes.create 4 in
  Bytes.set_int32_be hdr 0 (Int32.of_int (P.max_frame + 1));
  P.feed rd hdr ~pos:0 ~len:4;
  (match P.next_frame rd with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "oversized declared length accepted");
  (* a negative declared length is equally unrecoverable *)
  let rd = P.reader () in
  let hdr = Bytes.create 4 in
  Bytes.set_int32_be hdr 0 (-1l);
  P.feed rd hdr ~pos:0 ~len:4;
  match P.next_frame rd with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "negative declared length accepted"

let test_reader_partial_is_not_an_error () =
  let rd = P.reader () in
  let frame = P.encode_request (P.Stats { id = 3l }) in
  P.feed rd frame ~pos:0 ~len:(Bytes.length frame - 1);
  (match P.next_frame rd with
  | Ok None -> ()
  | Ok (Some _) -> Alcotest.fail "incomplete frame yielded"
  | Error e -> Alcotest.failf "incomplete frame errored: %s" e);
  P.feed rd frame ~pos:(Bytes.length frame - 1) ~len:1;
  match P.next_frame rd with
  | Ok (Some _) -> ()
  | _ -> Alcotest.fail "completed frame not yielded"

(* {1 Batcher policy} *)

let test_batcher_fills_at_max_batch () =
  let b = B.create ~max_batch:4 ~linger:10.0 in
  for i = 0 to 9 do
    B.push b ~now:0.0 i
  done;
  Alcotest.(check (list int)) "first full batch" [ 0; 1; 2; 3 ] (B.pop_ready b ~now:0.0);
  Alcotest.(check (list int)) "second full batch" [ 4; 5; 6; 7 ] (B.pop_ready b ~now:0.0);
  Alcotest.(check (list int)) "remainder not ready (linger)" [] (B.pop_ready b ~now:0.0);
  Alcotest.(check int) "remainder pending" 2 (B.pending b)

let test_batcher_linger_deadline () =
  let b = B.create ~max_batch:64 ~linger:0.5 in
  B.push b ~now:100.0 "a";
  B.push b ~now:100.2 "b";
  Alcotest.(check (option float_bits))
    "deadline = admission + linger" (Some 100.5) (B.next_deadline b);
  Alcotest.(check (list string)) "before the deadline" [] (B.pop_ready b ~now:100.49);
  Alcotest.(check (list string))
    "deadline releases everything pending" [ "a"; "b" ] (B.pop_ready b ~now:100.5);
  Alcotest.(check (option float_bits)) "empty again" None (B.next_deadline b)

let test_batcher_drain_chunks () =
  let b = B.create ~max_batch:3 ~linger:1.0 in
  for i = 0 to 7 do
    B.push b ~now:0.0 i
  done;
  Alcotest.(check (list (list int)))
    "drain chunks at max_batch in admission order"
    [ [ 0; 1; 2 ]; [ 3; 4; 5 ]; [ 6; 7 ] ]
    (B.drain b);
  Alcotest.(check int) "drained" 0 (B.pending b)

let test_batcher_validation () =
  let expect_invalid msg f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s accepted" msg
  in
  expect_invalid "max_batch 0" (fun () -> B.create ~max_batch:0 ~linger:0.1);
  expect_invalid "negative linger" (fun () -> B.create ~max_batch:4 ~linger:(-1.0));
  expect_invalid "nan linger" (fun () -> B.create ~max_batch:4 ~linger:Float.nan)

(* {1 Serve_model: the read-only serve-time view} *)

let test_padded_rows () =
  List.iter
    (fun (k, want) ->
      Alcotest.(check int) (Printf.sprintf "padded_rows %d" k) want (SM.padded_rows k))
    [ (1, 1); (2, 2); (3, 4); (5, 8); (8, 8); (9, 16); (64, 64); (65, 128) ]

let test_predict_batch_matches_predict () =
  let net = make_net ~inputs:4 ~outputs:3 () in
  let model = SM.of_network net in
  List.iter
    (fun k ->
      let rows = Array.init k (fun i -> features_of ~inputs:4 (1000 + i)) in
      let batched = SM.predict_batch model rows in
      Array.iteri
        (fun i row ->
          Alcotest.(check int)
            (Printf.sprintf "row %d of %d-batch" i k)
            (predict_alone net row) batched.(i))
        rows)
    [ 1; 3; 8; 13 ]

let test_predict_mc_pool_size_invariant () =
  let net = make_net ~inputs:4 ~outputs:3 () in
  let model = SM.of_network net in
  let x = features_of ~inputs:4 4242 in
  let p1 = Parallel.Pool.create ~jobs:1 () in
  let p3 = Parallel.Pool.create ~jobs:3 () in
  let mc pool =
    SM.predict_mc model ~pool ~model:(Pnn.Variation.Uniform 0.1) ~draws:24 ~seed:11 x
  in
  let a = mc p1 and b = mc p3 in
  Parallel.Pool.shutdown p1;
  Parallel.Pool.shutdown p3;
  Alcotest.(check int) "cls" a.SM.cls b.SM.cls;
  Alcotest.(check float_bits) "mean_p" a.SM.mean_p b.SM.mean_p;
  Alcotest.(check float_bits) "q05" a.SM.q05 b.SM.q05;
  Alcotest.(check float_bits) "q95" a.SM.q95 b.SM.q95

(* {2 Predictors on a wide network}

   The hidden-3 networks above never fill an 8-wide tile of the reference
   matmul; the 64-48-16 serving network (64-row batches, crossbar shapes
   64x65x48 and 64x49x16) runs through full tiles and remainders alike. *)

let make_wide_net seed =
  Pnn.Network.create_deep (Rng.create seed) Pnn.Config.default (Lazy.force surrogate)
    ~sizes:[ 64; 48; 16 ]

let wide_net = lazy (make_wide_net 7)

let batch_of ~inputs rows seed =
  let rng = Rng.create seed in
  Tensor.init rows inputs (fun _ _ -> Rng.float rng)

let check_tensor_bits msg want got =
  Alcotest.(check (array float_bits)) msg (Tensor.to_array want) (Tensor.to_array got)

let fresh_logits net ~noise x = Autodiff.value (Pnn.Network.logits net ~noise x)

let test_wide_batch_matches_predict () =
  let net = Lazy.force wide_net in
  let model = SM.of_network net in
  List.iter
    (fun k ->
      let rows = Array.init k (fun i -> features_of ~inputs:64 (2000 + i)) in
      let batched = SM.predict_batch model rows in
      Array.iteri
        (fun i row ->
          Alcotest.(check int)
            (Printf.sprintf "row %d of %d-batch" i k)
            (predict_alone net row) batched.(i))
        rows)
    [ 1; 3; 64 ]

(* A reused predictor must see every change to its master: in-place
   weight restores and optimizer steps both go through the parameter-only
   part of the graph, which a call re-runs only when a leaf bit changed. *)
let test_predictor_follows_master () =
  let net = make_wide_net 8 in
  let x = batch_of ~inputs:64 64 31 in
  let noise = nominal_noise net in
  let p = Pnn.Network.compile_predictor net ~rows:64 ~cols:64 in
  let agree msg =
    check_tensor_bits msg (fresh_logits net ~noise x) (Pnn.Network.predictor_logits p x)
  in
  agree "as compiled";
  agree "repeated call";
  let saved = Pnn.Network.snapshot net in
  Pnn.Network.restore net
    (List.map (fun (th, a, n) -> (Tensor.scale 1.25 th, Tensor.scale 0.9 a, n)) saved);
  agree "after restore";
  let labels = Tensor.init 64 16 (fun r c -> if r mod 16 = c then 1.0 else 0.0) in
  let params = Pnn.Network.params_theta net @ Pnn.Network.params_omega net in
  let opt = Nn.Optimizer.adam ~lr:0.01 () in
  Autodiff.backward (Pnn.Network.loss net ~noise ~x ~labels);
  Nn.Optimizer.step opt params;
  agree "after an optimizer step";
  Pnn.Network.restore net saved;
  agree "after restoring the original weights"

let test_predictor_noisy_nominal_alternate () =
  let net = Lazy.force wide_net in
  let x = batch_of ~inputs:64 64 32 in
  let p = Pnn.Network.predictor_cached net ~rows:64 ~cols:64 in
  let rng = Rng.create 5 in
  let theta_shapes = Pnn.Network.theta_shapes net in
  for i = 0 to 7 do
    let noise =
      if i mod 2 = 0 then None
      else Some (Pnn.Noise.draw rng ~epsilon:0.1 ~theta_shapes)
    in
    let want =
      fresh_logits net ~noise:(Option.value noise ~default:(nominal_noise net)) x
    in
    check_tensor_bits (Printf.sprintf "call %d" i) want
      (Pnn.Network.predictor_logits p ?noise x)
  done

(* A draw of the wrong shape is refused with a message naming what is
   wrong, before any leaf is written.  Each refused draw starts with a valid
   layer 0 taken from [other]; the call after it uses that same layer 0.  Had
   the refused call written layer 0, the next call would see no change there
   and keep stale parameter-only results. *)
let test_predictor_rejects_bad_noise () =
  let net = make_net ~inputs:4 ~outputs:3 () in
  let theta_shapes = Pnn.Network.theta_shapes net in
  let x = batch_of ~inputs:4 2 33 in
  let p = Pnn.Network.compile_predictor net ~rows:2 ~cols:4 in
  let good = Pnn.Noise.draw (Rng.create 6) ~epsilon:0.1 ~theta_shapes in
  let other = Pnn.Noise.draw (Rng.create 9) ~epsilon:0.1 ~theta_shapes in
  let mixed = [ List.hd other; List.nth good 1 ] in
  let logits ?noise () = Pnn.Network.predictor_logits p ?noise x in
  let l1 = List.nth other 1 in
  let with_layer1 l = [ List.hd other; l ] in
  let bad =
    [
      ([ List.hd other ], "Network.predictor_logits: noise/layer count mismatch");
      (other @ other, "Network.predictor_logits: noise/layer count mismatch");
      ( with_layer1 { l1 with Pnn.Noise.theta = Tensor.ones 2 2 },
        "Network.predictor_logits: layer 1 theta noise shape mismatch" );
      ( with_layer1 { l1 with Pnn.Noise.act_omega = Tensor.ones 1 6 },
        "Network.predictor_logits: layer 1 omega noise shape mismatch" );
      ( with_layer1 { l1 with Pnn.Noise.neg_omega = Tensor.ones 7 1 },
        "Network.predictor_logits: layer 1 omega noise shape mismatch" );
    ]
  in
  let refused msg noise =
    Alcotest.check_raises msg (Invalid_argument msg) (fun () ->
        ignore (Pnn.Network.predictor_logits p ~noise x))
  in
  List.iter
    (fun (noise, msg) ->
      check_tensor_bits (msg ^ ": noisy call") (fresh_logits net ~noise:good x)
        (logits ~noise:good ());
      refused msg noise;
      check_tensor_bits (msg ^ ": next call") (fresh_logits net ~noise:mixed x)
        (logits ~noise:mixed ());
      refused msg noise;
      check_tensor_bits (msg ^ ": next nominal call")
        (fresh_logits net ~noise:(nominal_noise net) x)
        (logits ()))
    bad

let with_temp_dir f =
  let dir = Filename.temp_file "pnn_serve_test" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun e -> Sys.remove (Filename.concat dir e)) (Sys.readdir dir);
      try Unix.rmdir dir with Unix.Unix_error _ -> ())
    (fun () -> f dir)

let test_load_verifies_digest () =
  with_temp_dir (fun dir ->
      let net = make_net ~inputs:4 ~outputs:3 () in
      let path = Filename.concat dir "model.pnn" in
      Pnn.Serialize.save_file net path;
      let good = Pnn.Serialize.digest net in
      let model = SM.load ~expect_digest:good (Lazy.force surrogate) path in
      Alcotest.(check string) "digest preserved" good (SM.digest model);
      (match SM.load ~expect_digest:"deadbeef" (Lazy.force surrogate) path with
      | _ -> Alcotest.fail "digest mismatch accepted"
      | exception Failure _ -> ());
      (* a truncated file must refuse cleanly, not load garbage *)
      let full = In_channel.with_open_text path In_channel.input_all in
      Out_channel.with_open_text path (fun oc ->
          Out_channel.output_string oc
            (String.sub full 0 (String.length full * 2 / 3)));
      match SM.load (Lazy.force surrogate) path with
      | _ -> Alcotest.fail "truncated model loaded"
      | exception Failure msg ->
          Alcotest.(check bool)
            "refusal names the file" true
            (contains msg "model.pnn"))

(* {1 Live servers over a socket} *)

type live = {
  server : Serving.Server.t;
  domain : unit Domain.t;
  sock : string;
  model : SM.t;
  net : Pnn.Network.t;
}

let start_server ?(max_batch = 8) ?(linger = 0.0005) dir =
  let net = make_net ~inputs:4 ~outputs:3 () in
  let model = SM.of_network net in
  let sock = Filename.concat dir "serve.sock" in
  let config =
    { Serving.Server.default_config with max_batch; linger }
  in
  let server = Serving.Server.create ~config model (Unix.ADDR_UNIX sock) in
  let domain = Domain.spawn (fun () -> Serving.Server.run server) in
  { server; domain; sock; model; net }

let stop_server live =
  Serving.Server.stop live.server;
  Domain.join live.domain

let test_wire_matches_inprocess () =
  with_temp_dir (fun dir ->
      let live = start_server dir in
      Fun.protect ~finally:(fun () -> stop_server live) @@ fun () ->
      let client = Serving.Client.connect (Unix.ADDR_UNIX live.sock) in
      Fun.protect ~finally:(fun () -> Serving.Client.close client) @@ fun () ->
      for i = 0 to 19 do
        let x = features_of ~inputs:4 (500 + i) in
        let wire = Serving.Client.predict client ~id:(Int32.of_int i) x in
        let direct = (SM.predict_batch live.model [| x |]).(0) in
        Alcotest.(check int) (Printf.sprintf "request %d" i) direct wire
      done;
      (* Monte-Carlo answers must also be bit-identical to the in-process
         path, quantiles included *)
      let x = features_of ~inputs:4 900 in
      let cls, mean_p, q05, q95 =
        Serving.Client.predict_mc client ~id:77l ~draws:16 ~seed:13l x
      in
      let direct =
        SM.predict_mc live.model
          ~pool:(Parallel.get_pool ())
          ~model:Serving.Server.default_config.Serving.Server.mc_model ~draws:16
          ~seed:13 x
      in
      Alcotest.(check int) "mc cls" direct.SM.cls cls;
      Alcotest.(check float_bits) "mc mean_p" direct.SM.mean_p mean_p;
      Alcotest.(check float_bits) "mc q05" direct.SM.q05 q05;
      Alcotest.(check float_bits) "mc q95" direct.SM.q95 q95)

let test_wire_rejects_bad_requests () =
  with_temp_dir (fun dir ->
      let live = start_server dir in
      Fun.protect ~finally:(fun () -> stop_server live) @@ fun () ->
      let client = Serving.Client.connect (Unix.ADDR_UNIX live.sock) in
      Fun.protect ~finally:(fun () -> Serving.Client.close client) @@ fun () ->
      (* wrong feature width: answered, connection stays up *)
      (match Serving.Client.rpc client (P.Predict { id = 1l; features = [| 0.5 |] }) with
      | P.Error { id = 1l; message } ->
          Alcotest.(check bool)
            "message names the widths" true
            (contains message "expected 4 features")
      | _ -> Alcotest.fail "width mismatch not rejected");
      (* zero features is a protocol-legal request the model must refuse *)
      (match Serving.Client.rpc client (P.Predict { id = 2l; features = [||] }) with
      | P.Error { id = 2l; _ } -> ()
      | _ -> Alcotest.fail "zero-feature request not rejected");
      (* malformed payload inside an intact frame: answered with id 0, and
         the connection keeps working afterwards *)
      let bad = Buffer.create 8 in
      Buffer.add_uint8 bad P.version;
      Buffer.add_uint8 bad 250;
      Serving.Client.send_raw client
        (let payload = Buffer.to_bytes bad in
         let framed = Bytes.create (4 + Bytes.length payload) in
         Bytes.set_int32_be framed 0 (Int32.of_int (Bytes.length payload));
         Bytes.blit payload 0 framed 4 (Bytes.length payload);
         framed);
      (match Serving.Client.recv client with
      | P.Error { id = 0l; _ } -> ()
      | _ -> Alcotest.fail "malformed payload not answered with id 0");
      let x = features_of ~inputs:4 31 in
      let wire = Serving.Client.predict client ~id:3l x in
      let direct = (SM.predict_batch live.model [| x |]).(0) in
      Alcotest.(check int) "connection survives a bad payload" direct wire;
      (* oversized declared frame length: answered, then the server hangs up
         because the stream cannot resync *)
      let huge = Bytes.create 4 in
      Bytes.set_int32_be huge 0 (Int32.of_int (P.max_frame + 1));
      Serving.Client.send_raw client huge;
      (match Serving.Client.recv client with
      | P.Error { id = 0l; _ } -> ()
      | _ -> Alcotest.fail "oversized frame not answered");
      match Serving.Client.recv client with
      | exception Failure _ -> () (* EOF: connection dropped, as documented *)
      | _ -> Alcotest.fail "server kept an unsyncable connection open")

let test_concurrent_clients_bit_identical () =
  with_temp_dir (fun dir ->
      let live = start_server ~max_batch:8 dir in
      Fun.protect ~finally:(fun () -> stop_server live) @@ fun () ->
      let n_clients = 4 and per_client = 24 in
      (* every client pipelines its requests, so the server sees interleaved
         traffic from all of them and coalesces across connections *)
      let worker c =
        let client = Serving.Client.connect (Unix.ADDR_UNIX live.sock) in
        Fun.protect ~finally:(fun () -> Serving.Client.close client) @@ fun () ->
        for i = 0 to per_client - 1 do
          Serving.Client.send client
            (P.Predict
               { id = Int32.of_int i; features = features_of ~inputs:4 ((c * 100) + i) })
        done;
        let answers = Array.make per_client (-1) in
        for _ = 1 to per_client do
          match Serving.Client.recv client with
          | P.Class { id; cls } -> answers.(Int32.to_int id) <- cls
          | r -> Alcotest.failf "client %d: unexpected response %ld" c (P.response_id r)
        done;
        answers
      in
      let domains = Array.init n_clients (fun c -> Domain.spawn (fun () -> worker c)) in
      let got = Array.map Domain.join domains in
      (* the single-threaded reference answers, one request at a time *)
      Array.iteri
        (fun c answers ->
          Array.iteri
            (fun i cls ->
              let x = features_of ~inputs:4 ((c * 100) + i) in
              let direct = predict_alone live.net x in
              Alcotest.(check int)
                (Printf.sprintf "client %d request %d" c i)
                direct cls)
            answers)
        got;
      let probe = Serving.Client.connect (Unix.ADDR_UNIX live.sock) in
      Fun.protect ~finally:(fun () -> Serving.Client.close probe) @@ fun () ->
      let stats = Serving.Client.stats probe in
      Alcotest.(check int64)
        "every request was served exactly once"
        (Int64.of_int (n_clients * per_client))
        stats.P.served;
      Alcotest.(check int64) "no errors" 0L stats.P.errors)

(* Regression for the counter representation: served/mc_served/batches/
   errors/occupancy are Atomics written by the loop domain, and
   [Server.stats] reads them from any other domain.  Sequential RPCs make
   every count exact: each predict flushes a batch of one. *)
let test_stats_counters_atomic () =
  with_temp_dir (fun dir ->
      let live = start_server ~max_batch:4 dir in
      Fun.protect ~finally:(fun () -> stop_server live) @@ fun () ->
      let client = Serving.Client.connect (Unix.ADDR_UNIX live.sock) in
      Fun.protect ~finally:(fun () -> Serving.Client.close client) @@ fun () ->
      let n = 7 in
      for i = 0 to n - 1 do
        ignore
          (Serving.Client.predict client ~id:(Int32.of_int i)
             (features_of ~inputs:4 i))
      done;
      for i = 0 to 1 do
        ignore
          (Serving.Client.predict_mc client ~id:(Int32.of_int (100 + i))
             ~draws:8 ~seed:5l
             (features_of ~inputs:4 (50 + i)))
      done;
      (match Serving.Client.rpc client (P.Predict { id = 99l; features = [| 1.0 |] }) with
      | P.Error _ -> ()
      | _ -> Alcotest.fail "bad width must error");
      (* cross-domain read: the loop domain wrote these, we read them here *)
      let s = Serving.Server.stats live.server in
      Alcotest.(check int64) "served" (Int64.of_int n) s.P.served;
      Alcotest.(check int64) "mc_served" 2L s.P.mc_served;
      Alcotest.(check int64) "batches" (Int64.of_int n) s.P.batches;
      Alcotest.(check int64) "errors" 1L s.P.errors;
      Alcotest.(check int64) "occupancy(1)" (Int64.of_int n) s.P.occupancy.(0);
      Array.iteri
        (fun i c -> if i > 0 then Alcotest.(check int64) "occupancy rest" 0L c)
        s.P.occupancy;
      (* and the wire view agrees with the direct view *)
      let wire = Serving.Client.stats client in
      Alcotest.(check int64) "wire served" s.P.served wire.P.served;
      Alcotest.(check int64) "wire batches" s.P.batches wire.P.batches)

let test_shutdown_request_stops_server () =
  with_temp_dir (fun dir ->
      let live = start_server dir in
      let client = Serving.Client.connect (Unix.ADDR_UNIX live.sock) in
      let x = features_of ~inputs:4 1 in
      let (_ : int) = Serving.Client.predict client ~id:1l x in
      Serving.Client.shutdown client;
      Serving.Client.close client;
      (* run returns on its own — no Server.stop needed *)
      Domain.join live.domain;
      Alcotest.(check int64)
        "served one request before stopping" 1L
        (Serving.Server.stats live.server).P.served)

let () =
  Alcotest.run "serve"
    [
      ( "protocol",
        [
          Alcotest.test_case "request round-trips" `Quick test_request_roundtrips;
          Alcotest.test_case "response round-trips" `Quick test_response_roundtrips;
          Alcotest.test_case "malformed payloads" `Quick test_malformed_payloads;
          Alcotest.test_case "truncations name the field" `Quick
            test_truncations_name_the_field;
          Alcotest.test_case "declared count checked before allocation" `Quick
            test_declared_count_checked_before_allocation;
          Alcotest.test_case "incremental reader" `Quick test_reader_incremental;
          Alcotest.test_case "oversized frame" `Quick test_reader_oversized_frame;
          Alcotest.test_case "partial frame" `Quick test_reader_partial_is_not_an_error;
        ] );
      ( "batcher",
        [
          Alcotest.test_case "fills at max_batch" `Quick test_batcher_fills_at_max_batch;
          Alcotest.test_case "linger deadline" `Quick test_batcher_linger_deadline;
          Alcotest.test_case "drain chunks" `Quick test_batcher_drain_chunks;
          Alcotest.test_case "validation" `Quick test_batcher_validation;
        ] );
      ( "serve-model",
        [
          Alcotest.test_case "padded rows" `Quick test_padded_rows;
          Alcotest.test_case "batch matches predict" `Quick
            test_predict_batch_matches_predict;
          Alcotest.test_case "mc pool-size invariant" `Quick
            test_predict_mc_pool_size_invariant;
          Alcotest.test_case "load verifies digest" `Quick test_load_verifies_digest;
          Alcotest.test_case "wide batch matches predict" `Quick
            test_wide_batch_matches_predict;
          Alcotest.test_case "predictor follows master" `Quick
            test_predictor_follows_master;
          Alcotest.test_case "predictor noisy/nominal alternate" `Quick
            test_predictor_noisy_nominal_alternate;
          Alcotest.test_case "predictor rejects bad noise" `Quick
            test_predictor_rejects_bad_noise;
        ] );
      ( "wire",
        [
          Alcotest.test_case "matches in-process" `Quick test_wire_matches_inprocess;
          Alcotest.test_case "rejects bad requests" `Quick test_wire_rejects_bad_requests;
          Alcotest.test_case "atomic stats counters" `Quick
            test_stats_counters_atomic;
          Alcotest.test_case "concurrent clients" `Quick
            test_concurrent_clients_bit_identical;
          Alcotest.test_case "shutdown request" `Quick test_shutdown_request_stops_server;
        ] );
    ]
