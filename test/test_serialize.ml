(* Round-trip tests for the pNN persistence format: bit-exact tensor codec
   (including non-finite %h entries and degenerate shapes), the versioned
   config line, and malformed-input rejection. *)

module A = Autodiff
module T = Tensor
module C = Pnn.Config
module S = Pnn.Serialize

let surrogate =
  lazy
    (let dataset = Surrogate.Pipeline.generate_dataset ~n:250 () in
     let model, _ =
       Surrogate.Pipeline.train_surrogate ~arch:[ 10; 8; 6; 4 ] ~max_epochs:300
         (Rng.create 42) dataset
     in
     model)

let make_net ?(seed = 1) ?(config = C.default) ~inputs ~outputs () =
  Pnn.Network.create (Rng.create seed) config (Lazy.force surrogate) ~inputs ~outputs

let tensor_bits t = Array.map Int64.bits_of_float (T.to_array t)

let check_tensor_bits msg a b =
  Alcotest.(check (array int64)) msg (tensor_bits a) (tensor_bits b);
  Alcotest.(check (pair int int)) (msg ^ " shape") (T.shape a) (T.shape b)

(* {1 Tensor line codec} *)

let test_tensor_line_special_values () =
  (* every NaN, of either sign, is written as [nan] and reads back as
     [float_of_string "nan"]; everything else round-trips bit-exact *)
  let nan = float_of_string "nan" and neg_nan = 0.0 /. 0.0 in
  let t =
    T.of_array [| nan; neg_nan; Float.infinity; Float.neg_infinity; -0.0; 1.5e-300 |]
  in
  let t' = Lines.tensor_of_line ~fmt:"Serialize" (Lines.tensor_line t) in
  check_tensor_bits "non-finite entries round-trip bit-exact"
    (T.of_array [| nan; nan; Float.infinity; Float.neg_infinity; -0.0; 1.5e-300 |])
    t'

let test_tensor_line_degenerate_shapes () =
  List.iter
    (fun (r, c) ->
      let t = T.zeros r c in
      let t' = Lines.tensor_of_line ~fmt:"Serialize" (Lines.tensor_line t) in
      Alcotest.(check (pair int int))
        (Printf.sprintf "%dx%d round-trips" r c)
        (r, c) (T.shape t'))
    [ (0, 2); (0, 0); (1, 0) ]

let test_tensor_line_malformed () =
  List.iter
    (fun line ->
      match Lines.tensor_of_line ~fmt:"Serialize" line with
      | exception Failure _ -> ()
      | _ -> Alcotest.failf "expected Failure for %S" line)
    [ ""; "3" ]

(* {1 Rng stream-position codec} *)

let test_rng_line_roundtrip () =
  let rng = Rng.create 1234 in
  (* advance off the seed so the state words are arbitrary *)
  for _ = 1 to 57 do
    ignore (Rng.float rng)
  done;
  let line = Lines.rng_line rng in
  let rng' = Lines.rng_of_line ~fmt:"Serialize" line in
  Alcotest.(check (array int64))
    "restored state words bit-equal" (Rng.state rng) (Rng.state rng');
  let next r = Array.init 64 (fun _ -> Int64.bits_of_float (Rng.float r)) in
  Alcotest.(check (array int64))
    "restored stream continues bit-exactly" (next rng) (next rng')

let test_rng_line_restores_midstream () =
  (* the practical checkpoint use: record, keep drawing, rewind, re-draw *)
  let rng = Rng.create 9 in
  ignore (Rng.normal rng);
  let line = Lines.rng_line rng in
  let tail = Array.init 32 (fun _ -> Int64.bits_of_float (Rng.normal rng)) in
  Rng.set_state rng (Rng.state (Lines.rng_of_line ~fmt:"Serialize" line));
  let replay = Array.init 32 (fun _ -> Int64.bits_of_float (Rng.normal rng)) in
  Alcotest.(check (array int64)) "replay after set_state bit-equal" tail replay

let test_rng_line_malformed () =
  List.iter
    (fun line ->
      match Lines.rng_of_line ~fmt:"Serialize" line with
      | exception Failure _ -> ()
      | _ -> Alcotest.failf "expected Failure for %S" line)
    [ ""; "rng"; "rng 1 2 3"; "notrng 1 2 3 4"; "rng 1 2 3 zz" ]

(* {1 Format-version header} *)

let test_header_present_and_versioned () =
  let net = make_net ~inputs:3 ~outputs:2 () in
  match S.to_lines net with
  | header :: _ ->
      Alcotest.(check string) "header line" "pnn-save 2" header;
      Alcotest.(check string) "schema tag matches" "pnn-save-2" S.schema_tag
  | [] -> Alcotest.fail "to_lines returned nothing"

let test_headerless_v1_accepted () =
  let net = make_net ~inputs:3 ~outputs:2 () in
  let headerless = List.tl (S.to_lines net) in
  let net', rest = S.of_lines (Lazy.force surrogate) headerless in
  Alcotest.(check int) "all lines consumed" 0 (List.length rest);
  List.iter2
    (fun l l' ->
      check_tensor_bits "theta bit-exact"
        (A.value l.Pnn.Layer.theta)
        (A.value l'.Pnn.Layer.theta))
    (Pnn.Network.layers net) (Pnn.Network.layers net')

let test_unknown_version_rejected () =
  let net = make_net ~inputs:3 ~outputs:2 () in
  let future = "pnn-save 99" :: List.tl (S.to_lines net) in
  match S.of_lines (Lazy.force surrogate) future with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "expected Failure on future format version"

(* {1 Config line codec} *)

let test_config_line_roundtrip () =
  let config = { C.default with C.epsilon = 0.1; val_every = 7; patience = 33 } in
  Alcotest.(check bool) "12-field round-trip" true
    (S.config_of_line (S.config_line config) = config)

let test_config_line_back_compat () =
  (* a pre-val_every save: 11 fields, no version tag *)
  let c = C.default in
  let legacy =
    Printf.sprintf "config %d %h %h %h %d %d %d %d %h %h %h" c.C.hidden c.C.lr_theta
      c.C.lr_omega c.C.epsilon c.C.n_mc_train c.C.n_mc_val c.C.max_epochs c.C.patience
      c.C.g_min c.C.g_max c.C.logit_scale
  in
  let parsed = S.config_of_line legacy in
  Alcotest.(check int) "val_every defaults to the historical 5" 5 parsed.C.val_every;
  Alcotest.(check bool) "other fields preserved" true (parsed = { c with C.val_every = 5 })

let test_config_line_malformed () =
  List.iter
    (fun line ->
      match S.config_of_line line with
      | exception Failure _ -> ()
      | _ -> Alcotest.failf "expected Failure for %S" line)
    [ "config 3"; "notconfig 1 2 3"; "" ]

(* {1 Network round-trip: bit-exact} *)

let check_network_roundtrip net =
  let lines = S.to_lines net in
  let net', rest = S.of_lines (Lazy.force surrogate) lines in
  Alcotest.(check int) "all lines consumed" 0 (List.length rest);
  Alcotest.(check bool) "config equal" true
    (Pnn.Network.config net' = Pnn.Network.config net);
  List.iter2
    (fun l l' ->
      check_tensor_bits "theta bit-exact"
        (A.value l.Pnn.Layer.theta)
        (A.value l'.Pnn.Layer.theta);
      check_tensor_bits "act omega bit-exact"
        (Pnn.Nonlinear.snapshot l.Pnn.Layer.act)
        (Pnn.Nonlinear.snapshot l'.Pnn.Layer.act);
      check_tensor_bits "neg omega bit-exact"
        (Pnn.Nonlinear.snapshot l.Pnn.Layer.neg)
        (Pnn.Nonlinear.snapshot l'.Pnn.Layer.neg))
    (Pnn.Network.layers net) (Pnn.Network.layers net')

let test_roundtrip_with_nonfinite_theta () =
  let net = make_net ~inputs:3 ~outputs:2 () in
  (* corrupt a θ with the values %h must still carry faithfully *)
  let v = A.value (List.hd (Pnn.Network.params_theta net)) in
  T.set v 0 0 (float_of_string "nan");
  T.set v 0 1 Float.infinity;
  T.set v 1 0 Float.neg_infinity;
  T.set v 1 1 (-0.0);
  check_network_roundtrip net

let qcheck_roundtrip_bit_exact =
  QCheck.Test.make ~name:"network save/load is bit-exact for any seed" ~count:15
    QCheck.(pair (int_range 0 1000) (int_range 1 4))
    (fun (seed, outputs) ->
      let config = { C.default with C.val_every = 1 + (seed mod 9) } in
      let net = make_net ~seed ~config ~inputs:3 ~outputs () in
      check_network_roundtrip net;
      true)

(* {1 Malformed network input} *)

let test_of_lines_truncated () =
  let net = make_net ~inputs:3 ~outputs:2 () in
  let lines = S.to_lines net in
  let truncated = List.filteri (fun i _ -> i < List.length lines - 1) lines in
  (match S.of_lines (Lazy.force surrogate) truncated with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "expected Failure on truncated input");
  match S.of_lines (Lazy.force surrogate) [ "pnn 1"; S.config_line C.default ] with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "expected Failure on missing layer section"

(* Truncated/corrupt model files must surface as a clear [Failure
   "Serialize: ..."] — never [Invalid_argument] from [Tensor.create] or a
   bare [Failure "int_of_string"] — so a server can refuse to start with a
   readable reason instead of crashing mid-load. *)
let expect_serialize_failure what f =
  match f () with
  | exception Failure msg ->
      if not (String.length msg >= 10 && String.sub msg 0 10 = "Serialize:") then
        Alcotest.failf "%s: Failure lacks Serialize: prefix: %s" what msg
  | exception e ->
      Alcotest.failf "%s: escaped non-Failure exception %s" what
        (Printexc.to_string e)
  | _ -> Alcotest.failf "%s: expected Failure" what

let test_tensor_line_truncated_values () =
  (* shape says 2x3 = 6 values but only 4 survive: the length check must
     fire before any [Tensor.create] *)
  expect_serialize_failure "short value list" (fun () ->
      Lines.tensor_of_line ~fmt:"Serialize" "2 3 0x1p0 0x1p1 0x1p2 0x1p3");
  expect_serialize_failure "excess values" (fun () ->
      Lines.tensor_of_line ~fmt:"Serialize" "1 1 0x1p0 0x1p1");
  expect_serialize_failure "garbage dimension" (fun () ->
      Lines.tensor_of_line ~fmt:"Serialize" "2 banana 0x1p0 0x1p1");
  expect_serialize_failure "garbage value" (fun () ->
      Lines.tensor_of_line ~fmt:"Serialize" "1 2 0x1p0 spam");
  expect_serialize_failure "negative dimension" (fun () ->
      Lines.tensor_of_line ~fmt:"Serialize" "-1 2 0x1p0 0x1p1")

(* Well-formed lines whose shapes the layer and network constructors refuse:
   their [Invalid_argument] must come out as a [Serialize:] failure. *)
let test_shape_errors_are_serialize_failures () =
  let config = S.config_line C.default in
  let row = Lines.tensor_line (T.zeros 1 7) in
  expect_serialize_failure "zero layers" (fun () ->
      S.of_lines (Lazy.force surrogate) [ "pnn-save 2"; "pnn 0"; config ]);
  expect_serialize_failure "theta with two rows" (fun () ->
      S.of_lines (Lazy.force surrogate)
        [ "pnn-save 2"; "pnn 1"; config; Lines.tensor_line (T.zeros 2 2); row; row ]);
  expect_serialize_failure "circuit vector of six" (fun () ->
      S.of_lines (Lazy.force surrogate)
        [ "pnn-save 2"; "pnn 1"; config; Lines.tensor_line (T.zeros 5 2); Lines.tensor_line (T.zeros 1 6); row ])

let test_load_file_truncated_rejected () =
  let net = make_net ~inputs:3 ~outputs:2 () in
  let path = Filename.temp_file "pnn_trunc" ".pnn" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      S.save_file net path;
      (* chop the file mid-way through the last tensor line *)
      let full = In_channel.with_open_text path In_channel.input_all in
      let cut = String.length full - String.length full / 4 in
      Out_channel.with_open_text path (fun oc ->
          Out_channel.output_string oc (String.sub full 0 cut));
      expect_serialize_failure "truncated save file" (fun () ->
          S.load_file (Lazy.force surrogate) path);
      (* the error must name the offending path *)
      (match S.load_file (Lazy.force surrogate) path with
      | exception Failure msg ->
          let has_sub hay needle =
            let nh = String.length hay and nn = String.length needle in
            let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
            go 0
          in
          Alcotest.(check bool) "message names the file" true (has_sub msg path)
      | _ -> Alcotest.fail "expected Failure"))

let test_of_lines_malformed_header_or_config () =
  List.iter
    (fun lines ->
      match S.of_lines (Lazy.force surrogate) lines with
      | exception Failure _ -> ()
      | _ -> Alcotest.fail "expected Failure")
    [
      [];
      [ "pnn" ];
      [ "bad 2"; S.config_line C.default ];
      [ "pnn 1"; "config 3" ];
    ]

let () =
  Alcotest.run "serialize"
    [
      ( "tensor-line",
        [
          Alcotest.test_case "nan/inf/-0.0 bit-exact" `Quick test_tensor_line_special_values;
          Alcotest.test_case "degenerate shapes" `Quick test_tensor_line_degenerate_shapes;
          Alcotest.test_case "malformed" `Quick test_tensor_line_malformed;
        ] );
      ( "rng-line",
        [
          Alcotest.test_case "state+stream roundtrip" `Quick test_rng_line_roundtrip;
          Alcotest.test_case "midstream rewind/replay" `Quick
            test_rng_line_restores_midstream;
          Alcotest.test_case "malformed" `Quick test_rng_line_malformed;
        ] );
      ( "header",
        [
          Alcotest.test_case "versioned header present" `Quick
            test_header_present_and_versioned;
          Alcotest.test_case "headerless v1 accepted" `Quick test_headerless_v1_accepted;
          Alcotest.test_case "future version rejected" `Quick
            test_unknown_version_rejected;
        ] );
      ( "config-line",
        [
          Alcotest.test_case "12-field roundtrip" `Quick test_config_line_roundtrip;
          Alcotest.test_case "11-field back-compat" `Quick test_config_line_back_compat;
          Alcotest.test_case "malformed" `Quick test_config_line_malformed;
        ] );
      ( "network",
        [
          Alcotest.test_case "non-finite theta roundtrip" `Quick
            test_roundtrip_with_nonfinite_theta;
          QCheck_alcotest.to_alcotest qcheck_roundtrip_bit_exact;
        ] );
      ( "malformed",
        [
          Alcotest.test_case "truncated" `Quick test_of_lines_truncated;
          Alcotest.test_case "bad header/config" `Quick test_of_lines_malformed_header_or_config;
          Alcotest.test_case "truncated tensor line" `Quick
            test_tensor_line_truncated_values;
          Alcotest.test_case "shape errors are Serialize failures" `Quick
            test_shape_errors_are_serialize_failures;
          Alcotest.test_case "truncated file rejected with path" `Quick
            test_load_file_truncated_rejected;
        ] );
    ]
