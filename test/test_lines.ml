(* The text-line formats: byte pins and hostile input.

   Every payload below feeds a digest, a cache key or a committed artifact,
   so its bytes are frozen: the pins compare each writer's output with the
   MD5 of the lines it produced when the format was last changed.  The
   hostile-input table feeds every reader damaged lines and checks that the
   only thing it raises is its documented [Failure]. *)

module A = Autodiff
module T = Tensor
module C = Pnn.Config

let artifact n =
  Printf.sprintf "../_artifacts/surrogate_n%d_10-9-9-8-8-7-7-6-6-6-5-5-5-4_seed42.txt" n

let read_lines path = In_channel.with_open_bin path In_channel.input_lines
let surrogate = lazy (Surrogate.Model.load_file (artifact 2000))
let digest = Cache.digest_lines

let blob_split () =
  let data =
    Datasets.Synth.generate
      {
        Datasets.Synth.name = "blob";
        features = 3;
        classes = 2;
        samples = 60;
        modes_per_class = 1;
        class_sep = 0.3;
        spread = 0.06;
        label_noise = 0.0;
        priors = None;
        seed = 31;
      }
  in
  Datasets.Synth.split (Rng.create 8) data

let config =
  { C.default with C.max_epochs = 4; epsilon = 0.1; n_mc_train = 2; n_mc_val = 2; val_every = 1 }

let with_temp_dir f =
  let dir = Filename.temp_file "pnnlines" "" in
  Sys.remove dir;
  Fun.protect
    ~finally:(fun () -> ignore (Sys.command ("rm -rf " ^ Filename.quote dir)))
    (fun () -> f dir)

let train ?checkpoint () =
  Pnn.Training.train_fresh ?checkpoint (Rng.create 4) config (Lazy.force surrogate)
    ~n_classes:2 (blob_split ())

(* The lines of a checkpoint written after the second epoch. *)
let checkpoint_lines () =
  with_temp_dir (fun dir ->
      let ckpt_path = Filename.concat dir "ck.pce" in
      (match
         train
           ~checkpoint:
             { Pnn.Training.ckpt_path; every = 1; resume = false; interrupt_after = Some 2 }
           ()
       with
      | exception Pnn.Training.Interrupted -> ()
      | _ -> Alcotest.fail "expected the interrupt hook to fire");
      match Cache.Blob.read ~tag:"ckpt" ckpt_path with
      | Cache.Blob.Valid lines -> lines
      | Cache.Blob.Corrupt | Cache.Blob.Missing -> Alcotest.fail "no checkpoint written")

(* Adam moments of one parameter after three steps towards a fixed target. *)
let optimizer_lines () =
  let target = T.of_array [| 1.0; -2.0; 0.5 |] in
  let p = A.param (T.of_array [| 0.25; 0.0; -0.125 |]) in
  let opt = Nn.Optimizer.adam ~lr:0.05 () in
  for _ = 1 to 3 do
    A.backward (A.mse p target);
    Nn.Optimizer.step opt [ p ]
  done;
  Nn.Optimizer.state_lines opt [ p ]

(* A network and optimizers shaped like [train]'s, before any epoch. *)
let fresh_run () =
  let net = Pnn.Network.create (Rng.create 4) config (Lazy.force surrogate) ~inputs:3 ~outputs:2 in
  ( net,
    [
      (Nn.Optimizer.adam ~lr:config.C.lr_omega (), Pnn.Network.params_omega net);
      (Nn.Optimizer.adam ~lr:config.C.lr_theta (), Pnn.Network.params_theta net);
    ] )

let fixed_network () =
  Pnn.Network.create (Rng.create 7) C.default (Lazy.force surrogate) ~inputs:4 ~outputs:3

(* {1 Byte pins} *)

let test_artifacts_roundtrip () =
  List.iter
    (fun (n, expect) ->
      let path = artifact n in
      let lines = read_lines path in
      let again = Surrogate.Model.to_lines (Surrogate.Model.load_file path) in
      Alcotest.(check (list string)) (Printf.sprintf "n%d round-trips" n) lines again;
      Alcotest.(check string) (Printf.sprintf "n%d digest" n) expect (digest again))
    [ (2000, "1a904f4164ce9887d42b56a75f40e467"); (4000, "b8590ba103fb61fd0959d4005d7ea18b") ]

let test_network_digest () =
  Alcotest.(check string) "Serialize.digest" "0b0715bf1b23abfea49dd9cb409b324d" (Pnn.Serialize.digest (fixed_network ()))

let test_checkpoint_lines () =
  let lines = checkpoint_lines () in
  Alcotest.(check int) "line count" 34 (List.length lines);
  Alcotest.(check string) "checkpoint lines" "b74e235ac5de62486309cbe9b5362a80" (digest lines)

let test_result_lines () =
  let lines = Pnn.Training.result_lines (train ()) in
  Alcotest.(check int) "line count" 12 (List.length lines);
  Alcotest.(check string) "result lines" "65969c1d445d55afd6a68ab444869f66" (digest lines)

let test_optimizer_lines () =
  Alcotest.(check (list string))
    "adam state"
    [
      "adam 3 1";
      "m 3 -0x1.01b915ad2ad3ap-3 0x1.681bf409019c4p-2 -0x1.a6f41697a9477p-4";
      "v 3 0x1.575c248c5fe2cp-11 0x1.4c12d7169956fp-8 0x1.d0223defe060dp-12";
    ]
    (optimizer_lines ())

let test_cache_payloads () =
  with_temp_dir (fun dir ->
      let cache = Cache.create ~dir in
      ignore (Surrogate.Pipeline.generate_dataset ~cache ~n:8 ());
      let net = fixed_network () in
      let x = T.of_arrays (Array.init 5 (fun i -> Array.init 4 (fun j -> float_of_int (i + j) /. 8.0))) in
      let y = [| 0; 1; 2; 0; 1 |] in
      ignore
        (Pnn.Evaluation.mc_accuracy ~cache:(cache, "pinned-key") (Rng.create 3) net ~epsilon:0.1
           ~n:4 ~x ~y);
      let payload (e : Cache.entry) =
        match Cache.find cache ~kind:e.Cache.kind ~key:e.Cache.key with
        | Some lines -> (e.Cache.kind, e.Cache.key, digest lines)
        | None -> Alcotest.fail "entry vanished"
      in
      let got =
        List.sort
          (fun (a, _, _) (b, _, _) -> String.compare a b)
          (List.map payload (Cache.entries ~dir ()))
      in
      Alcotest.(check (list (triple string string string))) "entries"
        [
          ("mceval", "pinned-key", "71bc9c16ff6d7d705da398db82f653e5");
          ("surchunk", "cf735fd3889093d3ce84b4da898527b0", "f481480c2a1f331f0a4a160face1a781");
        ]
        got)

(* {1 Surrogate loader}

   Three damaged copies of the committed artifact that used to load wrongly
   or escape as [Invalid_argument]. *)

let expect_failure what f =
  match f () with
  | exception Failure _ -> ()
  | exception e -> Alcotest.failf "%s: escaped %s" what (Printexc.to_string e)
  | _ -> Alcotest.failf "%s: loaded without complaint" what

let model_lines () = read_lines (artifact 2000)

let with_mlp_header f =
  List.map
    (fun line ->
      match Lines.words line with "mlp" :: rest -> String.concat " " ("mlp" :: f rest) | _ -> line)
    (model_lines ())

let test_short_weight_line () =
  let lines = model_lines () in
  let last = List.length lines - 1 in
  let cut line =
    let w = Lines.words line in
    String.concat " " (List.filteri (fun i _ -> i < List.length w - 3) w)
  in
  expect_failure "last bias line missing 3 values" (fun () ->
      Surrogate.Model.of_lines (List.mapi (fun i l -> if i = last then cut l else l) lines))

let test_unknown_activation () =
  expect_failure "unknown activation" (fun () ->
      Surrogate.Model.of_lines (with_mlp_header (function _ :: rest -> "swish" :: rest | [] -> [])))

let test_header_shape_mismatch () =
  expect_failure "mlp header sizes disagree with the weights" (fun () ->
      Surrogate.Model.of_lines
        (with_mlp_header (function
          | h :: o :: _ :: rest -> h :: o :: "3" :: List.map (fun _ -> "2") rest
          | other -> other)))

(* {1 Atomic publish} *)

let siblings dir path =
  List.filter
    (fun f -> String.starts_with ~prefix:(Filename.basename path ^ ".tmp.") f)
    (Array.to_list (Sys.readdir dir))

let test_save_replaces_atomically () =
  with_temp_dir (fun dir ->
      let check name save lines =
        let path = Filename.concat (Filename.concat dir "sub") name in
        Cache.mkdir_p (Filename.dirname path);
        Out_channel.with_open_bin path (fun oc -> output_string oc "stale partial bytes");
        save path;
        Alcotest.(check (list string)) (name ^ " holds the new lines") lines (read_lines path);
        Alcotest.(check (list string)) (name ^ " leaves no temp sibling") []
          (siblings (Filename.dirname path) path)
      in
      let model = Lazy.force surrogate and net = fixed_network () in
      check "model.txt" (Surrogate.Model.save_file model) (Surrogate.Model.to_lines model);
      check "net.pnn" (Pnn.Serialize.save_file net) (Pnn.Serialize.to_lines net))

(* {1 Hostile input}

   Every format's readers against mutations of a valid payload: each
   line-prefix truncation, each word replaced by [banana] and each count
   word replaced by [1000000000].  The only acceptable outcome is the
   documented error.  Count words are the ones declaring how many values,
   records or tensor entries follow. *)

let is_int w = w <> "" && String.for_all (function '0' .. '9' -> true | _ -> false) w

let count_positions = function
  | ("pnn" | "weights" | "best" | "opts" | "scaler" | "train" | "val" | "m" | "v" | "accs") :: _ ->
      [ 1 ]
  | "adam" :: _ -> [ 2 ]
  | "mlp" :: _ :: _ :: sizes -> List.mapi (fun i _ -> i + 3) sizes
  | a :: b :: _ when is_int a && is_int b -> [ 0; 1 ]
  | _ -> []

let huge = "1000000000"

let replace_word lines i j by =
  List.mapi
    (fun i' line ->
      if i' <> i then line
      else String.concat " " (List.mapi (fun j' w -> if j' = j then by else w) (Lines.words line)))
    lines

let mutations lines =
  let n = List.length lines in
  let per_line f = List.concat (List.mapi f lines) in
  List.init n (fun k -> (Printf.sprintf "first %d lines" k, List.filteri (fun i _ -> i < k) lines))
  @ per_line (fun i line ->
        List.mapi
          (fun j _ -> (Printf.sprintf "line %d word %d is banana" i j, replace_word lines i j "banana"))
          (Lines.words line))

let count_mutations lines =
  List.concat
    (List.mapi
       (fun i line ->
         List.map
           (fun j -> (Printf.sprintf "line %d count %d is %s" i j huge, replace_word lines i j huge))
           (count_positions (Lines.words line)))
       lines)

(* [decode] returns [true] when it accepted its input and [false] when it
   refused it without raising; [Failure] is the other documented refusal,
   and anything else it raises fails the test.  A huge declared count must
   not cost more than decoding the whole valid payload does: a reader that
   allocated what the count declares would take gigabytes. *)
let hostile ?prefix name lines decode =
  (* [Gc.minor_words] is exact on the allocating domain; the counters' major
     words take the direct major allocations a large array would make *)
  let words () =
    let _, _, major = Gc.counters () in
    Gc.minor_words () +. major
  in
  let allocated f =
    let before = words () in
    let r = f () in
    (r, words () -. before)
  in
  let run ?bound what input =
    let verdict, words =
      allocated (fun () ->
          match decode input with
          | true -> Some "accepted"
          | false -> None
          | exception Failure msg -> (
              match prefix with
              | Some p when not (String.starts_with ~prefix:p msg) ->
                  Some (Printf.sprintf "Failure lacks %S: %s" p msg)
              | Some _ | None -> None)
          | exception e -> Some ("escaped " ^ Printexc.to_string e))
    in
    (match verdict with Some v -> Alcotest.failf "%s, %s: %s" name what v | None -> ());
    match bound with
    | Some bound when words > bound ->
        Alcotest.failf "%s, %s: allocated %.0f words, the valid payload %.0f" name what words
          ((bound -. 65536.0) /. 2.0)
    | Some _ | None -> ()
  in
  if not (decode lines) then Alcotest.failf "%s: the unmutated payload was rejected" name;
  let _, valid = allocated (fun () -> decode lines) in
  List.iter (fun (what, input) -> run what input) (mutations lines);
  List.iter (fun (what, input) -> run ~bound:((2.0 *. valid) +. 65536.0) what input) (count_mutations lines)

let accepts f input =
  ignore (f input);
  true

let test_hostile_serialize () =
  hostile ~prefix:"Serialize:" "Serialize.of_lines"
    (Pnn.Serialize.to_lines (fixed_network ()))
    (accepts (Pnn.Serialize.of_lines (Lazy.force surrogate)))

let test_hostile_checkpoint () =
  let lines = checkpoint_lines () in
  with_temp_dir (fun dir ->
      let path = Filename.concat dir "ck.pce" in
      (* [load] refuses what it cannot parse; what it parses but does not
         fit the run ([apply]'s [Failure]) is the same fresh start *)
      let decode input =
        ignore (Cache.Blob.write ~tag:"ckpt" path input);
        match Pnn.Checkpoint.load path with
        | None -> false
        | Some ck ->
            let net, optimizers = fresh_run () in
            ignore
              (Pnn.Checkpoint.apply ck ~rng:(Rng.create 0) ~state:(Nn.Train.fresh_state ())
                 ~network:net ~optimizers);
            true
      in
      hostile "Checkpoint.load" lines decode)

(* The second optimizer's section is cut short: [apply] must refuse the
   checkpoint without having restored the first optimizer's moments. *)
let test_refused_checkpoint_leaves_optimizers_fresh () =
  let lines = checkpoint_lines () in
  with_temp_dir (fun dir ->
      let path = Filename.concat dir "ck.pce" in
      ignore (Cache.Blob.write ~tag:"ckpt" path (List.filteri (fun i _ -> i < List.length lines - 1) lines));
      match Pnn.Checkpoint.load path with
      | None -> Alcotest.fail "the optimizer sections are read by apply, not load"
      | Some ck ->
          let net, optimizers = fresh_run () in
          let state () = List.concat_map (fun (o, ps) -> Nn.Optimizer.state_lines o ps) optimizers in
          let before = state () in
          (match
             Pnn.Checkpoint.apply ck ~rng:(Rng.create 0) ~state:(Nn.Train.fresh_state ()) ~network:net
               ~optimizers
           with
          | exception Failure _ -> ()
          | _ -> Alcotest.fail "expected the cut checkpoint to be refused");
          Alcotest.(check (list string)) "optimizers untouched" before (state ()))

let test_hostile_training_result () =
  hostile "Training.result_of_lines"
    (Pnn.Training.result_lines (train ()))
    (accepts (Pnn.Training.result_of_lines (Lazy.force surrogate)))

let test_hostile_optimizer () =
  let p = A.param (T.zeros 1 3) in
  hostile "Optimizer.read_state" (optimizer_lines ())
    (accepts (Nn.Optimizer.read_state (Nn.Optimizer.adam ~lr:0.05 ()) [ p ]))

let test_hostile_surrogate () =
  hostile "Surrogate.Model.of_lines" (model_lines ()) (accepts Surrogate.Model.of_lines)

let test_hostile_cache_payloads () =
  hostile "mceval" [ Lines.counted_line "accs" [| 0.5; 0.75; 1.0 |] ] (accepts Pnn.Evaluation.accs_of_lines);
  hostile "ablcell" [ Printf.sprintf "acc %h %h" 0.75 0.5 ] (accepts Experiments.Ablations.cell_of_lines);
  with_temp_dir (fun dir ->
      let cache = Cache.create ~dir in
      ignore (Surrogate.Pipeline.generate_dataset ~cache ~n:8 ());
      let chunk = Surrogate.Design_space.sample_sobol ~n:8 in
      match Cache.entries ~dir () with
      | [ e ] -> (
          match Cache.find cache ~kind:e.Cache.kind ~key:e.Cache.key with
          | Some lines ->
              hostile "surchunk" lines (accepts (Surrogate.Pipeline.chunk_of_lines chunk))
          | None -> Alcotest.fail "surchunk entry vanished")
      | _ -> Alcotest.fail "expected one surchunk entry")

(* A damaged mceval entry is recomputed, counted as corrupt and replaced. *)
let test_damaged_entry_recomputed () =
  with_temp_dir (fun dir ->
      let cache = Cache.create ~dir in
      let net = fixed_network () in
      let x = T.of_arrays (Array.init 5 (fun i -> Array.init 4 (fun j -> float_of_int (i * j) /. 9.0))) in
      let eval () =
        (Pnn.Evaluation.mc_accuracy ~cache:(cache, "k") (Rng.create 3) net ~epsilon:0.1 ~n:4 ~x
           ~y:[| 0; 1; 2; 0; 1 |])
          .Pnn.Evaluation.accuracies
      in
      let fresh = eval () in
      Cache.store cache ~kind:"mceval" ~key:"k" [ "accs 4 banana" ];
      Alcotest.(check (array (float 0.0))) "recomputed" fresh (eval ());
      Alcotest.(check int) "counted corrupt" 1 (Atomic.get (Cache.stats cache).Cache.corrupt);
      Alcotest.(check (option (list string))) "entry replaced"
        (Some [ Lines.counted_line "accs" fresh ])
        (Cache.find cache ~kind:"mceval" ~key:"k"))

let () =
  Alcotest.run "lines"
    [
      ( "pins",
        [
          Alcotest.test_case "committed surrogates round-trip" `Quick test_artifacts_roundtrip;
          Alcotest.test_case "network digest" `Quick test_network_digest;
          Alcotest.test_case "checkpoint lines" `Quick test_checkpoint_lines;
          Alcotest.test_case "training result lines" `Quick test_result_lines;
          Alcotest.test_case "optimizer state lines" `Quick test_optimizer_lines;
          Alcotest.test_case "surchunk and mceval entries" `Quick test_cache_payloads;
        ] );
      ( "surrogate loader",
        [
          Alcotest.test_case "short weight line" `Quick test_short_weight_line;
          Alcotest.test_case "unknown activation" `Quick test_unknown_activation;
          Alcotest.test_case "header disagrees with weights" `Quick test_header_shape_mismatch;
        ] );
      ("files", [ Alcotest.test_case "save replaces atomically" `Quick test_save_replaces_atomically ]);
      ( "hostile input",
        [
          Alcotest.test_case "Serialize.of_lines" `Quick test_hostile_serialize;
          Alcotest.test_case "Checkpoint.load" `Quick test_hostile_checkpoint;
          Alcotest.test_case "refused checkpoint leaves optimizers fresh" `Quick
            test_refused_checkpoint_leaves_optimizers_fresh;
          Alcotest.test_case "Training.result_of_lines" `Quick test_hostile_training_result;
          Alcotest.test_case "Optimizer.read_state" `Quick test_hostile_optimizer;
          Alcotest.test_case "Surrogate.Model.of_lines" `Quick test_hostile_surrogate;
          Alcotest.test_case "cache payload decoders" `Quick test_hostile_cache_payloads;
          Alcotest.test_case "damaged entry recomputed" `Quick test_damaged_entry_recomputed;
        ] );
    ]
