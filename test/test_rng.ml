(* Tests for the xoshiro256** generator. *)

let check_float = Alcotest.(check (float 1e-12))

let test_determinism () =
  let a = Rng.create 7 and b = Rng.create 7 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.uint64 a) (Rng.uint64 b)
  done

let test_seed_sensitivity () =
  let a = Rng.create 7 and b = Rng.create 8 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Rng.uint64 a = Rng.uint64 b then incr same
  done;
  Alcotest.(check int) "different seeds give different streams" 0 !same

let test_float_range () =
  let rng = Rng.create 3 in
  for _ = 1 to 10_000 do
    let v = Rng.float rng in
    if v < 0.0 || v >= 1.0 then Alcotest.failf "float out of [0,1): %f" v
  done

let test_float_mean () =
  let rng = Rng.create 11 in
  let n = 50_000 in
  let acc = ref 0.0 in
  for _ = 1 to n do
    acc := !acc +. Rng.float rng
  done;
  let mean = !acc /. float_of_int n in
  if Float.abs (mean -. 0.5) > 0.01 then Alcotest.failf "uniform mean off: %f" mean

let test_uniform_bounds () =
  let rng = Rng.create 5 in
  for _ = 1 to 1000 do
    let v = Rng.uniform rng ~lo:(-2.0) ~hi:3.0 in
    if v < -2.0 || v >= 3.0 then Alcotest.failf "uniform out of range: %f" v
  done

let test_uniform_invalid () =
  let rng = Rng.create 5 in
  Alcotest.check_raises "hi < lo" (Invalid_argument "Rng.uniform: hi < lo") (fun () ->
      ignore (Rng.uniform rng ~lo:1.0 ~hi:0.0))

let test_int_range () =
  let rng = Rng.create 9 in
  let counts = Array.make 10 0 in
  for _ = 1 to 10_000 do
    let v = Rng.int rng 10 in
    if v < 0 || v >= 10 then Alcotest.failf "int out of range: %d" v;
    counts.(v) <- counts.(v) + 1
  done;
  Array.iteri
    (fun i c -> if c < 800 || c > 1200 then Alcotest.failf "bucket %d skewed: %d" i c)
    counts

let test_int_invalid () =
  let rng = Rng.create 1 in
  Alcotest.check_raises "n <= 0" (Invalid_argument "Rng.int: n <= 0") (fun () ->
      ignore (Rng.int rng 0))

let test_normal_moments () =
  let rng = Rng.create 13 in
  let n = 50_000 in
  let sum = ref 0.0 and sumsq = ref 0.0 in
  for _ = 1 to n do
    let v = Rng.normal rng in
    sum := !sum +. v;
    sumsq := !sumsq +. (v *. v)
  done;
  let mean = !sum /. float_of_int n in
  let var = (!sumsq /. float_of_int n) -. (mean *. mean) in
  if Float.abs mean > 0.02 then Alcotest.failf "normal mean off: %f" mean;
  if Float.abs (var -. 1.0) > 0.05 then Alcotest.failf "normal var off: %f" var

let test_gaussian_shift () =
  let rng = Rng.create 17 in
  let n = 20_000 in
  let acc = ref 0.0 in
  for _ = 1 to n do
    acc := !acc +. Rng.gaussian rng ~mu:5.0 ~sigma:0.1
  done;
  check_float "shifted mean" 5.0 (Float.round (!acc /. float_of_int n))

let test_perm_is_permutation () =
  let rng = Rng.create 19 in
  let p = Rng.perm rng 100 in
  let seen = Array.make 100 false in
  Array.iter
    (fun i ->
      if seen.(i) then Alcotest.failf "duplicate %d" i;
      seen.(i) <- true)
    p;
  Alcotest.(check bool) "all present" true (Array.for_all (fun b -> b) seen)

let test_shuffle_preserves_elements () =
  let rng = Rng.create 23 in
  let a = Array.init 50 (fun i -> i * 3) in
  let b = Array.copy a in
  Rng.shuffle rng b;
  let sa = Array.copy a and sb = Array.copy b in
  Array.sort Int.compare sa;
  Array.sort Int.compare sb;
  Alcotest.(check (array int)) "same multiset" sa sb

let test_split_independence () =
  let rng = Rng.create 29 in
  let child = Rng.split rng in
  (* child and parent should produce different streams *)
  let same = ref 0 in
  for _ = 1 to 64 do
    if Rng.uint64 rng = Rng.uint64 child then incr same
  done;
  Alcotest.(check int) "split streams differ" 0 !same

let test_copy_diverges_from_original () =
  let rng = Rng.create 31 in
  (* pnnlint:allow R1 this test exercises Rng.copy's documented semantics *)
  let dup = Rng.copy rng in
  Alcotest.(check int64) "copies agree initially" (Rng.uint64 rng) (Rng.uint64 dup);
  ignore (Rng.uint64 rng);
  (* now streams are offset *)
  let a = Rng.uint64 rng and b = Rng.uint64 dup in
  Alcotest.(check bool) "offset copies differ" true (a <> b)

let qcheck_int_bounds =
  QCheck.Test.make ~name:"Rng.int stays in bounds" ~count:500
    QCheck.(pair small_int (int_range 1 1000))
    (fun (seed, n) ->
      let rng = Rng.create seed in
      let v = Rng.int rng n in
      v >= 0 && v < n)

let qcheck_uniform_bounds =
  QCheck.Test.make ~name:"Rng.uniform stays in bounds" ~count:500
    QCheck.(triple small_int (float_range (-100.) 100.) (float_range 0.001 50.))
    (fun (seed, lo, width) ->
      let rng = Rng.create seed in
      let v = Rng.uniform rng ~lo ~hi:(lo +. width) in
      v >= lo && v < lo +. width)

(* Every generator entry point, digested bit for bit over a few seeds
   (FNV-1a over each output's 64 bits), with the first words spelled out.
   Captured from the record-of-int64 implementation: every golden result
   in the repository depends on these streams, so a representation change
   must reproduce them exactly. *)
let stream_words seed =
  let rng = Rng.create seed in
  let words = List.init 6 (fun _ -> Rng.uint64 rng) in
  let child = Rng.split rng in
  let st = Rng.state rng in
  let restored = Rng.of_state st in
  (* pnnlint:allow R1 the golden streams cover every entry point, Rng.copy included *)
  let copy = Rng.copy restored in
  words
  @ [ Rng.uint64 child; Rng.uint64 copy ]
  @ List.map Int64.bits_of_float
      [
        Rng.float restored;
        Rng.uniform restored ~lo:(-2.0) ~hi:3.0;
        Rng.normal restored;
        Rng.gaussian restored ~mu:0.5 ~sigma:2.0;
      ]
  @ List.map Int64.of_int (Rng.int restored 1000 :: Array.to_list (Rng.perm restored 9))
  @ Array.to_list st

let fnv64 words =
  List.fold_left
    (fun h w ->
      let h = ref h in
      for i = 0 to 7 do
        let byte = Int64.logand (Int64.shift_right_logical w (8 * i)) 0xffL in
        h := Int64.mul (Int64.logxor !h byte) 0x100000001b3L
      done;
      !h)
    0xcbf29ce484222325L words

let expected_golden_streams =
  [
    "seed 0: 99ec5f36cb75f2b4 bf6e1f784956452a digest 3763b4bd6ffa0223";
    "seed 1: b3f2af6d0fc710c5 853b559647364cea digest e2af0748792b0255";
    "seed 42: 15780b2e0c2ec716 6104d9866d113a7e digest 2dc51e6d9305d4eb";
    "seed -7: f305399b3b63f2c2 d693dd0a37ae5bdc digest 17249902a856951c";
    "seed 4611686018427387903: 6a2df487bd4abde8 7089a21212eab9fc digest aa9b90351fad8e1d";
  ]

let test_golden_streams () =
  let got =
    List.map
      (fun seed ->
        let w = stream_words seed in
        Printf.sprintf "seed %d: %016Lx %016Lx digest %016Lx" seed (List.nth w 0) (List.nth w 1)
          (fnv64 w))
      [ 0; 1; 42; -7; max_int ]
  in
  Alcotest.(check (list string)) "golden streams" expected_golden_streams got

let () =
  Alcotest.run "rng"
    [
      ( "basics",
        [
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "golden streams" `Quick test_golden_streams;
          Alcotest.test_case "seed sensitivity" `Quick test_seed_sensitivity;
          Alcotest.test_case "float range" `Quick test_float_range;
          Alcotest.test_case "float mean" `Quick test_float_mean;
          Alcotest.test_case "uniform bounds" `Quick test_uniform_bounds;
          Alcotest.test_case "uniform invalid" `Quick test_uniform_invalid;
          Alcotest.test_case "int range" `Quick test_int_range;
          Alcotest.test_case "int invalid" `Quick test_int_invalid;
          Alcotest.test_case "normal moments" `Quick test_normal_moments;
          Alcotest.test_case "gaussian shift" `Quick test_gaussian_shift;
          Alcotest.test_case "perm" `Quick test_perm_is_permutation;
          Alcotest.test_case "shuffle" `Quick test_shuffle_preserves_elements;
          Alcotest.test_case "split" `Quick test_split_independence;
          Alcotest.test_case "copy" `Quick test_copy_diverges_from_original;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest qcheck_int_bounds;
          QCheck_alcotest.to_alcotest qcheck_uniform_bounds;
        ] );
    ]
