(* Cross-backend kernel agreement suite.

   The reference backend is the bit-identity oracle; the C-stub backend
   must agree with it bit-for-bit on every per-element kernel and within
   1e-12 relative error on the re-associated matmul family, whose exact C
   results are pinned separately by output digests.  Each check builds its
   inputs *inside* the backend under test so the whole computation stays
   homogeneous; mixed-storage behavior gets its own test. *)

module T = Tensor

let with_backend b f =
  let prev = T.backend () in
  T.set_backend b;
  Fun.protect ~finally:(fun () -> T.set_backend prev) f

(* Deterministic "interesting" data: mixed signs and magnitudes, exact
   zeros, values spanning several binades. *)
let mk rows cols seed =
  T.init rows cols (fun r c ->
      let i = (r * cols) + c + (seed * 7919) in
      let h = (i * 2654435761) land 0xffff in
      (float_of_int h /. 655.36) -. 50.0)

(* Strictly positive variant for log / sqrt / div denominators. *)
let mk_pos rows cols seed =
  T.init rows cols (fun r c ->
      let i = (r * cols) + c + (seed * 104729) in
      let h = (i * 2654435761) land 0xffff in
      (float_of_int h /. 6553.6) +. 0.125)

let bits = Int64.bits_of_float

let check_bits ~what a b =
  if Array.length a <> Array.length b then
    Alcotest.failf "%s: length %d vs %d" what (Array.length a) (Array.length b);
  Array.iteri
    (fun i x ->
      let y = b.(i) in
      if not (Int64.equal (bits x) (bits y)) then
        Alcotest.failf "%s: index %d: %h vs %h (bitwise)" what i x y)
    a

let check_close ~what a b =
  if Array.length a <> Array.length b then
    Alcotest.failf "%s: length %d vs %d" what (Array.length a) (Array.length b);
  Array.iteri
    (fun i x ->
      let y = b.(i) in
      let same_bits = Int64.equal (bits x) (bits y) in
      let denom = Float.max 1.0 (Float.max (Float.abs x) (Float.abs y)) in
      if (not same_bits) && not (Float.abs (x -. y) /. denom <= 1e-12) then
        Alcotest.failf "%s: index %d: %h vs %h (rel err > 1e-12)" what i x y)
    a

(* Run [f : unit -> float array] on both backends and compare C against
   the reference oracle. *)
let agree ?(exact = true) what f =
  let r = with_backend T.Reference f in
  let c = with_backend T.C64 f in
  (if exact then check_bits else check_close) ~what:(what ^ " [c]") r c

let shapes = [ (0, 0); (0, 3); (1, 1); (1, 7); (5, 1); (3, 4); (7, 5); (8, 8); (33, 17) ]

let test_elementwise () =
  List.iter
    (fun (r, c) ->
      let tag op = Printf.sprintf "%s %dx%d" op r c in
      agree (tag "add") (fun () ->
          T.to_array (T.add (mk r c 1) (mk r c 2)));
      agree (tag "sub") (fun () ->
          T.to_array (T.sub (mk r c 1) (mk r c 2)));
      agree (tag "mul") (fun () ->
          T.to_array (T.mul (mk r c 1) (mk r c 2)));
      agree (tag "div") (fun () ->
          T.to_array (T.div (mk r c 1) (mk_pos r c 2)));
      agree (tag "neg") (fun () -> T.to_array (T.neg (mk r c 1)));
      agree (tag "scale") (fun () -> T.to_array (T.scale 1.7 (mk r c 1)));
      agree (tag "add_scalar") (fun () ->
          T.to_array (T.add_scalar (-3.25) (mk r c 1)));
      agree (tag "map") (fun () ->
          T.to_array (T.map (fun x -> (x *. x) -. 1.0) (mk r c 1)));
      agree (tag "transpose") (fun () -> T.to_array (T.transpose (mk r c 1)));
      agree (tag "fill+blit") (fun () ->
          let d = T.zeros r c in
          T.fill d 2.5;
          let e = T.zeros r c in
          T.blit ~src:d ~dst:e;
          T.to_array e);
      if r > 0 && c > 0 then begin
        agree (tag "add_rowvec") (fun () ->
            T.to_array (T.add_rowvec (mk r c 1) (mk 1 c 2)));
        agree (tag "mul_rowvec") (fun () ->
            T.to_array (T.mul_rowvec (mk r c 1) (mk 1 c 2)));
        agree (tag "broadcast_rowvec_into") (fun () ->
            let d = T.zeros r c in
            T.broadcast_rowvec_into (mk 1 c 3) ~dst:d;
            T.to_array d)
      end)
    shapes

let test_reductions () =
  List.iter
    (fun (r, c) ->
      if r > 0 && c > 0 then begin
        let tag op = Printf.sprintf "%s %dx%d" op r c in
        agree (tag "sum") (fun () -> [| T.sum (mk r c 1) |]);
        agree (tag "mean") (fun () -> [| T.mean (mk r c 1) |]);
        agree (tag "min_value") (fun () -> [| T.min_value (mk r c 1) |]);
        agree (tag "max_value") (fun () -> [| T.max_value (mk r c 1) |]);
        agree (tag "sum_rows") (fun () -> T.to_array (T.sum_rows (mk r c 1)));
        agree (tag "dot") (fun () -> [| T.dot (mk r c 1) (mk r c 2) |]);
        agree (tag "argmax_rows") (fun () ->
            Array.map float_of_int (T.argmax_rows (mk r c 1)))
      end)
    shapes

(* n < 8 exercises the scalar remainder column loop; n = 8/16 the pure
   8-wide register tile; n = 9/17 tile + remainder.  Zero-sized operands
   must come out as (correctly-shaped) empties. *)
let matmul_triples =
  [
    (1, 1, 1); (2, 3, 4); (4, 4, 8); (3, 5, 9); (5, 7, 16); (6, 2, 17);
    (33, 17, 7); (8, 8, 8); (0, 3, 4); (3, 0, 4); (3, 4, 0);
  ]

let test_matmul_family () =
  List.iter
    (fun (m, k, n) ->
      let tag op = Printf.sprintf "%s %dx%dx%d" op m k n in
      agree ~exact:false (tag "matmul") (fun () ->
          T.to_array (T.matmul (mk m k 1) (mk k n 2)));
      agree ~exact:false (tag "matmul_nt") (fun () ->
          T.to_array (T.matmul_nt (mk m k 1) (mk n k 2)));
      agree ~exact:false (tag "matmul_into") (fun () ->
          let d = T.ones m n in
          T.matmul_into (mk m k 1) (mk k n 2) ~dst:d;
          T.to_array d))
    matmul_triples

(* {2 C matmul association pinned by output digests}

   The C backend's matmul family re-associates, so only its own past output
   can say whether its results (and the +c64 cache entries computed from
   them) are unchanged.  FNV-1a 64 over the IEEE bit patterns of each
   output, per shape in [matmul_triples] (pure tiles, tile + remainder,
   remainder only, empties).  The expected digests are the results every
   warm +c64 cache entry was computed with: a mismatch means the
   association changed and those caches are stale, so never edit the
   digests to make this test pass.

   Inputs are [mk] divided by 3: [mk]'s values carry at most 20
   significant bits, so their short dot products are exact under every
   association and could not tell two associations apart. *)

let mk_full rows cols seed = T.map (fun x -> x /. 3.0) (mk rows cols seed)

let fnv1a64 a =
  Array.fold_left
    (fun h x ->
      let bits = Int64.bits_of_float x in
      let h = ref h in
      for i = 0 to 7 do
        let byte = Int64.logand (Int64.shift_right_logical bits (8 * i)) 0xffL in
        h := Int64.mul (Int64.logxor !h byte) 0x100000001b3L
      done;
      !h)
    0xcbf29ce484222325L a

let c_matmul_digests () =
  List.concat_map
    (fun (m, k, n) ->
      let line op a = Printf.sprintf "%s %dx%dx%d %016Lx" op m k n (fnv1a64 a) in
      let x = T.scale 0.05 (mk_full m k 1) and w = T.scale 0.05 (mk_full k n 2) in
      let b = T.scale 0.05 (mk_full 1 n 3) in
      let pre = T.zeros m n and out = T.zeros m n in
      T.matmul_bias_unop_into ~op:T.Tanh x w b ~pre ~out;
      [
        line "matmul" (T.to_array (T.matmul (mk_full m k 1) (mk_full k n 2)));
        line "matmul_nt" (T.to_array (T.matmul_nt (mk_full m k 1) (mk_full n k 2)));
        line "dense_pre" (T.to_array pre);
        line "dense_tanh" (T.to_array out);
      ])
    matmul_triples

let expected_c_matmul_digests =
  [
    "matmul 1x1x1 de9e2cf9db77c816";
    "matmul_nt 1x1x1 de9e2cf9db77c816";
    "dense_pre 1x1x1 2e02162df606f6e6";
    "dense_tanh 1x1x1 0b904834cc624be3";
    "matmul 2x3x4 9ac29ebd323e5c8a";
    "matmul_nt 2x3x4 2ecc2ea4d6812e30";
    "dense_pre 2x3x4 fb4495ad4fa91d44";
    "dense_tanh 2x3x4 eb11c079a5443f6c";
    "matmul 4x4x8 3a38b32c0e6aea46";
    "matmul_nt 4x4x8 7c0ba4a9be997ab0";
    "dense_pre 4x4x8 d09d273eee219362";
    "dense_tanh 4x4x8 796d14f8b1321edf";
    "matmul 3x5x9 023a1a92ab2868af";
    "matmul_nt 3x5x9 c746453ac24696d6";
    "dense_pre 3x5x9 5b194171bd8e5820";
    "dense_tanh 3x5x9 3034ddeb93fd9e05";
    "matmul 5x7x16 0c1e13f4e36c7e18";
    "matmul_nt 5x7x16 7c73439a0c717782";
    "dense_pre 5x7x16 0191bb2f34e2c376";
    "dense_tanh 5x7x16 e5161bc64428c2da";
    "matmul 6x2x17 4476f8bf120c353b";
    "matmul_nt 6x2x17 a958129756a7717d";
    "dense_pre 6x2x17 470a0fa9f5db3742";
    "dense_tanh 6x2x17 e87008ff411b62bc";
    "matmul 33x17x7 430038030ca0aa07";
    "matmul_nt 33x17x7 1dfddd598fc1726b";
    "dense_pre 33x17x7 58a419a87fc0ee91";
    "dense_tanh 33x17x7 a3c11bf363dab6a8";
    "matmul 8x8x8 0e509dafc9d19b82";
    "matmul_nt 8x8x8 58bae2aa23899fc3";
    "dense_pre 8x8x8 c115bdcff1b334f3";
    "dense_tanh 8x8x8 de812b9a094acfa5";
    "matmul 0x3x4 cbf29ce484222325";
    "matmul_nt 0x3x4 cbf29ce484222325";
    "dense_pre 0x3x4 cbf29ce484222325";
    "dense_tanh 0x3x4 cbf29ce484222325";
    "matmul 3x0x4 0243cfa845185aa5";
    "matmul_nt 3x0x4 0243cfa845185aa5";
    "dense_pre 3x0x4 a5433b6f9afc1544";
    "dense_tanh 3x0x4 b8a03bea2138f3b3";
    "matmul 3x4x0 cbf29ce484222325";
    "matmul_nt 3x4x0 cbf29ce484222325";
    "dense_pre 3x4x0 cbf29ce484222325";
    "dense_tanh 3x4x0 cbf29ce484222325";
  ]

let test_c_matmul_digests () =
  List.iter
    (fun checked ->
      let prev = T.checked () in
      T.set_checked checked;
      Fun.protect ~finally:(fun () -> T.set_checked prev) @@ fun () ->
      Alcotest.(check (list string))
        (Printf.sprintf "C matmul digests (checked=%b)" checked)
        expected_c_matmul_digests
        (with_backend T.C64 c_matmul_digests))
    [ false; true ]

(* {2 C checked mode: length assertions run before the stub} *)

let test_c_checked_assertion () =
  let prev = T.checked () in
  T.set_checked true;
  Fun.protect ~finally:(fun () -> T.set_checked prev) @@ fun () ->
  let sentinel = 7.0 in
  let buf n v = Bigarray.Array1.init Bigarray.float64 Bigarray.c_layout n (fun _ -> v) in
  let untouched what d =
    for i = 0 to Bigarray.Array1.dim d - 1 do
      if not (Float.equal d.{i} sentinel) then
        Alcotest.failf "%s: stub wrote dst index %d" what i
    done
  in
  let raises what f =
    match f () with
    | () -> Alcotest.failf "%s: short buffer accepted" what
    | exception Invalid_argument _ -> ()
  in
  (* short first operand; dst is long enough, so a stub that ran would
     have overwritten the sentinels *)
  let dst = buf 8 sentinel in
  raises "add" (fun () ->
      (* pnnlint:allow R6 the test drives the C kernel below the Tensor shape checks *)
      Kernels_c.add (buf 5 1.0) (buf 8 1.0) dst 8);
  untouched "add" dst;
  raises "scale" (fun () ->
      (* pnnlint:allow R6 the test drives the C kernel below the Tensor shape checks *)
      Kernels_c.scale 2.0 (buf 8 1.0) (buf 7 sentinel) 8);
  (* matmul 3x4 · 4x5 with a 4x4 right operand *)
  let c = buf 15 sentinel in
  raises "matmul" (fun () ->
      (* pnnlint:allow R6 the test drives the C kernel below the Tensor shape checks *)
      Kernels_c.matmul (buf 12 1.0) (buf 16 1.0) c 3 4 5);
  untouched "matmul" c;
  (* and the same buffers at the right lengths pass *)
  (* pnnlint:allow R6 the test drives the C kernel below the Tensor shape checks *)
  Kernels_c.matmul (buf 12 1.0) (buf 20 1.0) c 3 4 5;
  Alcotest.(check (float 0.0)) "valid matmul ran" 4.0 c.{0}

let test_assembly () =
  agree "concat_cols" (fun () ->
      T.to_array (T.concat_cols (mk 5 3 1) (mk 5 4 2)));
  agree "concat_rows" (fun () ->
      T.to_array (T.concat_rows (mk 2 6 1) (mk 3 6 2)));
  agree "slice_rows" (fun () -> T.to_array (T.slice_rows (mk 9 4 1) 2 5));
  agree "slice_cols" (fun () -> T.to_array (T.slice_cols (mk 4 9 1) 3 4));
  agree "take_rows" (fun () ->
      T.to_array (T.take_rows (mk 8 3 1) [| 7; 0; 3; 3 |]));
  agree "row" (fun () -> T.to_array (T.row (mk 6 5 1) 4));
  agree "embed_cols_into" (fun () ->
      let d = T.ones 4 9 in
      T.embed_cols_into (mk 4 3 1) 2 ~dst:d;
      T.to_array d);
  agree "embed_rows_into" (fun () ->
      let d = T.ones 9 4 in
      T.embed_rows_into (mk 3 4 1) 5 ~dst:d;
      T.to_array d);
  agree "concat_cols_into" (fun () ->
      let d = T.zeros 5 7 in
      T.concat_cols_into (mk 5 3 1) (mk 5 4 2) ~dst:d;
      T.to_array d);
  agree "concat_rows_into" (fun () ->
      let d = T.zeros 5 6 in
      T.concat_rows_into (mk 2 6 1) (mk 3 6 2) ~dst:d;
      T.to_array d)

let all_unops = [ T.Tanh; T.Sigmoid; T.Exp; T.Log; T.Sqrt; T.Relu; T.Abs ]

let unop_name = function
  | T.Tanh -> "tanh"
  | T.Sigmoid -> "sigmoid"
  | T.Exp -> "exp"
  | T.Log -> "log"
  | T.Sqrt -> "sqrt"
  | T.Relu -> "relu"
  | T.Abs -> "abs"

let test_training_kernels () =
  List.iter
    (fun op ->
      let input r c s =
        match op with
        | T.Log | T.Sqrt -> mk_pos r c s
        | T.Exp -> T.scale 0.05 (mk r c s)  (* keep exp in range *)
        | _ -> mk r c s
      in
      agree ("unop " ^ unop_name op) (fun () ->
          let x = input 6 9 1 in
          let y = T.zeros_as x 6 9 in
          T.unop_into op x ~dst:y;
          T.to_array y);
      agree ("unop_bwd " ^ unop_name op) (fun () ->
          let x = input 6 9 1 in
          let y = T.zeros_as x 6 9 in
          T.unop_into op x ~dst:y;
          let g = mk 6 9 2 in
          let d = T.zeros_as x 6 9 in
          T.unop_bwd_into op ~x ~y ~g ~dst:d;
          T.to_array d))
    all_unops;
  agree "softmax_rows_into" (fun () ->
      let x = T.scale 0.1 (mk 7 5 1) in
      let d = T.zeros_as x 7 5 in
      T.softmax_rows_into x ~dst:d;
      T.to_array d);
  agree "ce_loss_sum" (fun () ->
      let logits = T.scale 0.1 (mk 7 5 1) in
      let probs = T.zeros_as logits 7 5 in
      T.softmax_rows_into logits ~dst:probs;
      let labels = T.init 7 5 (fun r c -> if c = r mod 5 then 1.0 else 0.0) in
      [| T.ce_loss_sum probs labels |]);
  agree "sgd_step" (fun () ->
      let v = mk 4 6 1 in
      T.sgd_step ~lr:0.03 ~grad:(mk 4 6 2) v;
      T.to_array v);
  agree "adam_step" (fun () ->
      let v = mk 4 6 1 in
      let m = Array.make 24 0.01 and s = Array.make 24 0.02 in
      T.adam_step ~lr:0.01 ~beta1:0.9 ~beta2:0.999 ~eps:1e-8 ~bc1:0.1
        ~bc2:0.001 ~m ~v:s ~grad:(mk 4 6 2) v;
      Array.concat [ T.to_array v; m; s ])

let test_rng_constructors () =
  agree "uniform" (fun () ->
      T.to_array (T.uniform (Rng.create 42) 6 7 ~lo:(-2.0) ~hi:3.0));
  agree "gaussian" (fun () ->
      T.to_array (T.gaussian (Rng.create 43) 6 7 ~mu:0.5 ~sigma:2.0))

(* {2 NaN and signed-zero edge semantics — satellite 1} *)

let nan_row () = T.of_array [| Float.nan; -0.0; 0.0; 1.0; -1.0 |]

let clamp_ste_row () =
  T.to_array
    (Autodiff.value
       (Autodiff.clamp_ste ~lo:(-0.5) ~hi:0.5 (Autodiff.const (nan_row ()))))

let test_clamp_nan_passthrough () =
  List.iter
    (fun be ->
      let c = with_backend be clamp_ste_row in
      if not (Float.is_nan c.(0)) then
        Alcotest.failf "%s: clamp_ste snapped NaN to %h" (T.backend_name be)
          c.(0))
    T.backends;
  agree "clamp_ste nan/-0.0" clamp_ste_row

let test_minmax_argmax_edges () =
  (* NaN accumulator propagates; NaN element is skipped; -0.0 vs 0.0 keeps
     the first encountered.  Both backends must agree bitwise. *)
  let cases =
    [
      ("nan first", [| Float.nan; 3.0; -7.0 |]);
      ("nan middle", [| 3.0; Float.nan; -7.0 |]);
      ("neg zero first", [| -0.0; 0.0; 0.0 |]);
      ("pos zero first", [| 0.0; -0.0; -0.0 |]);
      ("plain", [| 4.0; -2.0; 9.0; 9.0 |]);
    ]
  in
  List.iter
    (fun (name, data) ->
      agree ("min " ^ name) (fun () ->
          [| T.min_value (T.of_array (Array.copy data)) |]);
      agree ("max " ^ name) (fun () ->
          [| T.max_value (T.of_array (Array.copy data)) |]);
      agree ("argmax " ^ name) (fun () ->
          Array.map float_of_int
            (T.argmax_rows (T.of_array (Array.copy data)))))
    cases;
  (* a leading NaN is an incumbent nothing displaces *)
  List.iter
    (fun be ->
      with_backend be (fun () ->
          let am = T.argmax_rows (T.of_array [| Float.nan; 99.0 |]) in
          Alcotest.(check int)
            (T.backend_name be ^ ": argmax of leading-NaN row")
            0 am.(0)))
    T.backends

(* {2 Determinism within a backend} *)

let pipeline () =
  let a = mk 6 9 3 and b = mk 9 17 4 in
  let m = T.matmul a b in
  let t = T.zeros_as m 6 17 in
  T.unop_into T.Tanh m ~dst:t;
  let s = T.zeros_as t 6 17 in
  T.softmax_rows_into t ~dst:s;
  Array.concat [ T.to_array s; T.to_array (T.sum_rows s) ]

let test_within_backend_determinism () =
  List.iter
    (fun be ->
      let x = with_backend be pipeline in
      let y = with_backend be pipeline in
      check_bits ~what:(T.backend_name be ^ " repeat run") x y;
      let checked =
        with_backend be (fun () ->
            let prev = T.checked () in
            T.set_checked true;
            Fun.protect ~finally:(fun () -> T.set_checked prev) pipeline)
      in
      check_bits ~what:(T.backend_name be ^ " checked vs unchecked") x checked)
    T.backends

(* {2 Mixed-storage operands} *)

let test_mixed_storage () =
  let pure =
    with_backend T.Reference (fun () ->
        let a = mk 5 7 1 and b = mk 5 7 2 in
        T.to_array (T.add a b))
  in
  let mixed =
    with_backend T.Reference (fun () ->
        let a = mk 5 7 1 in
        with_backend T.C64 (fun () ->
            let b = mk 5 7 2 in
            let sum = T.add a b in
            (* result follows the first operand's backend *)
            if T.backend_of sum <> T.Reference then
              Alcotest.fail "mixed add (ref, c) did not follow first operand";
            T.to_array sum))
  in
  check_bits ~what:"mixed add (ref, c) = reference add" pure mixed;
  let pure_mm =
    with_backend T.Reference (fun () ->
        T.to_array (T.matmul (mk 4 6 1) (mk 6 9 2)))
  in
  let mixed_mm =
    with_backend T.C64 (fun () ->
        let b = mk 6 9 2 in
        with_backend T.Reference (fun () ->
            let a = mk 4 6 1 in
            T.to_array (T.matmul a b)))
  in
  (* mixed operands fall back to the reference kernels: bit-identical *)
  check_bits ~what:"mixed matmul (c, ref) = reference matmul" pure_mm mixed_mm

(* {2 Construction / surface} *)

(* Regression for the selection representation: [set_backend]/[set_checked]
   are Atomics, so a write made inside one domain is visible to another as
   soon as the writer is joined. *)
let test_selection_atomic_across_domains () =
  let prev_b = T.backend () and prev_c = T.checked () in
  Fun.protect ~finally:(fun () ->
      T.set_backend prev_b;
      T.set_checked prev_c)
  @@ fun () ->
  Domain.join
    (Domain.spawn (fun () ->
         T.set_backend T.C64;
         T.set_checked true));
  Alcotest.(check string)
    "backend set by a joined domain is visible" "c"
    (T.backend_name (T.backend ()));
  Alcotest.(check bool) "checked flag set by a joined domain is visible" true
    (T.checked ());
  (* and the other direction: our write is visible inside a fresh domain *)
  T.set_backend T.Reference;
  T.set_checked false;
  let seen =
    Domain.join (Domain.spawn (fun () -> (T.backend (), T.checked ())))
  in
  Alcotest.(check string)
    "backend visible inside a fresh domain" "reference"
    (T.backend_name (fst seen));
  Alcotest.(check bool) "checked visible inside a fresh domain" false
    (snd seen)

let test_surface () =
  List.iter
    (fun be ->
      with_backend be (fun () ->
          let name = T.backend_name be in
          (match T.backend_of_string name with
          | Some b when b = be -> ()
          | _ -> Alcotest.failf "backend_of_string (%s) not inverse" name);
          let t = T.create 2 3 [| 1.0; 2.0; 3.0; 4.0; 5.0; 6.0 |] in
          Alcotest.(check (array (float 0.0)))
            (name ^ ": create/to_array round-trip")
            [| 1.0; 2.0; 3.0; 4.0; 5.0; 6.0 |] (T.to_array t);
          (match T.backend_of t with
          | b when b = be -> ()
          | _ -> Alcotest.fail (name ^ ": constructor on wrong backend"));
          let z = T.zeros 2 2 in
          let a = T.to_array z in
          a.(0) <- 99.0;
          Alcotest.(check (float 0.0))
            (name ^ ": to_array is a copy")
            0.0 (T.get z 0 0);
          let c = T.copy t in
          T.set c 0 0 42.0;
          Alcotest.(check (float 0.0))
            (name ^ ": copy is deep")
            1.0 (T.get t 0 0)))
    T.backends;
  Alcotest.(check (list string))
    "backends catalogue matches the live list"
    [ "reference"; "c" ]
    (List.map T.backend_name T.backends);
  Alcotest.(check bool) "retired bigarray name is rejected" true
    (Option.is_none (T.backend_of_string "bigarray"));
  Alcotest.(check string) "reference tag" "ref"
    (with_backend T.Reference T.backend_tag);
  Alcotest.(check string) "c tag" "c64" (with_backend T.C64 T.backend_tag)

(* {2 Cache isolation — a warm cache of one backend never serves the other} *)

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let test_cache_isolation () =
  Alcotest.(check string) "reference schema" "pnn-save-2+ref"
    (with_backend T.Reference Pnn.Serialize.cache_schema);
  Alcotest.(check string) "c schema" "pnn-save-2+c64"
    (with_backend T.C64 Pnn.Serialize.cache_schema);
  let key_of () =
    Cache.key
      ~schema:(Pnn.Serialize.cache_schema ())
      ~kind:"btest" [ "config"; "seed 1" ]
  in
  let kref = with_backend T.Reference key_of in
  let kc = with_backend T.C64 key_of in
  if String.equal kref kc then Alcotest.fail "cache keys collide across backends";
  let dir = Filename.temp_dir "pnn_backend_cache" "" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let cache = Cache.create ~dir in
  let found key = Cache.find cache ~kind:"btest" ~key in
  Cache.store cache ~kind:"btest" ~key:kref [ "reference result" ];
  Alcotest.(check bool) "a warm +ref cache never serves a +c64 key" true
    (Option.is_none (found kc));
  Cache.store cache ~kind:"btest" ~key:kc [ "c result" ];
  Alcotest.(check (option (list string))) "c key addresses its own entry"
    (Some [ "c result" ]) (found kc);
  Alcotest.(check (option (list string))) "reference key still addresses its own entry"
    (Some [ "reference result" ]) (found kref)

(* {2 Fused hot-path kernels — fused vs decomposed bit-identity} *)

let fused_ops = [ None; Some T.Tanh; Some T.Relu; Some T.Sigmoid ]

let fused_op_name = function None -> "none" | Some u -> unop_name u

let fused_shapes = [ (1, 1, 1); (5, 7, 4); (3, 5, 9); (8, 8, 16); (0, 3, 4); (6, 2, 17) ]

let run_fused_dense () =
  List.concat_map
    (fun (m, k, n) ->
      List.concat_map
        (fun op ->
          let x = T.scale 0.05 (mk m k 1) in
          let w = T.scale 0.05 (mk k n 2) in
          let b = T.scale 0.05 (mk 1 n 3) in
          let pre = T.zeros m n and out = T.zeros m n in
          T.matmul_bias_unop_into ?op x w b ~pre ~out;
          [ T.to_array pre; T.to_array out ])
        fused_ops)
    fused_shapes
  |> Array.concat

let test_fused_dense () =
  List.iter
    (fun be ->
      with_backend be (fun () ->
          List.iter
            (fun (m, k, n) ->
              List.iter
                (fun op ->
                  let what =
                    Printf.sprintf "fused dense %s %dx%dx%d [%s]"
                      (fused_op_name op) m k n (T.backend_name be)
                  in
                  let x = T.scale 0.05 (mk m k 1) in
                  let w = T.scale 0.05 (mk k n 2) in
                  let b = T.scale 0.05 (mk 1 n 3) in
                  let pre = T.zeros m n and out = T.zeros m n in
                  T.matmul_bias_unop_into ?op x w b ~pre ~out;
                  (* decomposed oracle on the same backend *)
                  let pre2 = T.zeros m n in
                  T.matmul_into x w ~dst:pre2;
                  if m > 0 && n > 0 then T.add_rowvec_into pre2 b ~dst:pre2;
                  let out2 =
                    match op with
                    | None -> pre2
                    | Some u ->
                        let o = T.zeros m n in
                        T.unop_into u pre2 ~dst:o;
                        o
                  in
                  check_bits ~what:(what ^ " (pre)") (T.to_array pre2)
                    (T.to_array pre);
                  check_bits ~what:(what ^ " (out)") (T.to_array out2)
                    (T.to_array out);
                  (* sharing pre as out must work when no unop is applied *)
                  if op = None then begin
                    let shared = T.zeros m n in
                    T.matmul_bias_unop_into x w b ~pre:shared ~out:shared;
                    check_bits ~what:(what ^ " (pre==out)") (T.to_array out2)
                      (T.to_array shared)
                  end)
                fused_ops)
            fused_shapes))
    T.backends;
  (* the fused path must be bit-identical across checked/unchecked modes *)
  List.iter
    (fun be ->
      let plain = with_backend be run_fused_dense in
      let checked =
        with_backend be (fun () ->
            let prev = T.checked () in
            T.set_checked true;
            Fun.protect ~finally:(fun () -> T.set_checked prev) run_fused_dense)
      in
      check_bits
        ~what:(T.backend_name be ^ " fused dense checked vs unchecked")
        plain checked)
    T.backends

let test_fused_adam () =
  List.iter
    (fun be ->
      with_backend be (fun () ->
          let lr = 0.01 and beta1 = 0.9 and beta2 = 0.999 and eps = 1e-8 in
          let bc1 = 0.1 and bc2 = 0.001 in
          let mk_leaf s =
            (mk 3 4 s, mk 3 4 (s + 10), Array.make 12 0.01, Array.make 12 0.02)
          in
          let items = List.map mk_leaf [ 1; 2; 3 ] in
          let twins =
            List.map (fun (v, g, m, s) -> (T.copy v, g, Array.copy m, Array.copy s)) items
          in
          T.adam_step_many ~lr ~beta1 ~beta2 ~eps ~bc1 ~bc2 items;
          List.iter
            (fun (v, g, m, s) ->
              T.adam_step ~lr ~beta1 ~beta2 ~eps ~bc1 ~bc2 ~m ~v:s ~grad:g v)
            twins;
          List.iteri
            (fun i ((v, _, m, s), (v', _, m', s')) ->
              let what =
                Printf.sprintf "fused adam leaf %d [%s]" i (T.backend_name be)
              in
              check_bits ~what:(what ^ " value") (T.to_array v') (T.to_array v);
              check_bits ~what:(what ^ " m") m' m;
              check_bits ~what:(what ^ " v") s' s)
            (List.combine items twins)))
    T.backends

let test_fused_autodiff () =
  (* Autodiff.dense (one node) against the legacy 3-node chain: values and
     every gradient bit-identical, on every backend. *)
  let run be fused op_act =
    with_backend be (fun () ->
        let x = Autodiff.const (T.scale 0.05 (mk 4 6 1)) in
        let w = Autodiff.param (T.scale 0.05 (mk 6 3 2)) in
        let b = Autodiff.param (T.scale 0.05 (mk 1 3 3)) in
        let y =
          if fused then Autodiff.dense ?op:op_act x w b
          else
            let pre = Autodiff.add_rowvec (Autodiff.matmul x w) b in
            match op_act with
            | None -> pre
            | Some T.Tanh -> Autodiff.tanh pre
            | Some T.Sigmoid -> Autodiff.sigmoid pre
            | Some T.Relu -> Autodiff.relu pre
            | Some _ -> Alcotest.fail "unexpected unop"
        in
        let loss = Autodiff.mean (Autodiff.mul y y) in
        Autodiff.backward loss;
        Array.concat
          [
            T.to_array (Autodiff.value y);
            T.to_array (Autodiff.grad w);
            T.to_array (Autodiff.grad b);
          ])
  in
  List.iter
    (fun be ->
      List.iter
        (fun op ->
          check_bits
            ~what:
              (Printf.sprintf "autodiff dense %s [%s]" (fused_op_name op)
                 (T.backend_name be))
            (run be false op) (run be true op))
        fused_ops)
    T.backends

let () =
  Alcotest.run "backend"
    [
      ( "agreement",
        [
          Alcotest.test_case "elementwise" `Quick test_elementwise;
          Alcotest.test_case "reductions" `Quick test_reductions;
          Alcotest.test_case "matmul family" `Quick test_matmul_family;
          Alcotest.test_case "assembly" `Quick test_assembly;
          Alcotest.test_case "training kernels" `Quick test_training_kernels;
          Alcotest.test_case "rng constructors" `Quick test_rng_constructors;
          Alcotest.test_case "C matmul digests" `Quick test_c_matmul_digests;
        ] );
      ( "edges",
        [
          Alcotest.test_case "clamp_ste NaN pass-through" `Quick
            test_clamp_nan_passthrough;
          Alcotest.test_case "min/max/argmax NaN and -0.0" `Quick
            test_minmax_argmax_edges;
          Alcotest.test_case "C checked-mode length assertion" `Quick
            test_c_checked_assertion;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "bit-identity within backend" `Quick
            test_within_backend_determinism;
          Alcotest.test_case "mixed storage" `Quick test_mixed_storage;
        ] );
      ( "fused",
        [
          Alcotest.test_case "dense fused vs decomposed" `Quick test_fused_dense;
          Alcotest.test_case "adam fused vs per-leaf" `Quick test_fused_adam;
          Alcotest.test_case "autodiff dense node" `Quick test_fused_autodiff;
        ] );
      ( "surface",
        [
          Alcotest.test_case "construction and tags" `Quick test_surface;
          Alcotest.test_case "selection atomic across domains" `Quick
            test_selection_atomic_across_domains;
          Alcotest.test_case "cache isolation" `Quick test_cache_isolation;
        ] );
    ]
