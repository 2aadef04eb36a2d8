(* Cross-backend kernel agreement suite.

   The reference backend is the bit-identity oracle; the C-stub backend
   must agree with it bit-for-bit on every kernel, the matmul family
   included.  Each check builds its inputs *inside* the backend under test
   so the whole computation stays homogeneous; mixed-storage behavior gets
   its own test. *)

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

(* Run [f : unit -> float array] on both backends and compare C against
   the reference oracle. *)
let agree what f =
  let r = with_backend T.Reference f in
  let c = with_backend T.C64 f in
  check_bits ~what:(what ^ " [c]") r c

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
      agree (tag "matmul") (fun () ->
          T.to_array (T.matmul (mk m k 1) (mk k n 2)));
      agree (tag "matmul_nt") (fun () ->
          T.to_array (T.matmul_nt (mk m k 1) (mk n k 2)));
      agree (tag "matmul_into") (fun () ->
          let d = T.ones m n in
          T.matmul_into (mk m k 1) (mk k n 2) ~dst:d;
          T.to_array d))
    matmul_triples

(* Inputs for the matmul checks: [mk]'s values carry at most 20
   significant bits, so their short dot products are exact under every
   association and could not tell two associations apart; dividing by 3
   fills the mantissa. *)

let mk_full rows cols seed = T.map (fun x -> x /. 3.0) (mk rows cols seed)

let fnv1a64_from seed a =
  Array.fold_left
    (fun h x ->
      let bits = Int64.bits_of_float x in
      let h = ref h in
      for i = 0 to 7 do
        let byte = Int64.logand (Int64.shift_right_logical bits (8 * i)) 0xffL in
        h := Int64.mul (Int64.logxor !h byte) 0x100000001b3L
      done;
      !h)
    seed a

let fnv1a64 = fnv1a64_from 0xcbf29ce484222325L

(* {2 Reference matmul on special values}

   Shapes straddle the C stub's tile edges (n = 7/8/9, 15/16/17) and
   include empties; operands mix signed zeros, NaNs with distinct payloads,
   infinities, subnormals and exact-zero A entries. *)

let specials =
  [|
    0.0; -0.0; Float.nan; Int64.float_of_bits 0x7ff8000000000abcL;
    Int64.float_of_bits 0xfff0000000000123L; Float.infinity; Float.neg_infinity;
    4.9e-324; -2.2250738585072e-308; 1.0; -1.5; 3.0e300; -7.25e-3; 0.1;
  |]

(* Mostly ordinary values (so NaN does not swallow every row), with the
   specials and extra exact zeros sprinkled in by a hash of the index. *)
let mk_special rows cols seed =
  T.init rows cols (fun r c ->
      let i = (r * cols) + c + (seed * 7919) in
      let h = (i * 2654435761) land 0xffff in
      match h mod 7 with
      | 0 -> specials.(h / 7 mod Array.length specials)
      | 1 -> 0.0
      | _ -> (float_of_int h /. 655.36) -. 50.0)

(* FNV-1a over every output of the sweep below, in sweep order: the NaN
   payloads are part of the contract. *)
let expected_ref_matmul_specials_digest = "c857fd5a843aa239"

let test_ref_matmul_specials_digest () =
  with_backend T.Reference @@ fun () ->
  let digest = ref 0xcbf29ce484222325L in
  for m = 0 to 9 do
    for k = 0 to 20 do
      List.iter
        (fun n ->
          let a = mk_special m k (m + k) and b = mk_special k n (n + 3) in
          digest := fnv1a64_from !digest (T.to_array (T.matmul a b)))
        [ 0; 1; 7; 8; 9; 15; 16; 17; 48; 65 ]
    done
  done;
  Alcotest.(check string) "special-value sweep digest" expected_ref_matmul_specials_digest
    (Printf.sprintf "%016Lx" !digest)

(* FNV-1a digests of reference [matmul] on the serving network's crossbar
   shapes (64-row batch, 64-48-16 layers plus the bias row), captured from
   the naive loop: the reference backend is the bit-identity oracle, so
   these never change. *)
let expected_ref_matmul_digests =
  [ "matmul 64x65x48 cc0c36738e7b40ed"; "matmul 64x49x16 7e77d848a13cdc43" ]

let test_ref_matmul_digests () =
  let digests () =
    List.map
      (fun (m, k, n) ->
        Printf.sprintf "matmul %dx%dx%d %016Lx" m k n
          (fnv1a64 (T.to_array (T.matmul (mk_full m k 1) (mk_full k n 2)))))
      [ (64, 65, 48); (64, 49, 16) ]
  in
  Alcotest.(check (list string)) "reference matmul digests" expected_ref_matmul_digests
    (with_backend T.Reference digests)

(* {2 blit_changed: bitwise change detection without allocation} *)

let test_blit_changed () =
  List.iter
    (fun be ->
      with_backend be @@ fun () ->
      let what s = Printf.sprintf "%s [%s]" s (T.backend_name be) in
      let src = mk_special 5 13 1 in
      let dst = T.copy src in
      Alcotest.(check bool) (what "identical") false (T.blit_changed ~src ~dst);
      List.iter
        (fun (name, before, after) ->
          T.set dst 2 7 before;
          T.set src 2 7 after;
          Alcotest.(check bool) (what name) true (T.blit_changed ~src ~dst);
          check_bits ~what:(what (name ^ " copied")) (T.to_array src) (T.to_array dst);
          Alcotest.(check bool) (what (name ^ " again")) false (T.blit_changed ~src ~dst))
        [
          ("+0 over -0", -0.0, 0.0);
          ("NaN payload", Float.nan, Int64.float_of_bits 0x7ff8000000000abcL);
          ("ordinary value", 1.0, 1.0000000000000002);
        ];
      let before = Gc.minor_words () in
      for _ = 1 to 1000 do
        ignore (T.blit_changed ~src ~dst)
      done;
      let words = Gc.minor_words () -. before in
      if words > 64.0 then
        Alcotest.failf "%s: %.0f minor words over 1000 calls" (what "allocation") words)
    T.backends

(* {2 C length assertions run before the stub} *)

let test_c_length_assertion () =
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

(* C against the reference on two-NaN operands.  The per-element C
   kernels promise the reference's bits, NaN payloads and signs included;
   agreement tests on ordinary data cannot see which operand's NaN an
   instruction keeps.  [a] and [b] hold every ordered pair of the values
   below at the same index (NaNs of both signs and several payloads,
   signalling ones among them), the scalar-operand kernels (and each of
   ptanh's four η) run with every value as the scalar, and the backward
   kernels get [g = a] against [x = y = b]. *)
let nan_specials =
  Array.append specials
    [| -.Float.nan; Int64.float_of_bits 0x7ff0000000000456L; Int64.float_of_bits 0xfff8000000000defL |]

let test_c_vs_ref_two_nan () =
  let ns = Array.length nan_specials in
  let a () = T.init ns ns (fun i _ -> nan_specials.(i)) in
  let b () = T.init ns ns (fun _ j -> nan_specials.(j)) in
  let v () = T.init 1 ns (fun _ j -> nan_specials.(((j * 5) + 3) mod ns)) in
  let into f () =
    let d = T.zeros ns ns in
    f d;
    T.to_array d
  in
  agree "add" (fun () -> T.to_array (T.add (a ()) (b ())));
  agree "sub" (fun () -> T.to_array (T.sub (a ()) (b ())));
  agree "mul" (fun () -> T.to_array (T.mul (a ()) (b ())));
  agree "div" (fun () -> T.to_array (T.div (a ()) (b ())));
  agree "neg" (fun () -> T.to_array (T.neg (a ())));
  Array.iter
    (fun k ->
      let tag = Printf.sprintf " by %Lx" (bits k) in
      agree ("scale" ^ tag) (fun () -> T.to_array (T.scale k (a ())));
      agree ("add_scalar" ^ tag) (fun () -> T.to_array (T.add_scalar k (a ()))))
    nan_specials;
  agree "add_rowvec" (fun () -> T.to_array (T.add_rowvec (a ()) (v ())));
  agree "mul_rowvec" (fun () -> T.to_array (T.mul_rowvec (a ()) (v ())));
  agree "sum_rows" (fun () -> T.to_array (T.sum_rows (a ())));
  agree "sum_rows transposed" (fun () -> T.to_array (T.sum_rows (b ())));
  agree "sum" (fun () -> Array.init ns (fun i -> T.sum (T.row (a ()) i)));
  agree "dot" (fun () -> [| T.dot (a ()) (b ()); T.dot (b ()) (a ()) |]);
  agree "softmax_rows" (into (fun d -> T.softmax_rows_into (a ()) ~dst:d));
  agree "ce_loss_sum" (fun () -> [| T.ce_loss_sum (a ()) (T.map Float.abs (b ())) |]);
  (* ptanh: each value in each η slot, against every pair in v and g *)
  let base = [| 0.1; 0.8; 0.3; 2.5 |] in
  for slot = 0 to 3 do
    Array.iter
      (fun e ->
        let eta () = T.init 1 4 (fun _ j -> if j = slot then e else base.(j)) in
        let run () =
          let v = a () in
          let h = T.zeros ns ns and out = T.zeros ns ns in
          T.ptanh_into ~eta:(eta ()) v ~h ~dst:out;
          let dv = T.zeros ns ns and deta = T.zeros 1 4 in
          T.ptanh_bwd_into ~eta:(eta ()) v ~h ~g:(b ()) ~dv ~deta;
          Array.concat (List.map T.to_array [ h; out; dv; deta ])
        in
        agree (Printf.sprintf "ptanh eta.(%d) = %Lx" slot (bits e)) run)
      nan_specials
  done;
  List.iter
    (fun op ->
      agree ("unop " ^ unop_name op) (into (fun d -> T.unop_into op (a ()) ~dst:d));
      agree ("unop_bwd " ^ unop_name op)
        (into (fun d -> T.unop_bwd_into op ~x:(b ()) ~y:(b ()) ~g:(a ()) ~dst:d)))
    all_unops

(* {2 C matmul family = reference}

   The C matmul kernels vectorize in pure k order and recompute NaN
   outputs with the reference's rules; every output must carry the
   reference's bits.  Three sweeps, each run by C against the reference:
   - [matmul_triples] on full-mantissa data (tiles, tile + remainder,
     remainder only, empties), where any re-association would show;
   - every shape of the reference's special-value sweep on [mk_special]
     data (signed zeros, NaN payloads, infinities, subnormals and extra
     exact zeros in both operands);
   - square matrices over [nan_specials] whose output (i, j) multiplies
     value i by value j at k = 1, so each ordered pair meets once — exact
     zeros in A against ±inf and NaN in B among them — and whose longer k
     add NaN products of different payloads into a NaN accumulator.
   Each case runs [matmul], [matmul_nt] and the fused dense forward with
   and without tanh. *)

let matmul_family a b_kn b_nk v =
  let m = T.rows a and n = T.cols b_kn in
  let pre = T.zeros m n and out = T.zeros m n in
  T.matmul_bias_unop_into ~op:T.Tanh a b_kn v ~pre ~out;
  let plain = T.zeros m n in
  T.matmul_bias_unop_into a b_kn v ~pre:plain ~out:plain;
  [ T.matmul a b_kn; T.matmul_nt a b_nk; pre; out; plain ]
  |> List.map T.to_array |> Array.concat

let test_c_matmul_equals_reference () =
  List.iter
    (fun (m, k, n) ->
      agree (Printf.sprintf "full %dx%dx%d" m k n) (fun () ->
          matmul_family (mk_full m k 1) (mk_full k n 2) (mk_full n k 3)
            (mk_full 1 n 4)))
    matmul_triples;
  for m = 0 to 9 do
    for k = 0 to 20 do
      List.iter
        (fun n ->
          agree (Printf.sprintf "specials %dx%dx%d" m k n)
            (fun () ->
              matmul_family (mk_special m k (m + k)) (mk_special k n (n + 3))
                (mk_special n k (n + 5)) (mk_special 1 n 7)))
        [ 0; 1; 7; 8; 9; 15; 16; 17; 48; 65 ]
    done
  done;
  let ns = Array.length nan_specials in
  let s i = nan_specials.(i mod ns) in
  List.iter
    (fun k ->
      agree (Printf.sprintf "value pairs k=%d" k) (fun () ->
          matmul_family
            (T.init ns k (fun i p -> s (i + (3 * p))))
            (T.init k ns (fun p j -> s (j + (5 * p))))
            (T.init ns k (fun j p -> s (j + (5 * p))))
            (T.init 1 ns (fun _ j -> s ((7 * j) + 1)))))
    [ 1; 2; 3; 8; 9 ]

(* {2 The crossbar pair: C = reference}

   [T.crossbar_into]/[T.crossbar_bwd_into] on both backends: every output
   of both kernels (h, inv(x), the numerator, the output; the numerator's
   gradient, x's, η's and the conductances') must carry the reference's
   bits.  Shapes straddle the stub's four-row blocks (m = 1..9) and
   its 8-wide column tiles (n = 1, 3, 7 | 8 | 9, 17).  Three data sets:
   full mantissas, where any re-association would show; the same with
   signed zeros sprinkled in and nothing else special, which the C
   backward's plain body must get right on its own (a NaN output sends it
   to the pinned body); and [mk_special] (signed zeros, NaN payloads,
   infinities, subnormals and extra exact zeros in x, the conductances and
   the upstream gradient).  η is finite, or holds one of [nan_specials] in
   one slot, which reaches the bias column's once-per-call tanh. *)

let mk_signed_zeros rows cols seed scale =
  let full = mk_full rows cols seed in
  T.init rows cols (fun r c ->
      let i = (r * cols) + c + (seed * 7919) in
      match i mod 5 with
      | 0 -> if i mod 2 = 0 then 0.0 else -0.0
      | _ -> T.get full r c /. scale)

(* The forward's outputs (h, inv(x), the numerator, the output), then the
   backward's (the numerator's gradient, x's, η's, the conductances'). *)
let crossbar_outputs ~want_dx x eta cond g =
  let m = T.rows x and k = T.cols x and n = T.cols cond in
  let h = T.zeros m (k + 1) and inv_x = T.zeros m (k + 1) in
  let num = T.zeros m n and out = T.zeros m n in
  T.crossbar_into ~x ~eta ~cond ~h ~inv_x ~num ~dst:out;
  let gnum = T.ones m n and dx = T.ones m k in
  let deta = T.ones 1 4 and dcond = T.ones (T.rows cond) n in
  T.crossbar_bwd_into ~x ~eta ~cond ~h ~inv_x ~num ~g ~gnum
    ~dx:(if want_dx then Some dx else None)
    ~deta ~dcond;
  ([ h; inv_x; num; out ], [ gnum; dx; deta; dcond ])

let crossbar_run ~want_dx x eta cond g =
  let fwd, bwd = crossbar_outputs ~want_dx x eta cond g in
  List.map T.to_array (fwd @ bwd) |> Array.concat

let test_crossbar_c_equals_reference () =
  let base = [| 0.1; 0.8; 0.3; 2.5 |] in
  let ns = Array.length nan_specials in
  let case = ref 0 in
  for m = 1 to 9 do
    List.iter
      (fun n ->
        List.iter
          (fun k ->
            incr case;
            let c = !case in
            let slot = c mod 5 in
            let eta () =
              T.init 1 4 (fun _ j -> if j = slot then nan_specials.(c mod ns) else base.(j))
            in
            let tag data =
              Printf.sprintf "crossbar %s %dx%dx%d %s" data m k n
                (if slot = 4 then "finite eta" else Printf.sprintf "eta.(%d) special" slot)
            in
            let rows = (2 * (k + 1)) + 1 in
            agree (tag "full") (fun () ->
                crossbar_run ~want_dx:(c mod 2 = 0)
                  (T.map (fun v -> v /. 50.0) (mk_full m k c))
                  (eta ())
                  (T.map (fun v -> v /. 40.0) (mk_full rows n (c + 1)))
                  (mk_full m n (c + 2)));
            agree (tag "signed zeros") (fun () ->
                crossbar_run ~want_dx:true (mk_signed_zeros m k c 50.0) (eta ())
                  (mk_signed_zeros rows n (c + 1) 40.0)
                  (mk_signed_zeros m n (c + 2) 1.0));
            agree (tag "specials") (fun () ->
                crossbar_run ~want_dx:(c mod 2 = 1) (mk_special m k c) (eta ())
                  (mk_special rows n (c + 1))
                  (mk_special m n (c + 2))))
          [ 1; 4 ])
      [ 1; 3; 7; 8; 9; 17 ]
  done;
  (* A NaN that reaches x's share alone: θ⁺'s first row holds two NaN
     payloads, x's first column is all zeros (so the reference's skip of
     exact-zero terms keeps the numerator finite) and the first column of
     the upstream gradient is zero (so the reference skips the first NaN
     and keeps the second, where bare arithmetic keeps the first).  Every
     other output is finite, so only the check of x's share sends the C
     backward to its pinned body. *)
  agree "crossbar NaN in x's share only" (fun () ->
      let x =
        T.init 6 3 (fun r c ->
            if c > 0 then (float_of_int ((r * 3) + c) /. 7.0) -. 1.0
            else if r mod 2 = 0 then 0.0
            else -0.0)
      in
      let cond =
        T.init 9 2 (fun r c ->
            match (r, c) with
            | 0, 0 -> Int64.float_of_bits 0x7ff8000000000abcL
            | 0, 1 -> Int64.float_of_bits 0xfff8000000000defL
            | _ -> 0.25 +. (float_of_int ((r * 2) + c) /. 11.0))
      in
      let g = T.init 6 2 (fun r c -> if c = 0 then 0.0 else float_of_int (r + 1) /. 3.0) in
      crossbar_run ~want_dx:true x (T.of_array base) cond g);
  (* every special in every η slot, on one shape *)
  for slot = 0 to 3 do
    Array.iter
      (fun e ->
        agree
          (Printf.sprintf "crossbar eta.(%d) = %Lx" slot (bits e))
          (fun () ->
            crossbar_run ~want_dx:true
              (T.map (fun v -> v /. 50.0) (mk_full 6 3 1))
              (T.init 1 4 (fun _ j -> if j = slot then e else base.(j)))
              (T.map (fun v -> v /. 40.0) (mk_full 9 4 2))
              (mk_special 6 4 3)))
      nan_specials
  done

(* {2 Reference kernels on special values: pinned digests}

   FNV-1a digests of the reference's outputs, captured when each hot
   kernel still had a second, unchecked loop body (the production path at
   the time, the one every golden was recorded on) and the two bodies were
   compared bit for bit.  They pin the one body left to those bits, NaN
   payloads included.  Operands: [specials] in every ordered pair at the
   same index, [nan_specials] likewise (signalling NaNs and NaNs of both
   signs among them) with each value as the scalar operand and in each η
   slot; the backward kernels get [g = a] against [x = y = b]. *)

let expected_ref_special_digests =
  [
    "add 325fd03412eb6c5e";
    "sub 339dc810ba9c0c23";
    "mul 040e542a79bfdef9";
    "div 7715d2e4625354e0";
    "neg 965ed49cd91248d0";
    "scale 73d36b6b974662bb";
    "add_scalar 0280dd946df2f580";
    "add_rowvec a63edbe774d60f4e";
    "mul_rowvec 374411d0fc941955";
    "transpose 1e01edf4ee80bf91";
    "sum_rows 4ade3d4a4154a917";
    "sum dot e54869eec077eec7";
    "matmul_nt c1b10b1da84bcc89";
    "softmax_rows 13a06b8854228a61";
    "ce_loss_sum aa95a93229a20fc0";
    "unop tanh 251f04a0a7893015";
    "unop_bwd tanh 53b534a9872ba2c1";
    "unop sigmoid f9ce88c1b35be7f9";
    "unop_bwd sigmoid 030da54aa756efb8";
    "unop exp 95995e988dd9eba5";
    "unop_bwd exp 040e542a79bfdef9";
    "unop log bf6dfc40792f579d";
    "unop_bwd log b9f4128d5d5e0648";
    "unop sqrt 84100637a476fff1";
    "unop_bwd sqrt 22644b0e031b0584";
    "unop relu 21c67a09eebad1a1";
    "unop_bwd relu d7c8e5698c39f900";
    "unop abs c1600773edfe5575";
    "unop_bwd abs ab605a2a34ea33f8";
    "ptanh 48512ca0c717ed79";
    "ptanh_bwd 912b52afacd5c855";
    "crossbar de134ccd2d26b953";
    "crossbar_bwd a942c0496e8f9512";
  ]

let ref_special_digests () =
  with_backend T.Reference @@ fun () ->
  let pin what outs =
    Printf.sprintf "%s %016Lx" what
      (List.fold_left fnv1a64_from 0xcbf29ce484222325L outs)
  in
  let t what xs = pin what (List.map T.to_array xs) in
  let ns = Array.length specials in
  let a = T.init ns ns (fun i _ -> specials.(i)) in
  let b = T.init ns ns (fun _ j -> specials.(j)) in
  let v = T.init 1 ns (fun _ j -> specials.(((j * 5) + 3) mod ns)) in
  let into f =
    let d = T.zeros ns ns in
    f d;
    d
  in
  let nn = Array.length nan_specials in
  let s i = nan_specials.(i mod nn) in
  let na = T.init nn nn (fun i _ -> nan_specials.(i)) in
  let nb = T.init nn nn (fun _ j -> nan_specials.(j)) in
  let by_scalar f = List.map f (Array.to_list nan_specials) in
  let base = [| 0.1; 0.8; 0.3; 2.5 |] in
  (* base η, then every value of [nan_specials] in every slot *)
  let etas =
    T.of_array base
    :: List.concat_map
         (fun slot ->
           by_scalar (fun e -> T.init 1 4 (fun _ j -> if j = slot then e else base.(j))))
         [ 0; 1; 2; 3 ]
  in
  let ptanh =
    List.map
      (fun eta ->
        let h = T.zeros nn nn and out = T.zeros nn nn in
        T.ptanh_into ~eta na ~h ~dst:out;
        let dv = T.zeros nn nn and deta = T.zeros 1 4 in
        T.ptanh_bwd_into ~eta na ~h ~g:nb ~dv ~deta;
        ([ h; out ], [ dv; deta ]))
      etas
  in
  let crossbar =
    List.concat_map
      (fun eta ->
        [
          crossbar_outputs ~want_dx:true
            (T.init nn 3 (fun i p -> s (i + (3 * p))))
            eta
            (T.init 9 nn (fun r j -> s (j + (5 * r))))
            (T.init nn nn (fun i j -> s (i + (7 * j))));
          crossbar_outputs ~want_dx:true
            (T.map (fun x -> x /. 50.0) (mk_full 6 3 1))
            eta
            (T.map (fun x -> x /. 40.0) (mk_full 9 4 2))
            (mk_special 6 4 3);
        ])
      etas
  in
  [
    t "add" [ T.add a b ];
    t "sub" [ T.sub a b ];
    t "mul" [ T.mul a b ];
    t "div" [ T.div a b ];
    t "neg" [ T.neg na ];
    t "scale" (by_scalar (fun k -> T.scale k na));
    t "add_scalar" (by_scalar (fun k -> T.add_scalar k na));
    t "add_rowvec" [ T.add_rowvec a v ];
    t "mul_rowvec" [ T.mul_rowvec a v ];
    t "transpose" [ T.transpose (T.init nn (nn + 3) (fun i j -> s ((i * 5) + j))) ];
    t "sum_rows" [ T.sum_rows a; T.sum_rows nb ];
    pin "sum dot" [ Array.init nn (fun i -> T.sum (T.row na i)); [| T.dot na nb; T.dot nb na |] ];
    t "matmul_nt" [ T.matmul_nt a b ];
    t "softmax_rows" [ into (fun d -> T.softmax_rows_into a ~dst:d) ];
    pin "ce_loss_sum" [ [| T.ce_loss_sum na (T.map Float.abs nb) |] ];
  ]
  @ List.concat_map
      (fun op ->
        [
          t ("unop " ^ unop_name op) [ into (fun d -> T.unop_into op a ~dst:d) ];
          t ("unop_bwd " ^ unop_name op) [ into (fun d -> T.unop_bwd_into op ~x:b ~y:b ~g:a ~dst:d) ];
        ])
      all_unops
  @ [
      t "ptanh" (List.concat_map fst ptanh);
      t "ptanh_bwd" (List.concat_map snd ptanh);
      t "crossbar" (List.concat_map fst crossbar);
      t "crossbar_bwd" (List.concat_map snd crossbar);
    ]

let test_ref_special_digests () =
  Alcotest.(check (list string))
    "reference special-value digests" expected_ref_special_digests (ref_special_digests ())

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

(* Noise draws fill the active backend's storage directly; the RNG stream
   and the row-major draw order must not depend on the backend. *)
let test_noise_draws () =
  let draws () =
    Pnn.Noise.draw_many (Rng.create 44) ~epsilon:0.1 ~theta_shapes:[ (6, 3); (5, 3) ] ~n:4
    |> List.concat_map (List.concat_map (fun (l : Pnn.Noise.layer_noise) ->
           [ l.Pnn.Noise.theta; l.Pnn.Noise.act_omega; l.Pnn.Noise.neg_omega ]))
  in
  List.iter
    (fun be ->
      List.iter
        (fun t ->
          if T.backend_of t <> be then
            Alcotest.failf "noise draw not on the active backend (%s)" (T.backend_name be))
        (with_backend be draws))
    T.backends;
  agree "Noise.draw_many" (fun () -> Array.concat (List.map T.to_array (draws ())))

(* {2 NaN and signed-zero edge semantics — satellite 1} *)

(* The printable-ω map clips R2 = R1·k1 into its Table-I box with a
   straight-through estimator.  A NaN product passes the clip unchanged (the
   comparison chain [if x < lo then lo else if x > hi then hi else x] is
   false both ways), so a fault is never masked as a bound.  A NaN raw k1
   makes R1·k1 NaN while R1 itself stays finite. *)
let omega_row () =
  let nl = Pnn.Nonlinear.create (Fixtures.surrogate ()) in
  T.blit
    ~src:(T.of_array [| 0.0; -0.0; 0.0; 1.0; -1.0; Float.nan; 0.5 |])
    ~dst:(Autodiff.value (Pnn.Nonlinear.raw_param nl));
  T.to_array (Autodiff.value (Pnn.Nonlinear.printable_omega nl ~noise:(T.ones 1 7)))

let test_clip_nan_passthrough () =
  List.iter
    (fun be ->
      let o = with_backend be omega_row in
      if Float.is_nan o.(0) || not (Float.is_nan o.(1)) then
        Alcotest.failf "%s: R1 = %h, clipped R2 = %h (expected finite, NaN)"
          (T.backend_name be) o.(0) o.(1))
    T.backends;
  agree "printable omega NaN clip" omega_row

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
      check_bits ~what:(T.backend_name be ^ " repeat run") x y)
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
  check_bits ~what:"mixed matmul (c, ref) = reference matmul" pure_mm mixed_mm;
  let xbar () =
    crossbar_run ~want_dx:true (mk_special 5 3 1) (T.of_array [| 0.1; 0.8; 0.3; 2.5 |])
      (mk_special 9 4 2) (mk_special 5 4 3)
  in
  let mixed_xbar =
    (* x (and the outputs) on C, the other operands on the reference *)
    with_backend T.C64 (fun () ->
        let x = mk_special 5 3 1 in
        with_backend T.Reference (fun () ->
            crossbar_run ~want_dx:true x (T.of_array [| 0.1; 0.8; 0.3; 2.5 |])
              (mk_special 9 4 2) (mk_special 5 4 3)))
  in
  check_bits ~what:"mixed crossbar (c x) = reference crossbar"
    (with_backend T.Reference xbar) mixed_xbar

(* {2 Construction / surface} *)

(* Regression for the selection representation: [set_backend] is an
   Atomic, so a write made inside one domain is visible to another as soon
   as the writer is joined. *)
let test_selection_atomic_across_domains () =
  let prev = T.backend () in
  Fun.protect ~finally:(fun () -> T.set_backend prev) @@ fun () ->
  (* write the backend that is not active, so the check cannot pass by
     default *)
  let other = if prev = T.C64 then T.Reference else T.C64 in
  Domain.join (Domain.spawn (fun () -> T.set_backend other));
  Alcotest.(check string)
    "backend set by a joined domain is visible" (T.backend_name other)
    (T.backend_name (T.backend ()));
  (* and the other direction: our write is visible inside a fresh domain *)
  T.set_backend prev;
  Alcotest.(check string)
    "backend visible inside a fresh domain" (T.backend_name prev)
    (T.backend_name (Domain.join (Domain.spawn T.backend)))

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
    (Option.is_none (T.backend_of_string "bigarray"))

(* {2 One cache schema across backends}

   Both backends compute the same bits, so they share one schema and one
   key space: an entry one backend computed serves the other.  The entry
   here is a printed network's loss and parameter gradients under a noise
   draw, whose backward pass runs every matmul kernel. *)

let loss_grads_entry () =
  let config = Pnn.Config.default in
  let net =
    Pnn.Network.create_deep (Rng.create 5) config (Fixtures.surrogate ()) ~sizes:[ 4; 3; 3 ]
  in
  let rng = Rng.create 6 in
  let x = T.uniform rng 24 4 ~lo:0.0 ~hi:1.0 in
  let labels = T.init 24 3 (fun r c -> if r mod 3 = c then 1.0 else 0.0) in
  let noise =
    Pnn.Noise.draw rng ~epsilon:0.1 ~theta_shapes:(Pnn.Network.theta_shapes net)
  in
  let loss, grads = Pnn.Network.draw_loss_and_grads net ~noise ~x ~labels in
  Printf.sprintf "%h" loss
  :: List.map
       (fun g ->
         String.concat " " (Array.to_list (Array.map (Printf.sprintf "%h") (T.to_array g))))
       grads

let test_one_schema () =
  List.iter
    (fun be ->
      Alcotest.(check string)
        (T.backend_name be ^ " schema")
        "pnn-save-2+ref"
        (with_backend be Pnn.Serialize.cache_schema))
    T.backends;
  let key_of () =
    Cache.key ~schema:(Pnn.Serialize.cache_schema ()) ~kind:"btest" [ "config"; "seed 1" ]
  in
  let key = with_backend T.Reference key_of in
  Alcotest.(check string) "keys are equal" key (with_backend T.C64 key_of);
  let dir = Filename.temp_dir "pnn_backend_cache" "" in
  Fun.protect ~finally:(fun () -> Fixtures.rm_rf dir) @@ fun () ->
  let cache = Cache.create ~dir in
  Cache.store cache ~kind:"btest" ~key (with_backend T.Reference loss_grads_entry);
  let served = with_backend T.C64 (fun () -> Cache.find cache ~kind:"btest" ~key:(key_of ())) in
  Alcotest.(check (option (list string)))
    "a reference entry served to a C run equals a cold C compute"
    (Some (with_backend T.C64 loss_grads_entry))
    served

(* {2 Fused hot-path kernels — fused vs decomposed bit-identity} *)

let fused_ops = [ None; Some T.Tanh; Some T.Relu; Some T.Sigmoid ]

let fused_op_name = function None -> "none" | Some u -> unop_name u

let fused_shapes = [ (1, 1, 1); (5, 7, 4); (3, 5, 9); (8, 8, 16); (0, 3, 4); (6, 2, 17) ]

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
          Alcotest.test_case "C vs reference on two-NaN operands" `Quick
            test_c_vs_ref_two_nan;
          Alcotest.test_case "rng constructors" `Quick test_rng_constructors;
          Alcotest.test_case "noise draws" `Quick test_noise_draws;
          Alcotest.test_case "C matmul family = reference" `Quick
            test_c_matmul_equals_reference;
          Alcotest.test_case "C crossbar pair = reference" `Quick
            test_crossbar_c_equals_reference;
          Alcotest.test_case "reference matmul special-value digest" `Quick
            test_ref_matmul_specials_digest;
          Alcotest.test_case "reference matmul digests" `Quick test_ref_matmul_digests;
          Alcotest.test_case "reference special-value digests" `Quick
            test_ref_special_digests;
        ] );
      ( "edges",
        [
          Alcotest.test_case "R2 clip NaN pass-through" `Quick
            test_clip_nan_passthrough;
          Alcotest.test_case "min/max/argmax NaN and -0.0" `Quick
            test_minmax_argmax_edges;
          Alcotest.test_case "C length assertion runs before the stub" `Quick
            test_c_length_assertion;
          Alcotest.test_case "blit_changed" `Quick test_blit_changed;
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
          Alcotest.test_case "one schema across backends" `Quick test_one_schema;
        ] );
    ]
