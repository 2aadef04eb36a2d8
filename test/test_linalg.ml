(* Tests for the dense linear solver. *)

module L = Circuit.Linalg

let feq = Alcotest.(check (float 1e-9))

(* Solves on copies, so a case can reuse its system. *)
let solve a b = L.solve_in_place (Array.map Array.copy a) (Array.copy b)

(* max_i |(a·x - b)_i| *)
let residual_norm a x b =
  let worst = ref 0.0 in
  Array.iteri
    (fun i row ->
      let acc = ref 0.0 in
      Array.iteri (fun j v -> acc := !acc +. (v *. x.(j))) row;
      let e = Float.abs (!acc -. b.(i)) in
      if e > !worst then worst := e)
    a;
  !worst

let test_identity () =
  let a = [| [| 1.0; 0.0 |]; [| 0.0; 1.0 |] |] in
  let x = solve a [| 3.0; -4.0 |] in
  feq "x0" 3.0 x.(0);
  feq "x1" (-4.0) x.(1)

let test_known_2x2 () =
  (* 2x + y = 5 ; x - y = 1  => x = 2, y = 1 *)
  let a = [| [| 2.0; 1.0 |]; [| 1.0; -1.0 |] |] in
  let x = solve a [| 5.0; 1.0 |] in
  feq "x" 2.0 x.(0);
  feq "y" 1.0 x.(1)

let test_pivoting_required () =
  (* zero on the leading diagonal forces a row swap *)
  let a = [| [| 0.0; 1.0 |]; [| 1.0; 0.0 |] |] in
  let x = solve a [| 7.0; 9.0 |] in
  feq "x" 9.0 x.(0);
  feq "y" 7.0 x.(1)

let test_singular () =
  let a = [| [| 1.0; 2.0 |]; [| 2.0; 4.0 |] |] in
  Alcotest.check_raises "singular" (Failure "Linalg.solve: singular") (fun () ->
      ignore (solve a [| 1.0; 2.0 |]))

let test_random_systems () =
  let rng = Rng.create 77 in
  for _ = 1 to 50 do
    let n = 1 + Rng.int rng 10 in
    let a =
      Array.init n (fun _ -> Array.init n (fun _ -> Rng.uniform rng ~lo:(-5.0) ~hi:5.0))
    in
    (* diagonally dominate to avoid accidental singularity *)
    Array.iteri (fun i row -> row.(i) <- row.(i) +. 20.0) a;
    let b = Array.init n (fun _ -> Rng.uniform rng ~lo:(-5.0) ~hi:5.0) in
    let x = solve a b in
    let r = residual_norm a x b in
    if r > 1e-8 then Alcotest.failf "residual %g too large (n=%d)" r n
  done

let qcheck_solve_residual =
  QCheck.Test.make ~name:"solve leaves small residual" ~count:100
    QCheck.(pair small_int (int_range 1 8))
    (fun (seed, n) ->
      let rng = Rng.create seed in
      let a =
        Array.init n (fun i ->
            Array.init n (fun j ->
                Rng.uniform rng ~lo:(-3.0) ~hi:3.0 +. if i = j then 12.0 else 0.0))
      in
      let b = Array.init n (fun _ -> Rng.uniform rng ~lo:(-3.0) ~hi:3.0) in
      let x = solve a b in
      residual_norm a x b < 1e-8)


(* {2 Pinned bits of [solve_in_place]}

   [Mna.newton] factors its stamped system in place and restamps it by
   index on the next iteration, so the contract of [solve_in_place] is
   more than its solution: the rows it leaves in [a] (their order is the
   pivot permutation), the factors written into them, the state it leaves
   behind when it raises, and the IEEE corners of its pivot rule (NaN
   never wins a pivot, the first of two equal |pivots| wins, a ±0.0
   elimination factor skips its row, the singular test is [|pivot| <
   1e-300]).  Each case is hashed with FNV-1a 64 over the IEEE bit
   patterns of: the solution (or a marker for the exception), every row
   left in [a], [b], and the original index of each row now in [a].  The
   digests were captured before any edit to the solver's body; a mismatch
   means an edit changed an operation or its order.  Never edit the
   digests to make this test pass. *)

let fnv_offset = 0xcbf29ce484222325L

let fnv_floats h a =
  Array.fold_left
    (fun h x ->
      let bits = Int64.bits_of_float x in
      let h = ref h in
      for i = 0 to 7 do
        let byte = Int64.logand (Int64.shift_right_logical bits (8 * i)) 0xffL in
        h := Int64.mul (Int64.logxor !h byte) 0x100000001b3L
      done;
      !h)
    h a

(* Run [solve_in_place] on copies of [(a, b)] and hash everything it
   leaves behind.  The row permutation is read by physical identity. *)
let solve_digest h a b =
  let rows = Array.map Array.copy a and b' = Array.copy b in
  let a' = Array.copy rows in
  let h =
    match L.solve_in_place a' b' with
    | x ->
        assert (x == b');
        fnv_floats h x
    | exception Failure msg ->
        assert (msg = "Linalg.solve: singular");
        fnv_floats h [| infinity; neg_infinity |]
  in
  let perm =
    Array.map
      (fun row ->
        let rec find i = if rows.(i) == row then i else find (i + 1) in
        float_of_int (find 0))
      a'
  in
  let h = fnv_floats h perm in
  let h = Array.fold_left fnv_floats h a' in
  fnv_floats h b'

let hex h = Printf.sprintf "%016Lx" h

let random_dense rng n count =
  let h = ref fnv_offset in
  for _ = 1 to count do
    let a = Array.init n (fun _ -> Array.init n (fun _ -> Rng.uniform rng ~lo:(-5.0) ~hi:5.0)) in
    let b = Array.init n (fun _ -> Rng.uniform rng ~lo:(-5.0) ~hi:5.0) in
    h := solve_digest !h a b
  done;
  hex !h

(* MNA-shaped: a symmetric conductance block over [nodes] non-ground
   nodes with a sparse off-diagonal, and [sources] voltage-source rows and
   columns of ±1 with a zero diagonal block, so the leading diagonal of a
   source row is 0 and the pivot search has to swap. *)
let random_mna rng ~nodes ~sources =
  let n = nodes + sources in
  let a = Array.make_matrix n n 0.0 in
  for i = 0 to nodes - 1 do
    for j = i + 1 to nodes - 1 do
      if Rng.uniform rng ~lo:0.0 ~hi:1.0 < 0.35 then begin
        let g = 10.0 ** Rng.uniform rng ~lo:(-6.0) ~hi:(-2.0) in
        a.(i).(j) <- a.(i).(j) -. g;
        a.(j).(i) <- a.(j).(i) -. g;
        a.(i).(i) <- a.(i).(i) +. g;
        a.(j).(j) <- a.(j).(j) +. g
      end
    done;
    a.(i).(i) <- a.(i).(i) +. 1e-12
  done;
  for s = 0 to sources - 1 do
    let node = Rng.int rng nodes in
    a.(node).(nodes + s) <- 1.0;
    a.(nodes + s).(node) <- 1.0
  done;
  let b = Array.init n (fun i -> if i < nodes then 0.0 else Rng.uniform rng ~lo:0.0 ~hi:1.0) in
  (a, b)

let mna_digest () =
  let rng = Rng.create 11 in
  let h = ref fnv_offset in
  for _ = 1 to 200 do
    let nodes = 3 + Rng.int rng 6 in
    let sources = 1 + Rng.int rng 3 in
    let a, b = random_mna rng ~nodes ~sources in
    h := solve_digest !h a b
  done;
  hex !h

let nan' = Float.nan

(* Hand-written corner systems: each is hashed on its own, so a failure
   names the corner; its last field is the expected digest. *)
let corners =
  [
    ("empty", [||], [||], "cbf29ce484222325");
    ("1x1", [| [| 4.0 |] |], [| 2.0 |], "0b15aaa4bc4855f5");
    (* NaN in the pivot column: never chosen, and a NaN on the diagonal is
       kept (every comparison with it is false) *)
    ("nan below pivot", [| [| 1.0; 2.0; 0.5 |]; [| nan'; 1.0; 3.0 |]; [| 2.0; -1.0; 1.0 |] |],
      [| 1.0; 2.0; 3.0 |], "e7752d38593bb56c");
    ("nan on pivot", [| [| nan'; 2.0; 0.5 |]; [| 3.0; 1.0; 3.0 |]; [| 2.0; -1.0; 1.0 |] |],
      [| 1.0; 2.0; 3.0 |], "a250d8e1d1655d05");
    ("nan in rhs", [| [| 2.0; 1.0 |]; [| 1.0; 3.0 |] |], [| nan'; 1.0 |], "7a71f0df360778c1");
    (* |3| = |-3|: the first of the tied rows is the pivot *)
    ("pivot tie", [| [| 1.0; 2.0; 0.5 |]; [| 3.0; 1.0; 3.0 |]; [| -3.0; -1.0; 1.0 |] |],
      [| 1.0; 2.0; 3.0 |], "c49f3ba759959966");
    ("pivot tie 4x4",
      [| [| 0.0; 1.0; 2.0; 3.0 |]; [| -2.0; 1.0; 0.0; 1.0 |]; [| 2.0; 5.0; 1.0; 0.0 |];
         [| 2.0; 0.0; 1.0; 7.0 |] |],
      [| 1.0; -1.0; 2.0; 0.5 |], "6a13a82cb1ea6034");
    (* the singular test is |pivot| < 1e-300 *)
    ("pivot 1e-300", [| [| 1e-300; 0.0 |]; [| 0.0; 1.0 |] |], [| 1.0; 1.0 |], "277d91684e34d890");
    ("pivot above 1e-300", [| [| Float.succ 1e-300; 0.0 |]; [| 0.0; 1.0 |] |], [| 1.0; 1.0 |],
      "831a9c4bb755622f");
    ("pivot below 1e-300", [| [| Float.pred 1e-300; 0.0 |]; [| 0.0; 1.0 |] |], [| 1.0; 1.0 |],
      "fa70e04358e8815d");
    ("negative pivot below 1e-300", [| [| -.Float.pred 1e-300; 0.0 |]; [| 0.0; 1.0 |] |],
      [| 1.0; 1.0 |], "c321842c221392dd");
    (* singular only after a swap and an elimination step: the exception
       leaves a partly factored [a] behind *)
    ("late singular", [| [| 1.0; 2.0; 3.0 |]; [| 2.0; 4.0; 6.0 |]; [| 1.0; 0.0; 1.0 |] |],
      [| 1.0; 2.0; 3.0 |], "9ddb48a9b40c3790");
    ("zero column", [| [| 0.0; 1.0 |]; [| 0.0; 2.0 |] |], [| 1.0; 1.0 |], "69a43f2fa7e3ed25");
    (* an exact ±0.0 factor skips the row: the -0.0 stays in place, and the
       infinity in the pivot row never meets the 0.0 factor *)
    ("zero factor", [| [| 2.0; infinity; 1.0 |]; [| 0.0; 1.0; 2.0 |]; [| 1.0; 1.0; 1.0 |] |],
      [| 1.0; 2.0; 3.0 |], "5ce750c75d5bf2d5");
    ("negative zero factor",
      [| [| 2.0; 1.0; nan' |]; [| -0.0; 1.0; 2.0 |]; [| 1.0; 3.0; 1.0 |] |], [| 1.0; 2.0; 3.0 |],
      "b6cdd8ef2dfc7d35");
    ("zero factor from underflow", [| [| 1e300; 1.0 |]; [| 1e-300; 1.0 |] |], [| 1.0; 1.0 |],
      "7fd6958e9544ca57");
    (* an infinity in the factors, and signed zeros through the back
       substitution *)
    ("infinite entry", [| [| 1.0; infinity |]; [| 2.0; 1.0 |] |], [| 1.0; 0.0 |],
      "24958cdedb166ab8");
    ("signed zeros", [| [| -1.0; 0.0 |]; [| 0.0; 1.0 |] |], [| 0.0; -0.0 |], "26e3d8c399609a78");
    (* a full reversal: every step swaps *)
    ("anti-diagonal",
      [| [| 0.0; 0.0; 0.0; 1.0 |]; [| 0.0; 0.0; 2.0; 0.0 |]; [| 0.0; 3.0; 0.0; 0.0 |];
         [| 4.0; 0.0; 0.0; 0.0 |] |],
      [| 1.0; 2.0; 3.0; 4.0 |], "25e4615a65e5bce5");
  ]

let test_pinned_random () =
  Alcotest.(check string) "4x4" "948449aa5a7d2927" (random_dense (Rng.create 3) 4 500);
  Alcotest.(check string) "8x8" "f93f98c63d4cd012" (random_dense (Rng.create 4) 8 300);
  Alcotest.(check string) "mna-shaped" "ebad79ff164b4b4b" (mna_digest ())

let test_pinned_corners () =
  List.iter
    (fun (name, a, b, expected) ->
      Alcotest.(check string) name expected (hex (solve_digest fnv_offset a b)))
    corners

let test_pinned_permutation () =
  (* the contract read directly: the rows in [a] are the caller's row
     arrays, permuted, and a tie goes to the first row *)
  let r0 = [| 1.0; 2.0; 0.5 |] and r1 = [| 3.0; 1.0; 3.0 |] and r2 = [| -3.0; -1.0; 1.0 |] in
  let a = [| r0; r1; r2 |] in
  ignore (L.solve_in_place a [| 1.0; 2.0; 3.0 |]);
  Alcotest.(check bool) "first tied row pivots" true (a.(0) == r1);
  Alcotest.(check bool) "rows are permuted, not copied" true
    (List.for_all (fun r -> Array.exists (fun r' -> r' == r) a) [ r0; r1; r2 ]);
  Alcotest.check_raises "below 1e-300" (Failure "Linalg.solve: singular") (fun () ->
      ignore (L.solve_in_place [| [| Float.pred 1e-300 |] |] [| 1.0 |]));
  Alcotest.check_raises "non-square" (Invalid_argument "Linalg.solve: non-square system")
    (fun () -> ignore (L.solve_in_place [| [| 1.0 |] |] [| 1.0; 2.0 |]))

let () =
  Alcotest.run "linalg"
    [
      ( "solve",
        [
          Alcotest.test_case "identity" `Quick test_identity;
          Alcotest.test_case "known 2x2" `Quick test_known_2x2;
          Alcotest.test_case "pivoting" `Quick test_pivoting_required;
          Alcotest.test_case "singular" `Quick test_singular;
          Alcotest.test_case "random systems" `Quick test_random_systems;
          QCheck_alcotest.to_alcotest qcheck_solve_residual;
        ] );
      ( "pinned",
        [
          Alcotest.test_case "random systems" `Quick test_pinned_random;
          Alcotest.test_case "corners" `Quick test_pinned_corners;
          Alcotest.test_case "permutation" `Quick test_pinned_permutation;
        ] );
    ]
