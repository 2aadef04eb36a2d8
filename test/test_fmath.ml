(* Fmath's tanh: accuracy against the host's libm, the exact special
   cases, agreement of its three bodies, and a digest of a sweep's output
   bits.  The digest depends on the source alone: a host with another libm
   or CPU must reproduce it. *)

let bits = Int64.bits_of_float

(* ulp distance between two doubles of the same sign *)
let ulps a b = Int64.abs (Int64.sub (bits a) (bits b))

let same_bits what a b =
  if not (Int64.equal (bits a) (bits b)) then
    Alcotest.failf "%s: %h (%Lx) vs %h (%Lx)" what a (bits a) b (bits b)

(* The sweep: [dense] points evenly spaced over [−25, 25], and for every
   binade of either sign (subnormals included) [per_binade] mantissas
   spread over it. *)
let dense = 1_000_001
let per_binade = 32

let sweep =
  lazy
    (let d = Array.init dense (fun i -> -25.0 +. (50.0 *. float_of_int i /. float_of_int (dense - 1))) in
     let b =
       Array.init (2 * 2047 * per_binade) (fun i ->
           let sign = if i land 1 = 0 then 0L else Int64.min_int in
           let j = i / 2 in
           let exp = Int64.of_int (j / per_binade) in
           let mant = Int64.of_int ((j mod per_binade * 0xf_ffff_ffff_ffff / per_binade) + 1) in
           Int64.float_of_bits (Int64.logor sign (Int64.logor (Int64.shift_left exp 52) mant)))
     in
     Array.append d b)

let max_ulp_against_libm () =
  let worst = ref 0L and at = ref 0.0 in
  Array.iter
    (fun x ->
      let e = ulps (Fmath.tanh x) (Stdlib.tanh x) in
      if Int64.compare e !worst > 0 then begin
        worst := e;
        at := x
      end)
    (Lazy.force sweep);
  (!worst, !at)

let test_accuracy () =
  let worst, at = max_ulp_against_libm () in
  Printf.printf "Fmath.tanh: largest error against libm %Ld ulp (at %h) over %d points\n" worst
    at
    (Array.length (Lazy.force sweep));
  if Int64.compare worst 4L > 0 then
    Alcotest.failf "Fmath.tanh is %Ld ulp from libm at %h (bound 4)" worst at

let test_specials () =
  same_bits "+0" 0.0 (Fmath.tanh 0.0);
  same_bits "-0" (-0.0) (Fmath.tanh (-0.0));
  same_bits "+inf" 1.0 (Fmath.tanh Float.infinity);
  same_bits "-inf" (-1.0) (Fmath.tanh Float.neg_infinity);
  List.iter
    (fun x ->
      same_bits (Printf.sprintf "tanh %h" x) (Float.copy_sign 1.0 x) (Fmath.tanh x))
    [ 22.0; -22.0; 22.5; 700.0; -1e300; Float.max_float; -.Float.max_float ];
  (* subnormals, the smallest normal and tiny x come back unchanged *)
  List.iter
    (fun x -> same_bits (Printf.sprintf "tanh %h" x) x (Fmath.tanh x))
    [
      4.9406564584124654e-324; -4.9406564584124654e-324; 0x1.fffffffffffffp-1023;
      -0x0.8p-1022; Float.min_float; -.Float.min_float; 1e-300; -1e-20; 0x1.fffffp-28;
    ];
  (* NaN: quieted, sign and payload kept *)
  List.iter
    (fun nan_bits ->
      let want = Int64.logor nan_bits 0x0008000000000000L in
      let got = bits (Fmath.tanh (Int64.float_of_bits nan_bits)) in
      if not (Int64.equal want got) then Alcotest.failf "tanh of NaN %Lx: %Lx, want %Lx" nan_bits got want)
    [ 0x7ff8000000000000L; 0xfff8000000000000L; 0x7ff0000000000001L; 0xfff4000000000abcL ]

let test_odd () =
  Array.iter
    (fun x ->
      let y = Fmath.tanh x and ny = Fmath.tanh (-.x) in
      if not (Int64.equal (bits ny) (bits (-.y))) then
        Alcotest.failf "tanh(-x) <> -tanh(x) at %h: %h vs %h" x ny y)
    (Lazy.force sweep)

let set_wide wide =
  (* pnnlint:allow R6 the test selects Fmath's array body below the Tensor layer *)
  Kernels_c.set_wide_tiles wide

(* Values with every special case and both sides of each select. *)
let mixed =
  [|
    0.3; -1.7; 0.0; -0.0; 1.0; 0.999999; 22.0; -21.999; Float.nan; Float.infinity; 1e-310;
    -0x1p-27; 0x1.fffffp-28; 5.5; -0.01; Float.neg_infinity; 0.34657359; -2.5; 13.0;
  |]

(* At every length 0–9 and every start into [mixed] (so each lane position
   meets each value), the scalar body mapped over the array, the 128-bit
   body and the 256-bit body give the same bits, tail included. *)
let test_bodies_agree () =
  let wide_available = set_wide true in
  Fun.protect
    ~finally:(fun () -> ignore (set_wide true))
    (fun () ->
      for n = 0 to 9 do
        for start = 0 to Array.length mixed - 1 do
          let a = Array.init n (fun i -> mixed.((start + i) mod Array.length mixed)) in
          let scalar = Array.map Fmath.tanh a in
          List.iter
            (fun wide ->
              ignore (set_wide wide);
              let v = Array.copy a in
              Fmath.tanh_array v;
              Array.iteri
                (fun i y ->
                  same_bits
                    (Printf.sprintf "n=%d start=%d i=%d %s" n start i
                       (if wide && wide_available then "256-bit" else "128-bit"))
                    scalar.(i) y)
                v)
            [ true; false ]
        done
      done)

(* Every body over the whole sweep, against the scalar body. *)
let test_bodies_sweep () =
  let s = Lazy.force sweep in
  let scalar = Array.map Fmath.tanh s in
  Fun.protect
    ~finally:(fun () -> ignore (set_wide true))
    (fun () ->
      List.iter
        (fun wide ->
          ignore (set_wide wide);
          let v = Array.copy s in
          Fmath.tanh_array v;
          Array.iteri (fun i y -> same_bits (Printf.sprintf "sweep %h" s.(i)) scalar.(i) y) v)
        [ true; false ])

let fnv1a64 a =
  Array.fold_left
    (fun h x ->
      let b = bits x in
      let h = ref h in
      for i = 0 to 7 do
        let byte = Int64.logand (Int64.shift_right_logical b (8 * i)) 0xffL in
        h := Int64.mul (Int64.logxor !h byte) 0x100000001b3L
      done;
      !h)
    0xcbf29ce484222325L a

(* The sweep's output bits, pinned: no libm is involved, so this digest
   holds on any host. *)
let test_digest () =
  Alcotest.(check string)
    "sweep digest" "e9fa1cec461b3898"
    (Printf.sprintf "%Lx" (fnv1a64 (Array.map Fmath.tanh (Lazy.force sweep))))

let () =
  Alcotest.run "fmath"
    [
      ( "tanh",
        [
          Alcotest.test_case "accuracy against libm" `Quick test_accuracy;
          Alcotest.test_case "special values exact" `Quick test_specials;
          Alcotest.test_case "odd, bit for bit" `Quick test_odd;
          Alcotest.test_case "three bodies, lengths 0-9" `Quick test_bodies_agree;
          Alcotest.test_case "three bodies, sweep" `Quick test_bodies_sweep;
          Alcotest.test_case "sweep digest" `Quick test_digest;
        ] );
    ]
