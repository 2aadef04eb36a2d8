(* Tests for the EGT compact transistor model. *)

module E = Circuit.Egt

let p = E.default

(* The model at one bias point, through the allocation-free entry the
   simulator uses; the scratch carries the outputs. *)
let evaluate p ~w_um ~l_um ~vgs ~vds =
  let s = E.scratch () in
  s.E.vgs <- vgs;
  s.E.vds <- vds;
  E.evaluate_into p ~w_um ~l_um s;
  s

let test_zero_vds_zero_current () =
  let e = evaluate p ~w_um:400.0 ~l_um:40.0 ~vgs:0.5 ~vds:0.0 in
  Alcotest.(check (float 1e-15)) "I(vds=0) = 0" 0.0 e.E.id

let test_off_below_threshold () =
  let e = evaluate p ~w_um:400.0 ~l_um:40.0 ~vgs:(-0.5) ~vds:0.5 in
  Alcotest.(check bool) "subthreshold current tiny" true (Float.abs e.E.id < 1e-9)

let test_monotone_in_vgs () =
  let prev = ref neg_infinity in
  for i = 0 to 20 do
    let vgs = float_of_int i *. 0.05 in
    let e = evaluate p ~w_um:400.0 ~l_um:40.0 ~vgs ~vds:0.5 in
    if e.E.id < !prev -. 1e-15 then Alcotest.failf "not monotone in vgs at %.2f" vgs;
    prev := e.E.id
  done

let test_monotone_in_vds () =
  let prev = ref neg_infinity in
  for i = 0 to 20 do
    let vds = float_of_int i *. 0.05 in
    let e = evaluate p ~w_um:400.0 ~l_um:40.0 ~vgs:0.4 ~vds in
    if e.E.id < !prev -. 1e-15 then Alcotest.failf "not monotone in vds at %.2f" vds;
    prev := e.E.id
  done

let test_scales_with_geometry () =
  let narrow = evaluate p ~w_um:200.0 ~l_um:40.0 ~vgs:0.4 ~vds:0.5 in
  let wide = evaluate p ~w_um:800.0 ~l_um:40.0 ~vgs:0.4 ~vds:0.5 in
  Alcotest.(check (float 1e-12)) "I proportional to W" (4.0 *. narrow.E.id) wide.E.id;
  let long = evaluate p ~w_um:200.0 ~l_um:80.0 ~vgs:0.4 ~vds:0.5 in
  Alcotest.(check (float 1e-12)) "I inversely proportional to L" (narrow.E.id /. 2.0)
    long.E.id

let test_antisymmetry () =
  (* source/drain swap: I(vgs, vds) with vds < 0 equals -I+(vgs - vds, -vds);
     so I(0.1, -0.3) = -I+(0.4, 0.3) *)
  let fwd = evaluate p ~w_um:400.0 ~l_um:40.0 ~vgs:0.4 ~vds:0.3 in
  let rev = evaluate p ~w_um:400.0 ~l_um:40.0 ~vgs:0.1 ~vds:(-0.3) in
  Alcotest.(check (float 1e-15)) "swap symmetry" fwd.E.id (-.rev.E.id)

let test_invalid_geometry () =
  Alcotest.check_raises "bad W" (Invalid_argument "Egt.evaluate_into: non-positive geometry")
    (fun () -> ignore (evaluate p ~w_um:0.0 ~l_um:40.0 ~vgs:0.0 ~vds:0.0))

(* derivative checks vs central differences *)
let deriv_check ~vgs ~vds =
  let h = 1e-6 in
  let f ~vgs ~vds = (evaluate p ~w_um:400.0 ~l_um:40.0 ~vgs ~vds).E.id in
  let e = evaluate p ~w_um:400.0 ~l_um:40.0 ~vgs ~vds in
  let gm_num = (f ~vgs:(vgs +. h) ~vds -. f ~vgs:(vgs -. h) ~vds) /. (2.0 *. h) in
  let gds_num = (f ~vgs ~vds:(vds +. h) -. f ~vgs ~vds:(vds -. h)) /. (2.0 *. h) in
  let rel a b = Float.abs (a -. b) /. Stdlib.max 1e-9 (Stdlib.max (Float.abs a) (Float.abs b)) in
  if rel e.E.gm gm_num > 1e-3 then
    Alcotest.failf "gm mismatch at (%.2f, %.2f): %g vs %g" vgs vds e.E.gm gm_num;
  if rel e.E.gds gds_num > 1e-3 then
    Alcotest.failf "gds mismatch at (%.2f, %.2f): %g vs %g" vgs vds e.E.gds gds_num

let test_derivatives () =
  List.iter
    (fun (vgs, vds) -> deriv_check ~vgs ~vds)
    [ (0.3, 0.5); (0.5, 0.1); (0.1, 0.8); (0.6, 0.6); (0.05, 0.4); (0.4, 0.9) ]

let test_gds_positive () =
  (* positive output conductance everywhere the device conducts: needed for
     Newton stability *)
  for i = 1 to 10 do
    for j = 1 to 10 do
      let vgs = float_of_int i *. 0.1 and vds = float_of_int j *. 0.1 in
      let e = evaluate p ~w_um:400.0 ~l_um:40.0 ~vgs ~vds in
      if e.E.gds < 0.0 then Alcotest.failf "negative gds at (%.1f, %.1f)" vgs vds
    done
  done

let qcheck_current_bounded =
  QCheck.Test.make ~name:"current stays physical (< 100 mA)" ~count:500
    QCheck.(
      quad (float_range 200.0 800.0) (float_range 10.0 70.0) (float_range (-1.0) 1.5)
        (float_range (-1.0) 1.0))
    (fun (w, l, vgs, vds) ->
      let e = evaluate p ~w_um:w ~l_um:l ~vgs ~vds in
      Float.abs e.E.id < 0.1 && Float.is_finite e.E.gm && Float.is_finite e.E.gds)

let () =
  Alcotest.run "egt"
    [
      ( "model",
        [
          Alcotest.test_case "zero vds" `Quick test_zero_vds_zero_current;
          Alcotest.test_case "off below threshold" `Quick test_off_below_threshold;
          Alcotest.test_case "monotone vgs" `Quick test_monotone_in_vgs;
          Alcotest.test_case "monotone vds" `Quick test_monotone_in_vds;
          Alcotest.test_case "geometry scaling" `Quick test_scales_with_geometry;
          Alcotest.test_case "antisymmetry" `Quick test_antisymmetry;
          Alcotest.test_case "invalid geometry" `Quick test_invalid_geometry;
          Alcotest.test_case "derivatives" `Quick test_derivatives;
          Alcotest.test_case "gds positive" `Quick test_gds_positive;
          QCheck_alcotest.to_alcotest qcheck_current_bounded;
        ] );
    ]
