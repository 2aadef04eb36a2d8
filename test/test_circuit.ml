(* Tests for the parametric ptanh circuit and netlist utilities. *)

module N = Circuit.Netlist
module P = Circuit.Ptanh_circuit

let mid_omega = [| 255.0; 127.0; 255e3; 127e3; 255e3; 500.0; 40.0 |]

let test_omega_roundtrip () =
  let o = P.omega_of_array mid_omega in
  Alcotest.(check (array (float 0.0)))
    "roundtrip" mid_omega
    [| o.P.r1; o.P.r2; o.P.r3; o.P.r4; o.P.r5; o.P.w_um; o.P.l_um |]

let test_omega_of_array_invalid () =
  Alcotest.check_raises "wrong length"
    (Invalid_argument "Ptanh_circuit.omega_of_array: need 7 values") (fun () ->
      ignore (P.omega_of_array [| 1.0 |]))

let test_build_validates () =
  let nl, out = P.build (P.omega_of_array mid_omega) in
  (match N.validate nl with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "invalid netlist: %s" msg);
  Alcotest.(check bool) "output node allocated" true (out > 0 && out < N.node_count nl)

let test_transfer_rising_tanh_like () =
  let _, vout = P.transfer (P.omega_of_array mid_omega) in
  let n = Array.length vout in
  Alcotest.(check int) "default points" 41 n;
  (* overall rising *)
  Alcotest.(check bool) "rises" true (vout.(n - 1) > vout.(0) +. 0.2);
  (* bounded by the supply *)
  Array.iter
    (fun v ->
      if v < -0.01 || v > P.vdd +. 0.01 then Alcotest.failf "out of rails: %f" v)
    vout;
  (* monotone non-decreasing (within numerical tolerance) *)
  for i = 0 to n - 2 do
    if vout.(i + 1) < vout.(i) -. 1e-6 then Alcotest.failf "not monotone at %d" i
  done

let test_transfer_responds_to_r5 () =
  let weak = Array.copy mid_omega in
  weak.(4) <- 15e3;
  let _, strong_out = P.transfer (P.omega_of_array mid_omega) in
  let _, weak_out = P.transfer (P.omega_of_array weak) in
  let range a = Array.fold_left max a.(0) a -. Array.fold_left min a.(0) a in
  Alcotest.(check bool) "smaller load -> smaller swing" true
    (range weak_out < range strong_out)

let test_transfer_responds_to_divider () =
  (* a smaller k1 (R2 << R1) shifts the transition to larger Vin *)
  let shifted = Array.copy mid_omega in
  shifted.(1) <- 30.0;
  let vin, base_out = P.transfer (P.omega_of_array mid_omega) in
  let _, shifted_out = P.transfer (P.omega_of_array shifted) in
  let mid_crossing vout =
    let lo = Array.fold_left min vout.(0) vout and hi = Array.fold_left max vout.(0) vout in
    let target = (lo +. hi) /. 2.0 in
    let idx = ref 0 in
    (try
       Array.iteri
         (fun i v ->
           if v >= target then begin
             idx := i;
             raise Exit
           end)
         vout
     with Exit -> ());
    vin.(!idx)
  in
  Alcotest.(check bool) "transition shifts right" true
    (mid_crossing shifted_out > mid_crossing base_out)

let test_netlist_set_source () =
  let nl = N.create () in
  let a = N.fresh_node nl in
  N.add nl (N.Vsource { name = "x"; plus = a; minus = N.ground; volts = 1.0 });
  N.set_source nl "x" 2.5;
  (match N.elements nl with
  | [ N.Vsource { volts; _ } ] -> Alcotest.(check (float 0.0)) "updated" 2.5 volts
  | _ -> Alcotest.fail "unexpected netlist");
  Alcotest.check_raises "unknown source" Not_found (fun () -> N.set_source nl "y" 0.0)

let test_netlist_validate_errors () =
  let cases =
    [
      ( "bad resistance",
        fun nl ->
          let a = N.fresh_node nl in
          N.add nl (N.Resistor { a; b = N.ground; ohms = -5.0 }) );
      ( "duplicate source",
        fun nl ->
          let a = N.fresh_node nl in
          N.add nl (N.Vsource { name = "v"; plus = a; minus = N.ground; volts = 1.0 });
          N.add nl (N.Vsource { name = "v"; plus = a; minus = N.ground; volts = 2.0 }) );
      ( "bad geometry",
        fun nl ->
          let a = N.fresh_node nl in
          N.add nl
            (N.Transistor { gate = a; drain = a; source = N.ground; w_um = -1.0; l_um = 1.0 })
      );
    ]
  in
  List.iter
    (fun (name, build) ->
      let nl = N.create () in
      build nl;
      match N.validate nl with
      | Error _ -> ()
      | Ok () -> Alcotest.failf "%s: expected validation error" name)
    cases

let test_netlist_duplicate_error_deterministic () =
  (* regression: validate's duplicate-name check keeps its seen-table
     membership-only and walks elements in insertion order, so the reported
     duplicate is the first one in element order, stably across calls *)
  let nl = N.create () in
  let a = N.fresh_node nl in
  N.add nl (N.Vsource { name = "vb"; plus = a; minus = N.ground; volts = 1.0 });
  N.add nl (N.Vsource { name = "va"; plus = a; minus = N.ground; volts = 1.0 });
  N.add nl (N.Vsource { name = "vb"; plus = a; minus = N.ground; volts = 2.0 });
  N.add nl (N.Vsource { name = "va"; plus = a; minus = N.ground; volts = 2.0 });
  let run () =
    match N.validate nl with
    | Error msg -> msg
    | Ok () -> Alcotest.fail "expected a duplicate-source error"
  in
  let first = run () in
  Alcotest.(check string)
    "first duplicate in element order wins" "duplicate source name vb" first;
  for _ = 1 to 5 do
    Alcotest.(check string) "stable across repeated validation" first (run ())
  done

let test_linspace () =
  let a = Circuit.Dc_sweep.linspace 0.0 1.0 5 in
  Alcotest.(check (array (float 1e-12))) "linspace" [| 0.0; 0.25; 0.5; 0.75; 1.0 |] a;
  Alcotest.check_raises "n < 2" (Invalid_argument "Dc_sweep.linspace: need n >= 2")
    (fun () -> ignore (Circuit.Dc_sweep.linspace 0.0 1.0 1))

let qcheck_transfer_bounded =
  (* any feasible design point produces a bounded transfer curve *)
  QCheck.Test.make ~name:"transfer curves stay within rails" ~count:25
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let rng = Rng.create seed in
      let raw =
        Array.mapi
          (fun i lo ->
            Rng.uniform rng ~lo ~hi:Surrogate.Design_space.learnable_hi.(i))
          Surrogate.Design_space.learnable_lo
      in
      let omega = Surrogate.Design_space.assemble raw in
      match P.transfer ~points:11 (P.omega_of_array omega) with
      | exception Circuit.Mna.No_convergence _ -> true (* acceptable, filtered upstream *)
      | _, vout -> Array.for_all (fun v -> v >= -0.05 && v <= P.vdd +. 0.05) vout)

let () =
  Alcotest.run "circuit"
    [
      ( "ptanh circuit",
        [
          Alcotest.test_case "omega roundtrip" `Quick test_omega_roundtrip;
          Alcotest.test_case "omega invalid" `Quick test_omega_of_array_invalid;
          Alcotest.test_case "build validates" `Quick test_build_validates;
          Alcotest.test_case "rising tanh-like" `Quick test_transfer_rising_tanh_like;
          Alcotest.test_case "responds to R5" `Quick test_transfer_responds_to_r5;
          Alcotest.test_case "responds to divider" `Quick test_transfer_responds_to_divider;
          QCheck_alcotest.to_alcotest qcheck_transfer_bounded;
        ] );
      ( "netlist",
        [
          Alcotest.test_case "set_source" `Quick test_netlist_set_source;
          Alcotest.test_case "validate errors" `Quick test_netlist_validate_errors;
          Alcotest.test_case "duplicate error deterministic" `Quick
            test_netlist_duplicate_error_deterministic;
          Alcotest.test_case "linspace" `Quick test_linspace;
        ] );
      ( "spice export",
        [
          Alcotest.test_case "cards present" `Quick (fun () ->
              let nl, _ = P.build (P.omega_of_array mid_omega) in
              let text = Circuit.Spice_export.to_spice nl in
              let contains needle =
                let n = String.length needle and h = String.length text in
                let rec go i = i + n <= h && (String.sub text i n = needle || go (i + 1)) in
                go 0
              in
              List.iter
                (fun card ->
                  if not (contains card) then Alcotest.failf "missing card %S" card)
                [ "Vvin"; "Vvdd"; "R1 "; "B1 "; "B2 "; ".end" ]);
          Alcotest.test_case "dc sweep card" `Quick (fun () ->
              let text = Circuit.Spice_export.ptanh_circuit (P.omega_of_array mid_omega) in
              let contains needle =
                let n = String.length needle and h = String.length text in
                let rec go i = i + n <= h && (String.sub text i n = needle || go (i + 1)) in
                go 0
              in
              Alcotest.(check bool) "has .dc" true (contains ".dc Vvin");
              Alcotest.(check bool) "ends with .end" true
                (String.length text > 5
                && String.sub text (String.length text - 5) 5 = ".end\n"));
          Alcotest.test_case "resistor count" `Quick (fun () ->
              let nl, _ = P.build (P.omega_of_array mid_omega) in
              let text = Circuit.Spice_export.to_spice nl in
              let lines = String.split_on_char '\n' text in
              let resistors =
                List.length
                  (List.filter (fun l -> String.length l > 0 && l.[0] = 'R') lines)
              in
              Alcotest.(check int) "6 resistors in the 2-stage circuit" 6 resistors);
        ] );
    ]
