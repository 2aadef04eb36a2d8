(* Tests for the nonlinear MNA solver. *)

module N = Circuit.Netlist
module M = Circuit.Mna

let model = Circuit.Egt.default
let feq = Alcotest.(check (float 1e-6))

let test_voltage_divider () =
  let nl = N.create () in
  let top = N.fresh_node nl in
  let mid = N.fresh_node nl in
  N.add nl (N.Vsource { name = "v"; plus = top; minus = N.ground; volts = 10.0 });
  N.add nl (N.Resistor { a = top; b = mid; ohms = 1000.0 });
  N.add nl (N.Resistor { a = mid; b = N.ground; ohms = 3000.0 });
  let sol = M.solve model nl in
  feq "divider" 7.5 sol.M.voltages.(mid)

let test_series_parallel () =
  (* 6V across 1k in series with (2k || 2k) -> node voltage = 6 * 1k / 2k = 3 *)
  let nl = N.create () in
  let top = N.fresh_node nl in
  let mid = N.fresh_node nl in
  N.add nl (N.Vsource { name = "v"; plus = top; minus = N.ground; volts = 6.0 });
  N.add nl (N.Resistor { a = top; b = mid; ohms = 1000.0 });
  N.add nl (N.Resistor { a = mid; b = N.ground; ohms = 2000.0 });
  N.add nl (N.Resistor { a = mid; b = N.ground; ohms = 2000.0 });
  let sol = M.solve model nl in
  feq "series-parallel" 3.0 sol.M.voltages.(mid)

let test_two_sources () =
  let nl = N.create () in
  let a = N.fresh_node nl in
  let b = N.fresh_node nl in
  N.add nl (N.Vsource { name = "va"; plus = a; minus = N.ground; volts = 5.0 });
  N.add nl (N.Vsource { name = "vb"; plus = b; minus = N.ground; volts = 2.0 });
  N.add nl (N.Resistor { a; b; ohms = 1000.0 });
  let sol = M.solve model nl in
  feq "source a pinned" 5.0 sol.M.voltages.(a);
  feq "source b pinned" 2.0 sol.M.voltages.(b)

let test_floating_source_stack () =
  (* stacked sources: 3V + 2V in series -> top node at 5V *)
  let nl = N.create () in
  let mid = N.fresh_node nl in
  let top = N.fresh_node nl in
  N.add nl (N.Vsource { name = "v1"; plus = mid; minus = N.ground; volts = 3.0 });
  N.add nl (N.Vsource { name = "v2"; plus = top; minus = mid; volts = 2.0 });
  N.add nl (N.Resistor { a = top; b = N.ground; ohms = 500.0 });
  let sol = M.solve model nl in
  feq "stack" 5.0 sol.M.voltages.(top)

let test_invalid_netlist () =
  let nl = N.create () in
  N.add nl (N.Resistor { a = 0; b = 5; ohms = 100.0 });
  match M.solve model nl with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected invalid netlist error"

let test_inverter_inverts () =
  (* common-source stage: gate up -> drain down *)
  let build vg =
    let nl = N.create () in
    let vdd = N.fresh_node nl in
    let gate = N.fresh_node nl in
    let drain = N.fresh_node nl in
    N.add nl (N.Vsource { name = "vdd"; plus = vdd; minus = N.ground; volts = 1.0 });
    N.add nl (N.Vsource { name = "vg"; plus = gate; minus = N.ground; volts = vg });
    N.add nl (N.Resistor { a = vdd; b = drain; ohms = 200_000.0 });
    N.add nl
      (N.Transistor { gate; drain; source = N.ground; w_um = 500.0; l_um = 20.0 });
    let sol = M.solve model nl in
    sol.M.voltages.(drain)
  in
  let off = build 0.0 and on = build 1.0 in
  (* the smooth subthreshold model leaks a little, so "high" is ~0.88 here *)
  Alcotest.(check bool) "off output high" true (off > 0.85);
  Alcotest.(check bool) "on output low" true (on < 0.3);
  (* monotone decreasing along the way *)
  let prev = ref infinity in
  for i = 0 to 10 do
    let v = build (float_of_int i *. 0.1) in
    if v > !prev +. 1e-9 then Alcotest.failf "inverter not monotone at step %d" i;
    prev := v
  done

let test_kcl_residual () =
  (* at the solution, net current into each internal node is ~0 *)
  let nl = N.create () in
  let vdd = N.fresh_node nl in
  let gate = N.fresh_node nl in
  let drain = N.fresh_node nl in
  N.add nl (N.Vsource { name = "vdd"; plus = vdd; minus = N.ground; volts = 1.0 });
  N.add nl (N.Vsource { name = "vg"; plus = gate; minus = N.ground; volts = 0.35 });
  N.add nl (N.Resistor { a = vdd; b = drain; ohms = 100_000.0 });
  N.add nl (N.Transistor { gate; drain; source = N.ground; w_um = 400.0; l_um = 30.0 });
  let sol = M.solve model nl in
  let v = sol.M.voltages in
  let i_r = (v.(vdd) -. v.(drain)) /. 100_000.0 in
  let e = Circuit.Egt.scratch () in
  e.Circuit.Egt.vgs <- v.(gate);
  e.Circuit.Egt.vds <- v.(drain);
  Circuit.Egt.evaluate_into model ~w_um:400.0 ~l_um:30.0 e;
  Alcotest.(check (float 1e-9)) "KCL at drain" 0.0 (i_r -. e.Circuit.Egt.id)

let test_warm_start () =
  let nl = N.create () in
  let top = N.fresh_node nl in
  N.add nl (N.Vsource { name = "v"; plus = top; minus = N.ground; volts = 1.0 });
  N.add nl (N.Resistor { a = top; b = N.ground; ohms = 1000.0 });
  let sol1 = M.solve model nl in
  let sol2 = M.solve ~initial:sol1.M.voltages model nl in
  Alcotest.(check bool) "warm start faster or equal" true
    (sol2.M.iterations <= sol1.M.iterations)

let test_set_source_sweep_consistency () =
  let nl = N.create () in
  let top = N.fresh_node nl in
  let mid = N.fresh_node nl in
  N.add nl (N.Vsource { name = "vin"; plus = top; minus = N.ground; volts = 0.0 });
  N.add nl (N.Resistor { a = top; b = mid; ohms = 1000.0 });
  N.add nl (N.Resistor { a = mid; b = N.ground; ohms = 1000.0 });
  let pts =
    Circuit.Dc_sweep.run ~model ~netlist:nl ~source:"vin" ~output:mid
      ~sweep:(Circuit.Dc_sweep.linspace 0.0 2.0 5) ()
  in
  Array.iter
    (fun p ->
      Alcotest.(check (float 1e-9))
        "half of vin" (p.Circuit.Dc_sweep.vin /. 2.0) p.Circuit.Dc_sweep.vout)
    pts

let test_no_convergence_residual () =
  (* one damped Newton step cannot reach the inverter's operating point
     from the 0.5 V start; the exception reports that step's max |ΔV| *)
  let nl = N.create () in
  let vdd = N.fresh_node nl in
  let gate = N.fresh_node nl in
  let drain = N.fresh_node nl in
  N.add nl (N.Vsource { name = "vdd"; plus = vdd; minus = N.ground; volts = 1.0 });
  N.add nl (N.Vsource { name = "vg"; plus = gate; minus = N.ground; volts = 0.35 });
  N.add nl (N.Resistor { a = vdd; b = drain; ohms = 100_000.0 });
  N.add nl (N.Transistor { gate; drain; source = N.ground; w_um = 400.0; l_um = 30.0 });
  let options = { M.default_options with M.max_iterations = 1 } in
  match M.solve ~options model nl with
  | exception M.No_convergence { iterations; residual } ->
      Alcotest.(check int) "iterations" 1 iterations;
      Alcotest.(check bool) "finite residual" true (Float.is_finite residual);
      Alcotest.(check bool) "positive residual" true (residual > 0.0);
      Alcotest.(check bool) "within the damping limit" true
        (residual <= options.M.damping)
  | _ -> Alcotest.fail "expected No_convergence after one iteration"

let test_compiled_sweep_matches_solve () =
  (* the compiled sweep (one compile, continuation through the iterate)
     gives the same bits as fresh solves warm-started from the previous
     point's voltages, and leaves the netlist untouched *)
  let nl = N.create () in
  let vdd = N.fresh_node nl in
  let gate = N.fresh_node nl in
  let drain = N.fresh_node nl in
  N.add nl (N.Vsource { name = "vdd"; plus = vdd; minus = N.ground; volts = 1.0 });
  N.add nl (N.Vsource { name = "vg"; plus = gate; minus = N.ground; volts = 0.0 });
  N.add nl (N.Resistor { a = vdd; b = drain; ohms = 200_000.0 });
  N.add nl (N.Transistor { gate; drain; source = N.ground; w_um = 500.0; l_um = 20.0 });
  let sweep = Circuit.Dc_sweep.linspace 0.0 1.0 11 in
  let pts = Circuit.Dc_sweep.run ~model ~netlist:nl ~source:"vg" ~output:drain ~sweep () in
  List.iter
    (function
      | N.Vsource { name = "vg"; volts; _ } -> Alcotest.(check (float 0.0)) "vg untouched" 0.0 volts
      | _ -> ())
    (N.elements nl);
  let guess = ref None in
  Array.iteri
    (fun i vg ->
      N.set_source nl "vg" vg;
      let sol = M.solve ?initial:!guess model nl in
      guess := Some sol.M.voltages;
      Alcotest.(check (float 0.0))
        (Printf.sprintf "point %d" i) sol.M.voltages.(drain) pts.(i).Circuit.Dc_sweep.vout)
    sweep;
  Alcotest.check_raises "unknown source" Not_found (fun () ->
      ignore (Circuit.Dc_sweep.run ~model ~netlist:nl ~source:"nope" ~output:drain ~sweep ()))

let () =
  Alcotest.run "mna"
    [
      ( "linear circuits",
        [
          Alcotest.test_case "voltage divider" `Quick test_voltage_divider;
          Alcotest.test_case "series-parallel" `Quick test_series_parallel;
          Alcotest.test_case "two sources" `Quick test_two_sources;
          Alcotest.test_case "stacked sources" `Quick test_floating_source_stack;
          Alcotest.test_case "invalid netlist" `Quick test_invalid_netlist;
        ] );
      ( "nonlinear circuits",
        [
          Alcotest.test_case "inverter inverts" `Quick test_inverter_inverts;
          Alcotest.test_case "KCL residual" `Quick test_kcl_residual;
          Alcotest.test_case "warm start" `Quick test_warm_start;
          Alcotest.test_case "sweep consistency" `Quick test_set_source_sweep_consistency;
          Alcotest.test_case "no-convergence residual" `Quick test_no_convergence_residual;
          Alcotest.test_case "compiled sweep = solves" `Quick test_compiled_sweep_matches_solve;
        ] );
    ]
