type omega = {
  r1 : float;
  r2 : float;
  r3 : float;
  r4 : float;
  r5 : float;
  w_um : float;
  l_um : float;
}

let vdd = 1.0

let omega_of_array a =
  if Array.length a <> 7 then invalid_arg "Ptanh_circuit.omega_of_array: need 7 values";
  { r1 = a.(0); r2 = a.(1); r3 = a.(2); r4 = a.(3); r5 = a.(4); w_um = a.(5); l_um = a.(6) }


let build o =
  let open Netlist in
  let nl = create () in
  let n_in = fresh_node nl in
  let n_vdd = fresh_node nl in
  let n_g1 = fresh_node nl in
  let n_d1 = fresh_node nl in
  let n_g2 = fresh_node nl in
  let n_out = fresh_node nl in
  add nl (Vsource { name = "vin"; plus = n_in; minus = ground; volts = 0.0 });
  add nl (Vsource { name = "vdd"; plus = n_vdd; minus = ground; volts = vdd });
  (* stage 1 *)
  add nl (Resistor { a = n_in; b = n_g1; ohms = o.r1 });
  add nl (Resistor { a = n_g1; b = ground; ohms = o.r2 });
  add nl (Transistor { gate = n_g1; drain = n_d1; source = ground; w_um = o.w_um; l_um = o.l_um });
  add nl (Resistor { a = n_vdd; b = n_d1; ohms = o.r5 });
  (* stage 2 *)
  add nl (Resistor { a = n_d1; b = n_g2; ohms = o.r3 });
  add nl (Resistor { a = n_g2; b = ground; ohms = o.r4 });
  add nl (Transistor { gate = n_g2; drain = n_out; source = ground; w_um = o.w_um; l_um = o.l_um });
  add nl (Resistor { a = n_vdd; b = n_out; ohms = o.r5 });
  ignore n_in;
  (nl, n_out)

let transfer ?(model = Egt.default) ?(points = 41) o =
  let netlist, out = build o in
  let sweep = Dc_sweep.linspace 0.0 vdd points in
  let pts = Dc_sweep.run ~model ~netlist ~source:"vin" ~output:out ~sweep () in
  (Array.map (fun p -> p.Dc_sweep.vin) pts, Array.map (fun p -> p.Dc_sweep.vout) pts)
