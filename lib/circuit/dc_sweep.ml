type point = { vin : float; vout : float }

let linspace lo hi n =
  if n < 2 then invalid_arg "Dc_sweep.linspace: need n >= 2";
  Array.init n (fun i ->
      lo +. ((hi -. lo) *. float_of_int i /. float_of_int (n - 1)))

let run ?(options = Mna.default_options) ~model ~netlist ~source ~output ~sweep () =
  (* one compiled circuit for the whole sweep: each point only rewrites the
     swept source's slot, and Newton continues from the previous point's
     solution left in the compiled iterate *)
  let circuit = Mna.compile model netlist in
  let slot = Mna.source_slot circuit source in
  Array.map
    (fun vin ->
      Mna.set_source circuit slot vin;
      ignore (Mna.newton ~options circuit);
      { vin; vout = Mna.voltage circuit output })
    sweep
