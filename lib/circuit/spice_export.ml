(* B-source expression for the EGT model (vds >= 0 branch; the antisymmetric
   branch is composed with ternaries).  softplus is written with ln/exp and
   relies on ngspice folding large exponents; the limit() guard keeps the
   argument sane. *)
let egt_expression p ~w_over_l ~gate ~drain ~source =
  let ov v_gs =
    Printf.sprintf "(%g*ln(1+exp(limit((%s-%g)/%g,-30,30))))" p.Egt.alpha v_gs p.Egt.v_th
      p.Egt.alpha
  in
  let branch ~v_gs ~v_ds sign =
    let ov = ov v_gs in
    Printf.sprintf
      "%s(%g*(%g)*%s*%s*tanh(%s/max(%s,1e-3))*(1+%g*%s))" sign p.Egt.k_prime w_over_l ov
      ov v_ds ov p.Egt.lambda v_ds
  in
  let vgs_f = Printf.sprintf "(v(%d)-v(%d))" gate source in
  let vds_f = Printf.sprintf "(v(%d)-v(%d))" drain source in
  let vgs_r = Printf.sprintf "(v(%d)-v(%d))" gate drain in
  let vds_r = Printf.sprintf "(v(%d)-v(%d))" source drain in
  Printf.sprintf "I = (%s >= 0) ? %s : %s" vds_f
    (branch ~v_gs:vgs_f ~v_ds:vds_f "")
    (branch ~v_gs:vgs_r ~v_ds:vds_r "-")

let to_spice ?(title = "printed neuromorphic circuit") ?(model = Egt.default) netlist =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf ("* " ^ title ^ "\n");
  let r = ref 0 and b = ref 0 in
  List.iter
    (fun e ->
      match e with
      | Netlist.Resistor { a; b = nb; ohms } ->
          incr r;
          Buffer.add_string buf (Printf.sprintf "R%d %d %d %g\n" !r a nb ohms)
      | Netlist.Vsource { name; plus; minus; volts } ->
          Buffer.add_string buf (Printf.sprintf "V%s %d %d DC %g\n" name plus minus volts)
      | Netlist.Transistor { gate; drain; source; w_um; l_um } ->
          incr b;
          let expr =
            egt_expression model ~w_over_l:(w_um /. l_um) ~gate ~drain ~source
          in
          Buffer.add_string buf (Printf.sprintf "B%d %d %d %s\n" !b drain source expr))
    (Netlist.elements netlist);
  Buffer.add_string buf ".end\n";
  Buffer.contents buf

let ptanh_circuit ?(title = "ptanh nonlinear circuit") omega =
  let netlist, out = Ptanh_circuit.build omega in
  let body = to_spice ~title netlist in
  (* splice the sweep/control cards before .end *)
  let control =
    Printf.sprintf ".dc Vvin 0 %g 0.025\n.print dc v(%d)\n" Ptanh_circuit.vdd out
  in
  match String.length body with
  | n when n >= 5 -> String.sub body 0 (n - 5) ^ control ^ ".end\n"
  | _ -> body
