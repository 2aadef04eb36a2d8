let dim = 7
let extended_dim = 10
let learnable_dim = 7

(* Table I, resistances in Ω (R3..R5 given in kΩ in the paper). *)
let omega_lo = [| 10.0; 5.0; 10e3; 8e3; 10e3; 200.0; 10.0 |]
let omega_hi = [| 500.0; 250.0; 500e3; 400e3; 500e3; 800.0; 70.0 |]
let names = [| "R1"; "R2"; "R3"; "R4"; "R5"; "W"; "L" |]

(* 𝔴 encoding: [R1; R3; R5; W; L; k1; k2] *)
let k_lo = 0.02
let k_hi = 0.98

let learnable_lo = [| omega_lo.(0); omega_lo.(2); omega_lo.(4); omega_lo.(5); omega_lo.(6); k_lo; k_lo |]
let learnable_hi = [| omega_hi.(0); omega_hi.(2); omega_hi.(4); omega_hi.(5); omega_hi.(6); k_hi; k_hi |]

(* Strict-inequality margin: the reassembled R2 (resp. R4) is kept at or below
   this fraction of R1 (resp. R3). *)
let margin = 0.98

let clip lo hi v = if v < lo then lo else if v > hi then hi else v

let assemble raw =
  if Array.length raw <> learnable_dim then
    invalid_arg "Design_space.assemble: need 7 raw values";
  let r1 = clip omega_lo.(0) omega_hi.(0) raw.(0) in
  let r3 = clip omega_lo.(2) omega_hi.(2) raw.(1) in
  let r5 = clip omega_lo.(4) omega_hi.(4) raw.(2) in
  let w = clip omega_lo.(5) omega_hi.(5) raw.(3) in
  let l = clip omega_lo.(6) omega_hi.(6) raw.(4) in
  let k1 = clip k_lo k_hi raw.(5) in
  let k2 = clip k_lo k_hi raw.(6) in
  let r2 = clip omega_lo.(1) (Stdlib.min omega_hi.(1) (margin *. r1)) (r1 *. k1) in
  let r4 = clip omega_lo.(3) (Stdlib.min omega_hi.(3) (margin *. r3)) (r3 *. k2) in
  [| r1; r2; r3; r4; r5; w; l |]

let extend omega =
  if Array.length omega <> dim then invalid_arg "Design_space.extend: need 7 values";
  Array.append omega
    [| omega.(1) /. omega.(0); omega.(3) /. omega.(2); omega.(5) /. omega.(6) |]

let contains omega =
  Array.length omega = dim
  && begin
       let ok = ref true in
       Array.iteri
         (fun i v -> if v < omega_lo.(i) -. 1e-9 || v > omega_hi.(i) +. 1e-9 then ok := false)
         omega;
       !ok && omega.(0) > omega.(1) && omega.(2) > omega.(3)
     end

let sample_sobol ~n =
  let sobol = Qmc.Sobol.create learnable_dim in
  Array.init n (fun _ ->
      assemble (Qmc.Sobol.next_in_box sobol ~lo:learnable_lo ~hi:learnable_hi))

let sample_lhs rng ~n =
  let pts = Qmc.Lhs.sample_in_box rng ~lo:learnable_lo ~hi:learnable_hi ~n in
  Array.map assemble pts
