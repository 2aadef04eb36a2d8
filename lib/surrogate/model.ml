type t = { mlp : Nn.Mlp.t; omega_scaler : Scaler.t; eta_scaler : Scaler.t }

let paper_arch = [ 10; 9; 9; 8; 8; 7; 7; 6; 6; 6; 5; 5; 5; 4 ]

let eval t omega =
  let extended = Design_space.extend omega in
  let x = Tensor.of_array (Scaler.transform t.omega_scaler extended) in
  let y = Nn.Mlp.forward_tensor t.mlp x in
  Fit.Ptanh.eta_of_array (Scaler.inverse t.eta_scaler (Tensor.to_array y))

(* Fig. 5's feature step as one tape node: ω → extended ω (appending
   k1 = R2/R1, k2 = R4/R3, k3 = W/L, as [Design_space.extend]) → min-max
   normalised.  It replays the graph it replaced (column slices,
   divisions, concatenations and the scaler's two broadcasts) operation for
   operation; the backward is that graph's per-node gradients, including
   the order in which each ω column received its two shares: the
   concatenation's before the division's for R1 and R2, after it for the
   rest. *)
let features_ad t x =
  let d = Design_space.dim and e = Design_space.extended_dim in
  let v = Autodiff.value x in
  if Tensor.cols v <> d then invalid_arg "Model.features_ad: expected 7 columns";
  let n = Tensor.rows v in
  let neg_lo = Array.map (fun l -> -.l) (Scaler.lo t.omega_scaler) in
  let inv_range = Array.map (fun r -> 1.0 /. r) (Scaler.range t.omega_scaler) in
  let xa = Array.make (n * d) 0.0 and ya = Array.make (n * e) 0.0 in
  let forward dst =
    Tensor.read_into (Autodiff.value x) xa;
    for r = 0 to n - 1 do
      let xo = r * d and yo = r * e in
      Array.blit xa xo ya yo d;
      ya.(yo + 7) <- xa.(xo + 1) /. xa.(xo + 0);
      ya.(yo + 8) <- xa.(xo + 3) /. xa.(xo + 2);
      ya.(yo + 9) <- xa.(xo + 5) /. xa.(xo + 6);
      for j = 0 to e - 1 do
        ya.(yo + j) <- (ya.(yo + j) +. neg_lo.(j)) *. inv_range.(j)
      done
    done;
    Tensor.write_from ya dst
  in
  let out = Tensor.zeros n e in
  forward out;
  let gx = Array.make (n * d) 0.0 and dx = Autodiff.scratch_of n d in
  Autodiff.fused out [ x ] ~recompute:forward ~backward:(fun g ->
      Tensor.read_into g ya;
      for r = 0 to n - 1 do
        let xo = r * d and yo = r * e in
        let[@inline] ga j = 0.0 +. (ya.(yo + j) *. inv_range.(j)) and[@inline] x j = xa.(xo + j) in
        (* k = a / b: a's share g/b, b's share −(g·a)/b² *)
        let[@inline] over k b = 0.0 +. (ga k /. x b)
        and[@inline] under k a b = 0.0 +. -.(ga k *. x a /. (x b *. x b)) in
        gx.(xo + 0) <- ga 0 +. under 7 1 0;
        gx.(xo + 1) <- ga 1 +. over 7 0;
        gx.(xo + 2) <- under 8 3 2 +. ga 2;
        gx.(xo + 3) <- over 8 2 +. ga 3;
        gx.(xo + 4) <- ga 4;
        gx.(xo + 5) <- over 9 6 +. ga 5;
        gx.(xo + 6) <- under 9 5 6 +. ga 6
      done;
      let dx = dx () in
      Tensor.write_from gx dx;
      Autodiff.accumulate x dx)

let eval_ad t x = Scaler.inverse_ad t.eta_scaler (Nn.Mlp.forward_frozen t.mlp (features_ad t x))

let to_lines t =
  ("surrogate" :: Scaler.to_lines t.omega_scaler)
  @ Scaler.to_lines t.eta_scaler @ Nn.Mlp.to_lines t.mlp

let of_lines = function
  | "surrogate" :: rest ->
      let omega_scaler, rest = Scaler.of_lines rest in
      let eta_scaler, rest = Scaler.of_lines rest in
      let mlp, rest = Nn.Mlp.of_lines rest in
      ({ mlp; omega_scaler; eta_scaler }, rest)
  | _ -> failwith "Model.of_lines: bad header"

let save_file t path = Cache.replace_file path (Lines.text (to_lines t))
let load_file path = fst (of_lines (Lines.read_file path))
