module A = Autodiff
module Ds = Surrogate.Design_space

type t = { raw : A.t; surrogate : Surrogate.Model.t }

let create_from surrogate ~w_init =
  if Array.length w_init <> Ds.learnable_dim then
    invalid_arg "Nonlinear.create_from: need 7 raw values";
  { raw = A.param (Tensor.of_array w_init); surrogate }

let create surrogate =
  create_from surrogate ~w_init:(Array.make Ds.learnable_dim 0.0)

let raw_param t = t.raw

let replicate t = { raw = A.param (Tensor.copy (A.value t.raw)); surrogate = t.surrogate }

(* Denormalization bounds for the 𝔴 encoding [R1; R3; R5; W; L; k1; k2].
   Eager (not lazy): forcing a lazy concurrently from several domains raises
   RacyLazy, and layer replicas are built inside pool workers. *)
let w_scaler = Surrogate.Scaler.of_bounds ~lo:Ds.learnable_lo ~hi:Ds.learnable_hi

let w_lo = Surrogate.Scaler.lo w_scaler
let w_range = Surrogate.Scaler.range w_scaler

(* Fig. 5's map from 𝔴 to the printable ω, as one tape node:
     y = sigmoid 𝔴,  w = y·(hi − lo) + lo = [R1; R3; R5; W; L; k1; k2],
     ω = [R1; clip(R1·k1); R3; clip(R3·k2); R5; W; L] × ε_ω.
   The inferred R2/R4 may leave their Table-I boxes, so they are clipped
   with a straight-through estimator (paper: "simply clipping them to their
   feasible range"); a NaN product passes the clip unchanged, so a fault is
   never masked as a bound.  R2 < R1 / R4 < R3 hold because k ≤ 0.98.
   Variation is applied to the printable values (paper §III-C).

   The node stacks rows: noise row r is circuit r mod k's ε_ω in draw
   r / k, so one node serves every draw and layer of an η stage (and a
   single circuit is the k = 1, one-draw case).  Each row replays the
   graph of sigmoid, scaler, slice, clip and concat nodes the node
   replaced operation for operation: the backward below is that graph's
   per-node gradients, first accumulations ([0.0 +.]) and the order in
   which R1 and R3 received their two shares included.  A circuit's
   gradient is then the draw-order fold of its rows' shares — what a
   per-draw graph's first accumulation gave each draw ([0.0 +.] of the
   share), summed from draw 0 on, as the pooled Monte-Carlo loss sums
   per-draw gradients — accumulated once.  Those one-draw gradients are
   left, row by row, in [shares]. *)
let printable_omega_rows circuits ~noise =
  let d = Ds.learnable_dim and k = Array.length circuits in
  let nv = A.value noise in
  let rows = Tensor.rows nv in
  if k = 0 || Tensor.cols nv <> d || rows mod k <> 0 then
    invalid_arg "Nonlinear.printable_omega_rows: noise is not (draws · circuits) × 7";
  let raw = Array.make d 0.0 and eps = Array.make (rows * d) 0.0 in
  let y = Array.make_matrix k d 0.0 and w = Array.make_matrix k d 0.0 in
  let om = Array.make_matrix k d 0.0 and buf = Array.make (rows * d) 0.0 in
  let[@inline] clip i x = if x < Ds.omega_lo.(i) then Ds.omega_lo.(i) else if x > Ds.omega_hi.(i) then Ds.omega_hi.(i) else x in
  let forward dst =
    for c = 0 to k - 1 do
      Tensor.read_into (A.value circuits.(c).raw) raw;
      let y = y.(c) and w = w.(c) and om = om.(c) in
      for j = 0 to d - 1 do
        y.(j) <- 1.0 /. (1.0 +. Stdlib.exp (-.raw.(j)));
        w.(j) <- (y.(j) *. w_range.(j)) +. w_lo.(j)
      done;
      om.(0) <- w.(0);
      om.(1) <- clip 1 (w.(0) *. w.(5));
      om.(2) <- w.(1);
      om.(3) <- clip 3 (w.(1) *. w.(6));
      om.(4) <- w.(2);
      om.(5) <- w.(3);
      om.(6) <- w.(4)
    done;
    Tensor.read_into (A.value noise) eps;
    for r = 0 to rows - 1 do
      let om = om.(r mod k) in
      for j = 0 to d - 1 do
        buf.((r * d) + j) <- om.(j) *. eps.((r * d) + j)
      done
    done;
    Tensor.write_from buf dst
  in
  let out = Tensor.zeros rows d in
  forward out;
  let gw = Array.make d 0.0 and acc = Array.make_matrix k d 0.0 in
  let d_raw = Array.init k (fun _ -> A.scratch_of 1 d) and shares = Tensor.zeros rows d in
  let parents = noise :: Array.to_list (Array.map (fun c -> c.raw) circuits) in
  let backward g =
    Tensor.read_into g buf;
    for r = 0 to rows - 1 do
      let c = r mod k and o = r * d in
      let y = y.(c) and w = w.(c) and acc = acc.(c) in
      (* ω's gradient; the clips pass theirs straight through to R1·k1 and
         R3·k2, R1 takes its own share before the product's, R3 after *)
      let[@inline] go j = 0.0 +. (buf.(o + j) *. eps.(o + j)) in
      let g1 = go 1 and g3 = go 3 in
      gw.(0) <- go 0 +. (g1 *. w.(5));
      gw.(1) <- 0.0 +. (g3 *. w.(6)) +. go 2;
      gw.(2) <- go 4;
      gw.(3) <- go 5;
      gw.(4) <- go 6;
      gw.(5) <- 0.0 +. (g1 *. w.(0));
      gw.(6) <- 0.0 +. (g3 *. w.(1));
      (* back through the scaler and the sigmoid, then into the fold *)
      for j = 0 to d - 1 do
        let gy = 0.0 +. (gw.(j) *. w_range.(j)) in
        let share = 0.0 +. (y.(j) *. (1.0 -. y.(j)) *. gy) in
        buf.(o + j) <- share;
        acc.(j) <- (if r < k then share else acc.(j) +. share)
      done
    done;
    Tensor.write_from buf shares;
    Array.iteri
      (fun c circuit ->
        let d_raw = d_raw.(c) () in
        Tensor.write_from acc.(c) d_raw;
        A.accumulate circuit.raw d_raw)
      circuits
  in
  (A.fused out parents ~recompute:forward ~backward, shares)

let printable_omega t ~noise =
  fst (printable_omega_rows [| t |] ~noise:(A.const noise))

let eta_dim = 4

let eta_rows circuits ~noise =
  let surrogate = circuits.(0).surrogate in
  if Array.exists (fun c -> c.surrogate != surrogate) circuits then
    invalid_arg "Nonlinear.eta_rows: circuits with different surrogates";
  let omega, shares = printable_omega_rows circuits ~noise in
  (Surrogate.Model.eval_ad surrogate omega, shares)

let eta t ~noise = Surrogate.Model.eval_ad t.surrogate (printable_omega t ~noise)

(* Eq. 2 as one tape node: Tensor.ptanh_into / ptanh_bwd_into replay the
   graph of η slices, broadcast-scalar adds and products and tanh that it
   replaced bit for bit, so only the per-node overhead goes. *)
let apply_eta eta_node v =
  let x = A.value v in
  let h = Tensor.zeros (Tensor.rows x) (Tensor.cols x) in
  let out = Tensor.zeros (Tensor.rows x) (Tensor.cols x) in
  Tensor.ptanh_into ~eta:(A.value eta_node) x ~h ~dst:out;
  let dv = A.scratch_of (Tensor.rows x) (Tensor.cols x) and deta = A.scratch_of 1 4 in
  A.fused out [ eta_node; v ]
    ~recompute:(fun dst -> Tensor.ptanh_into ~eta:(A.value eta_node) (A.value v) ~h ~dst)
    ~backward:(fun g ->
      let dv = dv () and deta = deta () in
      Tensor.ptanh_bwd_into ~eta:(A.value eta_node) (A.value v) ~h ~g ~dv ~deta;
      A.accumulate v dv;
      A.accumulate eta_node deta)

let apply t ~noise v = apply_eta (eta t ~noise) v

let ones_noise = Tensor.ones 1 Ds.dim

let omega_values t =
  Tensor.to_array (A.value (printable_omega t ~noise:ones_noise))

let eta_values t =
  Surrogate.Model.eval t.surrogate (omega_values t)

let snapshot t = Tensor.copy (A.value t.raw)

let restore t saved =
  let v = A.value t.raw in
  if Tensor.shape v <> Tensor.shape saved then invalid_arg "Nonlinear.restore: shape mismatch";
  for c = 0 to Tensor.cols saved - 1 do
    Tensor.set v 0 c (Tensor.get saved 0 c)
  done
