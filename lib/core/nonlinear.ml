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

   The node replays the graph of sigmoid, scaler, slice, clip and concat
   nodes it replaced operation for operation: the backward below is that
   graph's per-node gradients, first accumulations ([0.0 +.]) and the
   order in which R1 and R3 received their two shares included. *)
let printable_omega_node t ~noise_node =
  let d = Ds.learnable_dim in
  let raw = Array.make d 0.0 and eps = Array.make d 0.0 in
  let y = Array.make d 0.0 and w = Array.make d 0.0 and buf = Array.make d 0.0 in
  let[@inline] clip i x = if x < Ds.omega_lo.(i) then Ds.omega_lo.(i) else if x > Ds.omega_hi.(i) then Ds.omega_hi.(i) else x in
  let forward dst =
    Tensor.read_into (A.value t.raw) raw;
    Tensor.read_into (A.value noise_node) eps;
    for j = 0 to d - 1 do
      y.(j) <- 1.0 /. (1.0 +. Stdlib.exp (-.raw.(j)));
      w.(j) <- (y.(j) *. w_range.(j)) +. w_lo.(j)
    done;
    buf.(0) <- w.(0);
    buf.(1) <- clip 1 (w.(0) *. w.(5));
    buf.(2) <- w.(1);
    buf.(3) <- clip 3 (w.(1) *. w.(6));
    buf.(4) <- w.(2);
    buf.(5) <- w.(3);
    buf.(6) <- w.(4);
    for j = 0 to d - 1 do
      buf.(j) <- buf.(j) *. eps.(j)
    done;
    Tensor.write_from buf dst
  in
  let out = Tensor.zeros 1 d in
  forward out;
  let gw = Array.make d 0.0 and d_raw = A.scratch_of 1 d in
  A.fused out [ t.raw; noise_node ] ~recompute:forward ~backward:(fun g ->
      Tensor.read_into g buf;
      (* ω's gradient; the clips pass theirs straight through to R1·k1 and
         R3·k2, R1 takes its own share before the product's, R3 after *)
      let[@inline] go j = 0.0 +. (buf.(j) *. eps.(j)) in
      let g1 = go 1 and g3 = go 3 in
      gw.(0) <- go 0 +. (g1 *. w.(5));
      gw.(1) <- 0.0 +. (g3 *. w.(6)) +. go 2;
      gw.(2) <- go 4;
      gw.(3) <- go 5;
      gw.(4) <- go 6;
      gw.(5) <- 0.0 +. (g1 *. w.(0));
      gw.(6) <- 0.0 +. (g3 *. w.(1));
      (* back through the scaler and the sigmoid *)
      for j = 0 to d - 1 do
        let gy = 0.0 +. (gw.(j) *. w_range.(j)) in
        buf.(j) <- y.(j) *. (1.0 -. y.(j)) *. gy
      done;
      let d_raw = d_raw () in
      Tensor.write_from buf d_raw;
      A.accumulate t.raw d_raw)

let printable_omega t ~noise = printable_omega_node t ~noise_node:(A.const noise)

let eta_pair act neg ~act_noise ~neg_noise =
  (* Stack the two circuits' printable ω rows and run one surrogate forward
     over the 2 × 7 batch instead of two 1 × 7 passes.  Every op on the
     surrogate path (slices, elementwise, rowvec broadcasts, matmul) treats
     rows independently with a fixed per-row accumulation order, so each
     output row is bit-identical to its own single-row evaluation. *)
  let om =
    A.concat_rows
      (printable_omega_node act ~noise_node:act_noise)
      (printable_omega_node neg ~noise_node:neg_noise)
  in
  let e = Surrogate.Model.eval_ad act.surrogate om in
  (A.slice_rows e 0 1, A.slice_rows e 1 1)

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

let apply t ~noise v =
  apply_eta (Surrogate.Model.eval_ad t.surrogate (printable_omega t ~noise)) v
let apply_inv t ~noise v = A.neg (apply t ~noise v)

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
