type params = { k_prime : float; v_th : float; lambda : float; alpha : float }

(* v_th is calibrated so that the inverter's switch point, seen through the
   Table-I gate dividers (ratio ≈ 0.1 … 0.5), falls inside the 0–1 V input
   range for most of the design space — the paper's "sweep analysis … which
   leads to tanh-like characteristic curves". *)
let default = { k_prime = 1.5e-5; v_th = 0.08; lambda = 0.05; alpha = 0.1 }

(* softplus with overflow guard: alpha * ln(1 + exp(x/alpha)).  These and
   the float selects below are inlined and type-specialised so that a
   Newton iteration's device evaluations box no intermediate float. *)
let[@inline] softplus alpha x =
  let z = x /. alpha in
  if z > 30.0 then x
  else if z < -30.0 then 0.0
  else alpha *. log (1.0 +. exp z)

let[@inline] softplus' alpha x =
  let z = x /. alpha in
  if z > 30.0 then 1.0 else if z < -30.0 then 0.0 else 1.0 /. (1.0 +. exp (-.z))

type scratch = {
  (* pnnlint:allow R7 a scratch belongs to one compiled circuit, and one
     Newton solve on one domain uses it at a time (Mna.compiled is not
     shared across domains) *)
  mutable vgs : float;
  mutable vds : float;
  mutable id : float;
  mutable gm : float;
  mutable gds : float;
}

let scratch () = { vgs = 0.0; vds = 0.0; id = 0.0; gm = 0.0; gds = 0.0 }

(* The model for vds ≥ 0, written into [s]: inlined into both entry
   points, so no float is boxed on the way. *)
let[@inline] evaluate_pos p ~wl ~vgs ~vds s =
  let ov = softplus p.alpha (vgs -. p.v_th) in
  let dov = softplus' p.alpha (vgs -. p.v_th) in
  let vsat = if ov >= 1e-3 then ov else 1e-3 in
  let u = vds /. vsat in
  let t = Fmath.tanh u in
  let sech2 = 1.0 -. (t *. t) in
  let clm = 1.0 +. (p.lambda *. vds) in
  let k = p.k_prime *. wl in
  let id = k *. ov *. ov *. t *. clm in
  (* gm: d/dvgs [k ov^2 tanh(vds/vsat) clm]; vsat depends on ov when ov>1e-3 *)
  let dvsat_dov = if ov > 1e-3 then 1.0 else 0.0 in
  let dt_dvgs = sech2 *. (-.vds /. (vsat *. vsat)) *. dvsat_dov *. dov in
  let gm = (k *. 2.0 *. ov *. dov *. t *. clm) +. (k *. ov *. ov *. dt_dvgs *. clm) in
  let gds =
    (k *. ov *. ov *. sech2 /. vsat *. clm) +. (k *. ov *. ov *. t *. p.lambda)
  in
  s.id <- id;
  s.gm <- gm;
  s.gds <- gds

let evaluate_into p ~w_um ~l_um s =
  if w_um <= 0.0 || l_um <= 0.0 then invalid_arg "Egt.evaluate_into: non-positive geometry";
  let wl = w_um /. l_um in
  let vgs = s.vgs and vds = s.vds in
  if vds >= 0.0 then evaluate_pos p ~wl ~vgs ~vds s
  else begin
    (* antisymmetry: swap drain/source. vgs seen from the new source is
       vgs - vds; current flips sign. *)
    evaluate_pos p ~wl ~vgs:(vgs -. vds) ~vds:(-.vds) s;
    (* I(vgs,vds) = -I+(vgs - vds, -vds)
       dI/dvgs = -dI+/dvgs
       dI/dvds = -( dI+/dvgs * (-1) + dI+/dvds * (-1) ) = gm+ + gds+ *)
    let gm = s.gm in
    s.id <- -.s.id;
    s.gm <- -.gm;
    s.gds <- gm +. s.gds
  end
