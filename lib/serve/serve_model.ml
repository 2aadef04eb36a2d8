(* The serve-time view of a trained network.

   This is the train-time / serve-time API split: a [Serve_model.t] wraps a
   [Network.t] it treats as strictly read-only — no optimizer, no loss
   graphs, no weight mutation ever goes through this module.  Everything a
   server needs is here: digest-verified loading, batched nominal
   classification, and per-request Monte-Carlo uncertainty with the
   deterministic ordered reduction.  Both run {!Network.mc_logits}: a
   nominal batch is its one-draw case, the all-ones draw on a sequential
   pool, so a server that only answers nominal requests never starts the
   shared pool's domains.

   Determinism contract: answers depend only on (model file, request
   payload).  Batch composition cannot change an answer (the forward pass is
   row-independent — see {!Network.mc_logits}), the MC reduction is
   ordered by draw index, and draws are pre-drawn sequentially from a
   request-seeded [Rng.t] before any fan-out, so results are bit-identical
   for any pool size and any batching schedule. *)

module Network = Pnn.Network
module Layer = Pnn.Layer
module Serialize = Pnn.Serialize
module Variation = Pnn.Variation

type t = {
  network : Network.t;
  inputs : int;
  outputs : int;
  digest : string;
  ctx : Variation.ctx;
  nominal : Pnn.Noise.t array; (* the one all-ones draw of predict_batch *)
  sequential : Parallel.Pool.t; (* jobs 1: one draw never needs a domain *)
}

let of_network network =
  let layers = Network.layers network in
  let first = List.hd layers in
  let last = List.nth layers (List.length layers - 1) in
  {
    network;
    inputs = Layer.inputs first;
    outputs = Layer.outputs last;
    digest = Serialize.digest network;
    ctx = Variation.ctx_of_network network;
    nominal = [| Pnn.Noise.none ~theta_shapes:(Network.theta_shapes network) |];
    sequential = Parallel.Pool.create ~jobs:1 ();
  }

let load ?expect_digest surrogate path =
  if not (Sys.file_exists path) then
    failwith (Printf.sprintf "Serve_model: model file %s does not exist" path);
  let network = Serialize.load_file surrogate path in
  let m = of_network network in
  (match expect_digest with
  | Some d when d <> m.digest ->
      failwith
        (Printf.sprintf
           "Serve_model: digest mismatch for %s (expected %s, loaded %s)" path d
           m.digest)
  | Some _ | None -> ());
  m

let network m = m.network
let inputs m = m.inputs
let outputs m = m.outputs
let digest m = m.digest

(* Batches are padded up to the next power of two before the forward
   pass, so the compiled-graph working set stays at the handful of
   shapes {1, 2, 4, ...} instead of one graph per occupancy.  Padding rows
   are zeros; row independence means they cannot perturb the real rows, and
   their answers are discarded. *)
let rec next_pow2 n k = if k >= n then k else next_pow2 n (2 * k)

let padded_rows n = next_pow2 n 1

let batch_tensor m rows =
  let k = Array.length rows in
  if k = 0 then invalid_arg "Serve_model.predict_batch: empty batch";
  let padded = padded_rows k in
  let data = Array.make (padded * m.inputs) 0.0 in
  Array.iteri
    (fun i row ->
      if Array.length row <> m.inputs then
        invalid_arg "Serve_model.predict_batch: feature width mismatch";
      Array.blit row 0 data (i * m.inputs) m.inputs)
    rows;
  Tensor.create padded m.inputs data

let predict_batch m rows =
  let x = batch_tensor m rows in
  let all =
    (Network.mc_logits m.sequential m.network ~noises:m.nominal x ~f:Tensor.argmax_rows).(0)
  in
  Array.sub all 0 (Array.length rows)

(* {1 Monte-Carlo uncertainty} *)

type mc_summary = { cls : int; mean_p : float; q05 : float; q95 : float }

let argmax a =
  let best = ref 0 in
  for j = 1 to Array.length a - 1 do
    if a.(j) > a.(!best) then best := j
  done;
  !best

let predict_mc m ~pool ~model ~draws ~seed features =
  if Array.length features <> m.inputs then
    invalid_arg "Serve_model.predict_mc: feature width mismatch";
  if draws < 1 then invalid_arg "Serve_model.predict_mc: draws < 1";
  (* Pre-draw sequentially from the request-seeded stream, then run the
     surrogate for every draw at once (the stage padded, since each
     request names its own count) and fan the draws' forward passes out,
     as Evaluation.mc_accuracy does.  Unlike it, every model takes
     [draws] draws here, [Uniform 0.] included: the reply averages
     probabilities over the draws. *)
  let rng = Rng.create seed in
  let noises = Array.of_list (Variation.draw_many rng model m.ctx ~n:draws) in
  let x = Tensor.create 1 m.inputs features in
  let per_draw =
    Network.mc_logits ~pad:true pool m.network ~noises x ~f:(fun logits ->
        let probs = Tensor.zeros 1 m.outputs in
        Tensor.softmax_rows_into logits ~dst:probs;
        Array.init m.outputs (fun j -> Tensor.get probs 0 j))
  in
  (* Ordered mean over the draw index: bit-identical at any pool size. *)
  let mean = Array.make m.outputs 0.0 in
  Array.iter
    (fun row ->
      for j = 0 to m.outputs - 1 do
        mean.(j) <- mean.(j) +. row.(j)
      done)
    per_draw;
  let inv_n = 1.0 /. float_of_int draws in
  for j = 0 to m.outputs - 1 do
    mean.(j) <- mean.(j) *. inv_n
  done;
  let cls = argmax mean in
  let p_cls = Array.map (fun row -> row.(cls)) per_draw in
  (* a NaN feature makes NaN probabilities, which have no order statistic:
     the quantiles are NaN then, and the request is still answered *)
  let quantile q = if Array.exists Float.is_nan p_cls then Float.nan else Stats.quantile p_cls q in
  { cls; mean_p = mean.(cls); q05 = quantile 0.05; q95 = quantile 0.95 }
