type result = {
  mean : float;
  std : float;
  min : float;
  q05 : float;
  median : float;
  q95 : float;
  accuracies : float array;
}

let check_labels ~x ~y =
  if Tensor.rows x <> Array.length y then
    invalid_arg "Evaluation.accuracy: label count mismatch"

let accuracy ~y pred =
  let hits = ref 0 in
  Array.iteri (fun i p -> if p = y.(i) then incr hits) pred;
  float_of_int !hits /. float_of_int (Array.length y)

(* One draw runs on the calling domain, so this pool never spawns one. *)
let sequential = Parallel.Pool.create ~jobs:1 ()

let nominal_accuracy network ~x ~y =
  check_labels ~x ~y;
  (* the ε = 0 draw, in place on this domain's compiled graph for x's shape *)
  let nominal = [| Noise.none ~theta_shapes:(Network.theta_shapes network) |] in
  (Network.mc_logits sequential network ~noises:nominal x ~f:(fun logits ->
       accuracy ~y (Tensor.argmax_rows logits))).(0)

(* Cache payload: the raw per-draw accuracies in [%h]; every summary
   statistic is recomputed from the decoded bits, so a hit is bit-identical
   to the evaluation it replaced. *)
let accs_of_lines = function
  | [ line ] -> Lines.counted_of_line ~fmt:"Evaluation" "accs" line
  | _ -> failwith "Evaluation: bad cache payload"

(* On a hit the evaluation rng is left untouched; callers hand every
   evaluation its own derived generator, so nothing downstream observes the
   skipped draws. *)
let with_cache cache compute =
  match cache with
  | None -> compute ()
  | Some (c, key) ->
      Cache.memoize c ~kind:"mceval" ~key
        ~encode:(fun a -> [ Lines.counted_line "accs" a ])
        ~decode:accs_of_lines compute

let mc_accuracy ?pool ?cache rng network ~model ~n ~x ~y =
  if n < 1 then invalid_arg "Evaluation.mc_accuracy: n < 1";
  Variation.validate model;
  check_labels ~x ~y;
  let accuracies =
    with_cache cache (fun () ->
        (* Pre-draw every noise record sequentially on the calling domain,
           so the RNG stream is consumed in exactly the per-draw order of a
           sequential evaluation, then fan the pure forward passes out. *)
        let noises =
          Array.of_list
            (Variation.mc_draws rng model (Variation.ctx_of_network network) ~n)
        in
        let pool = match pool with Some p -> p | None -> Parallel.get_pool () in
        Network.mc_logits pool network ~noises x ~f:(fun logits ->
            accuracy ~y (Tensor.argmax_rows logits)))
  in
  {
    mean = Stats.mean accuracies;
    std = (if Array.length accuracies > 1 then Stats.std accuracies else 0.0);
    min = Stats.min accuracies;
    q05 = Stats.quantile accuracies 0.05;
    median = Stats.median accuracies;
    q95 = Stats.quantile accuracies 0.95;
    accuracies;
  }
