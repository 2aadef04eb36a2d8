type model = { kappa_max : float; beta : float }

let default_model = { kappa_max = 0.2; beta = 0.5 }

(* The drift law lives in {!Variation} now (as the [Aging] constructor);
   this module keeps the aging-specific entry points as thin wrappers. *)
let to_variation ?t_frac model =
  Variation.Aging { kappa_max = model.kappa_max; beta = model.beta; t_frac }

let draw rng model ~t_frac ~theta_shapes =
  if t_frac < 0.0 || t_frac > 1.0 then invalid_arg "Aging.draw: t_frac outside [0,1]";
  Variation.draw rng
    (to_variation ~t_frac model)
    (Variation.ctx_of_shapes theta_shapes)

let draw_lifetime rng model ~theta_shapes ~n =
  (* t ~ U[0,1] is drawn inside Variation (t_frac = None), immediately before
     each realization — the same stream order as drawing t explicitly here. *)
  Variation.draw_many rng (to_variation model) (Variation.ctx_of_shapes theta_shapes) ~n

let fit_aging_aware ?pool rng model network data =
  (* [Training.fit_under] derives the train/val streams with [Rng.split];
     the previous implementation used [Rng.copy] for the training stream,
     which aliased the caller's generator — every later draw from [rng]
     replayed the training noise values (see docs/INTERNALS.md). *)
  Training.fit_under ?pool rng ~model:(to_variation model) network data

let accuracy_over_lifetime rng model network ~t_fracs ~n ~x ~y =
  let shapes = Network.theta_shapes network in
  List.map
    (fun t_frac ->
      (* Array.init draws in index order: draw, evaluate, draw, ... *)
      let accuracies =
        Array.init n (fun _ ->
            let noise = draw rng model ~t_frac ~theta_shapes:shapes in
            Evaluation.accuracy_under network noise ~x ~y)
      in
      (t_frac, Evaluation.summarize accuracies))
    t_fracs
