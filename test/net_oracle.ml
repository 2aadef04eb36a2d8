(* The Monte-Carlo oracles for the compiled network paths.

   Both build fresh, uncompiled graphs on [Pnn.Network.loss], one draw at a
   time, each circuit's η through its own one-row surrogate pass: no η
   stage, no stacked rows, no compiled draw graph.  The library's batched
   paths ([Network.mc_loss_pooled], [mc_loss_value], [draws_loss_and_grads],
   [mc_logits]) are held to them bit for bit, so they share none of the
   stacking they check. *)

module A = Autodiff

(* One draw on a throwaway replica: the loss and copies of every gradient
   in canonical order (params_theta @ params_omega). *)
let draw_loss_and_grads_alloc t ~noise ~x ~labels =
  let replica = Pnn.Network.replicate t in
  let l = Pnn.Network.loss replica ~noise ~x ~labels in
  A.backward l;
  let grads =
    List.map
      (fun p -> Tensor.copy (A.grad p))
      (Pnn.Network.params_theta replica @ Pnn.Network.params_omega replica)
  in
  (Tensor.get (A.value l) 0 0, grads)

(* The mean of the draws' losses as one sequential graph: the losses added
   in draw order, then scaled by 1/n.  Its value is the pooled loss's; its
   gradients are not (the draws share one set of parameters here, so
   their shares meet in backward order). *)
let mc_loss t ~noises ~x ~labels =
  match noises with
  | [] -> invalid_arg "Net_oracle.mc_loss: no noise draws"
  | first :: rest ->
      let n = float_of_int (List.length noises) in
      let total =
        List.fold_left
          (fun acc noise -> A.add acc (Pnn.Network.loss t ~noise ~x ~labels))
          (Pnn.Network.loss t ~noise:first ~x ~labels)
          rest
      in
      A.scale (1.0 /. n) total
