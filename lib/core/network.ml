module A = Autodiff

type t = { layers : Layer.t list; config : Config.t }

let create_deep ?init rng config surrogate ~sizes =
  let rec pairs = function
    | a :: (b :: _ as rest) -> (a, b) :: pairs rest
    | [ _ ] | [] -> []
  in
  if List.length sizes < 2 then invalid_arg "Network.create_deep: need >= 2 sizes";
  let layers =
    List.map
      (fun (inputs, outputs) -> Layer.create ?init rng config surrogate ~inputs ~outputs)
      (pairs sizes)
  in
  { layers; config }

let create ?init rng config surrogate ~inputs ~outputs =
  create_deep ?init rng config surrogate ~sizes:[ inputs; config.Config.hidden; outputs ]

let of_layers config layers =
  (match layers with [] -> invalid_arg "Network.of_layers: no layers" | _ -> ());
  let rec check = function
    | a :: (b :: _ as rest) ->
        if Layer.outputs a <> Layer.inputs b then
          invalid_arg "Network.of_layers: layer widths do not chain";
        check rest
    | [ _ ] | [] -> ()
  in
  check layers;
  { layers; config }

let layers t = t.layers
let config t = t.config
let theta_shapes t = List.map Layer.theta_shape t.layers

let forward t ~noise x =
  if List.length noise <> List.length t.layers then
    invalid_arg "Network.forward: noise/layer count mismatch";
  List.fold_left2
    (fun acc layer layer_noise -> Layer.forward t.config layer ~noise:layer_noise acc)
    x t.layers noise

let logits t ~noise x =
  A.scale t.config.Config.logit_scale (forward t ~noise (A.const x))

let predict t ~noise x = Tensor.argmax_rows (A.value (logits t ~noise x))

let loss t ~noise ~x ~labels =
  A.softmax_cross_entropy ~logits:(logits t ~noise x) ~labels

let mc_loss t ~noises ~x ~labels =
  match noises with
  | [] -> invalid_arg "Network.mc_loss: no noise draws"
  | _ ->
      let n = float_of_int (List.length noises) in
      let total =
        List.fold_left
          (fun acc noise ->
            let l = loss t ~noise ~x ~labels in
            match acc with None -> Some l | Some s -> Some (A.add s l))
          None noises
      in
      (match total with Some s -> A.scale (1.0 /. n) s | None -> assert false)

let params_theta t = List.concat_map Layer.params_theta t.layers
let params_omega t = List.concat_map Layer.params_omega t.layers

let replicate t = { layers = List.map Layer.replicate t.layers; config = t.config }

(* Reference implementation: a throwaway replica per draw.  Kept as the
   bit-identity tests' oracle for {!draw_loss_and_grads}. *)
let draw_loss_and_grads_alloc t ~noise ~x ~labels =
  let replica = replicate t in
  let l = loss replica ~noise ~x ~labels in
  A.backward l;
  let grads =
    List.map (fun p -> Tensor.copy (A.grad p)) (params_theta replica @ params_omega replica)
  in
  (Tensor.get (A.value l) 0 0, grads)

(* {2 Compiled graphs}

   A compiled graph is a full autodiff graph over a fresh replica of the
   master (fresh param leaves, const noise leaves, a const input leaf of a
   fixed batch shape and, for a loss graph, an owned labels buffer) plus
   its topological tape.  Training draws, Monte-Carlo evaluation and
   serving all run one: each call blits the batch, the labels, the
   master's current parameters and the noise draw into the graph and
   re-runs the forward pass in place over the same node structure —
   bit-identical to building a throwaway replica, without the
   build-and-discard allocation churn.  The batch is copied in, never
   aliased, so any tensor of the compiled shape reuses the graph and an
   input mutated in place between calls is seen.

   The tape is split once ({!A.split}) into the nodes that depend on the
   input leaf (crossbar matmuls and division, activations, logit scale,
   loss) and those that do not (surrogate η̂(ω), θ projection, crossbar
   denominator).  A call notes whether any parameter or noise bit changed
   while copying them in; only then is the parameter-only part re-run.
   Nominal serving of a read-only master therefore runs just the
   input-dependent part, while every Monte-Carlo draw, which changes the
   noise, runs both.

   Because every op up to the logits is row-independent (matmul row i
   reads only input row i; activations and the logit scale are
   elementwise), each row of a logits graph's root is bit-identical to
   running that row alone through {!predict} — batch composition never
   changes an answer. *)

let forward_nodes t ~noise_nodes x =
  List.fold_left2
    (fun acc layer nodes -> Layer.forward_nodes t.config layer nodes acc)
    x t.layers noise_nodes

type predictor = {
  p_master : t; (* physical-identity key *)
  p_rows : int;
  p_cols : int;
  p_x : A.t; (* const leaf the batch is blitted into *)
  p_labels : Tensor.t option; (* loss graphs: the buffer the labels are blitted into *)
  p_replica_params : A.t list; (* canonical order: theta @ omega *)
  p_master_params : A.t list; (* same order on the master *)
  p_noise : Layer.noise_nodes list;
  p_nominal : Noise.t; (* all-ones draw, reused when no draw is given *)
  p_root : A.t; (* loss (1×1) or scaled logits (rows × outputs) *)
  p_fixed : A.tape; (* nodes that do not depend on [p_x] *)
  p_varying : A.tape; (* nodes downstream of [p_x] *)
  (* pnnlint:allow R7 a compiled graph is confined to the domain that
     compiled it: [cached] keeps one cache per domain (DLS) *)
  mutable p_stale : bool; (* a leaf changed and [p_fixed] has not re-run *)
}

let compile ~loss t ~rows ~cols =
  let replica = replicate t in
  let nominal = Noise.none ~theta_shapes:(theta_shapes t) in
  let noise_nodes = List.map Layer.noise_nodes_of nominal in
  let x_leaf = A.const (Tensor.zeros rows cols) in
  let logits =
    A.scale t.config.Config.logit_scale (forward_nodes replica ~noise_nodes x_leaf)
  in
  let labels, root =
    if loss then
      let labels = Tensor.zeros rows (Tensor.cols (A.value logits)) in
      (Some labels, A.softmax_cross_entropy ~logits ~labels)
    else (None, logits)
  in
  let fixed, varying = A.split (A.compile root) ~input:x_leaf in
  {
    p_master = t;
    p_rows = rows;
    p_cols = cols;
    p_x = x_leaf;
    p_labels = labels;
    p_replica_params = params_theta replica @ params_omega replica;
    p_master_params = params_theta t @ params_omega t;
    p_noise = noise_nodes;
    p_nominal = nominal;
    p_root = root;
    p_fixed = fixed;
    p_varying = varying;
    (* building the graph evaluated every node from the leaves as they are *)
    p_stale = false;
  }

let compile_predictor t ~rows ~cols = compile ~loss:false t ~rows ~cols

(* Validate the whole call before any leaf is written, so a rejected call
   leaves the graph exactly as the previous call left it. *)
let check_call who p ~labels ~noise x =
  if Tensor.rows x <> p.p_rows || Tensor.cols x <> p.p_cols then
    invalid_arg (who ^ ": batch shape mismatch");
  let labels_fit =
    match (p.p_labels, labels) with
    | Some buf, Some l -> Tensor.rows l = Tensor.rows buf && Tensor.cols l = Tensor.cols buf
    | None, None -> true
    | Some _, None | None, Some _ -> false
  in
  if not labels_fit then invalid_arg (who ^ ": labels shape mismatch");
  if List.length noise <> List.length p.p_noise then
    invalid_arg (who ^ ": noise/layer count mismatch");
  let rec check i nodes noise =
    match (nodes, noise) with
    | n :: nodes, l :: noise -> (
        match Layer.noise_misfit n l with
        | Some what ->
            invalid_arg (Printf.sprintf "%s: layer %d %s noise shape mismatch" who i what)
        | None -> check (i + 1) nodes noise)
    | _ -> ()
  in
  check 0 p.p_noise noise

(* One call: blit everything in, re-run what the new bits reach, and return
   the live root buffer. *)
let run who p ?labels ~noise x =
  check_call who p ~labels ~noise x;
  A.set_value p.p_x x;
  (match (p.p_labels, labels) with
  | Some buf, Some l -> Tensor.blit ~src:l ~dst:buf
  | _ -> ());
  (* The master is read-only at serve time, but re-copying keeps the graph
     correct when the master trains between calls. *)
  let params_changed =
    List.fold_left2
      (fun changed rp mp -> A.update_value rp (A.value mp) || changed)
      false p.p_replica_params p.p_master_params
  in
  let noise_changed =
    List.fold_left2
      (fun changed nodes layer_noise -> Layer.update_noise_nodes nodes layer_noise || changed)
      false p.p_noise noise
  in
  if params_changed || noise_changed then p.p_stale <- true;
  if p.p_stale then begin
    A.refresh p.p_fixed;
    p.p_stale <- false
  end;
  A.refresh p.p_varying;
  A.value p.p_root

let predictor_logits p ?noise x =
  let noise = match noise with Some n -> n | None -> p.p_nominal in
  run "Network.predictor_logits" p ~noise x

let predictor_predict p ?noise x = Tensor.argmax_rows (predictor_logits p ?noise x)

(* Per-domain graph cache, keyed by (master identity, batch shape, loss or
   logits).  Autodiff graphs are single-domain mutable state and pool
   workers are long-lived domains, so each domain keeps its own graphs.
   Training touches a loss graph per data split, evaluation a logits graph
   per test set, and serving pads batches to a small set of row counts, so
   the working set is tiny; LRU keeps a rebuild from ever being
   per-request. *)
let cache_capacity = 12

let cache : predictor list ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref [])

let rec take n = function
  | [] -> []
  | _ when n <= 0 -> []
  | e :: rest -> e :: take (n - 1) rest

let cached ~loss t ~rows ~cols =
  let cache = Domain.DLS.get cache in
  let hit p =
    p.p_master == t && p.p_rows = rows && p.p_cols = cols
    && Option.is_some p.p_labels = loss
  in
  match List.find_opt hit !cache with
  | Some p ->
      (match !cache with
      | front :: _ when front == p -> ()
      | _ -> cache := p :: List.filter (fun p' -> p' != p) !cache);
      p
  | None ->
      let p = compile ~loss t ~rows ~cols in
      cache := take cache_capacity (p :: !cache);
      p

let predictor_cached t ~rows ~cols = cached ~loss:false t ~rows ~cols

let loss_graph who t ~noise ~x ~labels =
  let g = cached ~loss:true t ~rows:(Tensor.rows x) ~cols:(Tensor.cols x) in
  (g, Tensor.get (run who g ~labels ~noise x) 0 0)

(* One Monte-Carlo draw on this domain's loss graph.  Returns the scalar
   loss and fresh copies of the gradients in the canonical parameter order
   (params_theta @ params_omega) — copies, because the accumulation buffers
   are reused by the next draw. *)
let draw_loss_and_grads t ~noise ~x ~labels =
  let g, l = loss_graph "Network.draw_loss_and_grads" t ~noise ~x ~labels in
  A.backward_tape g.p_varying;
  (l, List.map (fun p -> Tensor.copy (A.grad p)) g.p_replica_params)

let mc_loss_pooled pool t ~noises ~x ~labels =
  match noises with
  | [] -> invalid_arg "Network.mc_loss: no noise draws"
  | _ ->
      let draws = Array.of_list noises in
      let n = Array.length draws in
      let per_draw =
        Parallel.Pool.map_array pool
          (fun noise -> draw_loss_and_grads t ~noise ~x ~labels)
          draws
      in
      (* Ordered reduction over the draw index: the summation order is fixed
         by the draw order alone, so the result is bit-identical for any
         worker count.  Draw 0's gradient copies double as the accumulators;
         every later draw is added into them in place. *)
      let total_loss = ref 0.0 in
      let total_grads = ref [] in
      Array.iteri
        (fun i (l, grads) ->
          total_loss := !total_loss +. l;
          if i = 0 then total_grads := grads
          else
            List.iter2
              (fun acc g -> Tensor.add_into acc g ~dst:acc)
              !total_grads grads)
        per_draw;
      let inv_n = 1.0 /. float_of_int n in
      List.iter (fun g -> Tensor.scale_into inv_n g ~dst:g) !total_grads;
      A.precomputed
        ~value:(Tensor.scalar (!total_loss *. inv_n))
        (List.combine (params_theta t @ params_omega t) !total_grads)

(* Forward-only pooled MC loss value.  Per-draw losses come from the loss
   graphs (no backward pass); the draw-order fold and the final 1/n scale
   reproduce {!mc_loss}'s arithmetic exactly, so the value is bit-identical
   to [Tensor.get (A.value (mc_loss ...)) 0 0]. *)
let mc_loss_value pool t ~noises ~x ~labels =
  match noises with
  | [] -> invalid_arg "Network.mc_loss: no noise draws"
  | _ ->
      let draws = Array.of_list noises in
      let n = Array.length draws in
      let per_draw =
        Parallel.Pool.map_array pool
          (fun noise -> snd (loss_graph "Network.mc_loss_value" t ~noise ~x ~labels))
          draws
      in
      let total = ref per_draw.(0) in
      for i = 1 to n - 1 do
        total := !total +. per_draw.(i)
      done;
      !total *. (1.0 /. float_of_int n)

type weights = (Tensor.t * Tensor.t * Tensor.t) list

let snapshot t = List.map Layer.snapshot t.layers
let restore t ws = List.iter2 Layer.restore t.layers ws
