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

let params_theta t = List.concat_map Layer.params_theta t.layers
let params_omega t = List.concat_map Layer.params_omega t.layers

let replicate t = { layers = List.map Layer.replicate t.layers; config = t.config }

(* {2 Compiled graphs}

   Every hot path — training draws, Monte-Carlo evaluation and serving —
   runs compiled graphs, split at η:

   - The η stage ({!stage}) evaluates the surrogate η̂ for every draw of a
     fan-out at once: the printable-ω rows of every (draw, layer, circuit)
     stacked into one {!Nonlinear.eta_rows} batch of [draws · 2·layers]
     rows, over a replica of the master's 𝔴 leaves and a const leaf of the
     stacked ε_ω.  It runs on the calling domain before the fan-out and,
     for a loss, once more after it: one surrogate backward seeded with
     every draw's ∂L/∂η rows, which folds each circuit's 𝔴 gradient in
     draw order.  A stage is compiled for the exact draw count: a fit's
     training and validation counts, and an evaluation's, are fixed for
     the whole run.  Serving, whose requests name any count, pads it
     ({!padded_draws}) with nominal rows so the set of compiled stages
     stays small; row independence keeps padding from touching a real
     row, and a padded stage never runs backward.

   - A draw graph ({!graph}) is the rest of the network over a fresh
     replica (fresh θ leaves, per layer a const θ-noise leaf and two 1 × 4
     η leaves, a const input leaf of a fixed batch shape and, for a loss
     graph, an owned labels buffer) plus its topological tape: the
     crossbars, the activations, the logit scale and the loss.  Each call
     blits the batch, the labels, the master's current θ, the draw's θ
     noise and its η rows from the stage into the leaves and re-runs the
     forward pass in place — bit-identical to building a throwaway replica,
     without the build-and-discard churn.  The batch is copied in, never
     aliased, so any tensor of the compiled shape reuses the graph and an
     input mutated in place between calls is seen.

   Both keep their part of a call's work to what changed.  A stage re-runs
   only when a 𝔴 or ε_ω bit changed since its last run.  A draw graph's
   tape is split once ({!A.split}) into the nodes that depend on the input
   leaf (crossbar matmuls and division, activations, logit scale, loss)
   and those that do not (θ projection and variation, crossbar
   denominator); the second part re-runs only when a θ or θ-noise bit
   changed.  Nominal prediction — a one-draw {!mc_logits} with the
   all-ones draw, as serving and {!Evaluation.nominal_accuracy} run it —
   of a read-only master therefore runs neither the surrogate nor the θ
   part, while every Monte-Carlo draw runs both.

   Every op on either path is row-independent (matmul row i reads only
   input row i; activations, the scaler and the logit scale are
   elementwise), so each row of a logits graph's root is bit-identical to
   running that row alone through {!predict}, and each η row to its
   circuit's one-row surrogate pass: neither batch composition nor the
   other draws of a stage ever change an answer. *)

let forward_nodes t ~draw_nodes x =
  List.fold_left2
    (fun acc layer nodes -> Layer.forward_nodes t.config layer nodes acc)
    x t.layers draw_nodes

type graph = {
  g_master : t; (* physical-identity key *)
  g_rows : int;
  g_cols : int;
  g_x : A.t; (* const leaf the batch is blitted into *)
  g_labels : Tensor.t option; (* loss graphs: the buffer the labels are blitted into *)
  g_replica_theta : A.t list;
  g_master_theta : A.t list;
  g_draw : Layer.draw_nodes list;
  g_root : A.t; (* loss (1×1) or scaled logits (rows × outputs) *)
  g_fixed : A.tape; (* nodes that do not depend on [g_x] *)
  g_varying : A.tape; (* nodes downstream of [g_x] *)
  (* pnnlint:allow R7 a compiled graph is confined to the domain that
     compiled it: [cached] keeps one cache per domain (DLS) *)
  mutable g_stale : bool; (* a leaf changed and [g_fixed] has not re-run *)
}

let compile ~loss t ~rows ~cols =
  let replica = replicate t in
  let draw_nodes = List.map Layer.draw_nodes replica.layers in
  let x_leaf = A.const (Tensor.zeros rows cols) in
  let logits =
    A.scale t.config.Config.logit_scale (forward_nodes replica ~draw_nodes x_leaf)
  in
  let labels, root =
    if loss then
      let labels = Tensor.zeros rows (Tensor.cols (A.value logits)) in
      (Some labels, A.softmax_cross_entropy ~logits ~labels)
    else (None, logits)
  in
  let fixed, varying = A.split (A.compile root) ~input:x_leaf in
  {
    g_master = t;
    g_rows = rows;
    g_cols = cols;
    g_x = x_leaf;
    g_labels = labels;
    g_replica_theta = params_theta replica;
    g_master_theta = params_theta t;
    g_draw = draw_nodes;
    g_root = root;
    g_fixed = fixed;
    g_varying = varying;
    (* building the graph evaluated every node from the leaves as they are *)
    g_stale = false;
  }

(* A stage is confined to the domain that compiled it, like a draw graph.
   During a fan-out the draws, on any domain, only read [s_eta]; the stage
   is written again only after the fan-out has joined. *)
type stage = {
  s_master : t; (* physical-identity key *)
  s_draws : int; (* the draw count it was compiled for *)
  s_circuits : int; (* 2 per layer: act, then neg *)
  s_raws : A.t list; (* replica 𝔴 leaves, circuit order *)
  s_master_raws : A.t list; (* same order on the master *)
  s_noise : A.t; (* const leaf: the stacked ε_ω, (s_draws · s_circuits) × 7 *)
  s_stacked : Tensor.t; (* a call's ε_ω, stacked here, then blitted into s_noise *)
  s_nominal : Tensor.t; (* one draw's all-ones rows, for padding *)
  s_eta : Tensor.t; (* the root's value: row r is circuit r mod k's η in draw r / k *)
  s_tape : A.tape;
  s_seed : Tensor.t; (* ∂L/∂η rows gathered from the draws, shaped like s_eta *)
  s_shares : Tensor.t; (* after a backward: row r is circuit r mod k's 𝔴 gradient in draw r / k *)
}

(* The next power of two, as serving pads batches: at most 1 + log2 n
   stage shapes for any sequence of draw counts up to n. *)
let padded_draws n =
  let rec pow2 k = if k >= n then k else pow2 (2 * k) in
  pow2 1

let circuits t = List.concat_map (fun l -> [ l.Layer.act; l.Layer.neg ]) t.layers

let compile_stage t ~draws =
  let replica = replicate t in
  let cs = Array.of_list (circuits replica) in
  let k = Array.length cs and d = Surrogate.Design_space.dim in
  let noise = A.const (Tensor.ones (draws * k) d) in
  let root, shares = Nonlinear.eta_rows cs ~noise in
  {
    s_master = t;
    s_draws = draws;
    s_circuits = k;
    s_raws = params_omega replica;
    s_master_raws = params_omega t;
    s_noise = noise;
    s_stacked = Tensor.ones (draws * k) d;
    s_nominal = Tensor.ones k d;
    s_eta = A.value root;
    s_tape = A.compile root;
    s_seed = Tensor.zeros (draws * k) Nonlinear.eta_dim;
    s_shares = shares;
  }

(* {3 Per-domain caches}

   Autodiff graphs are single-domain mutable state and pool workers are
   long-lived domains, so each domain keeps its own draw graphs and
   stages, each in an LRU.  Draw graphs are keyed by (master identity,
   batch shape, loss or logits): training touches a loss graph per data
   split, evaluation a logits graph per test set, and serving pads batches
   to a small set of row counts.  Stages are keyed by (master identity,
   draw count): a run's fixed counts, plus the serving counts that
   {!padded_draws} bounds.  The working sets are tiny; LRU keeps a
   rebuild from ever being per-request. *)

let rec take n = function
  | [] -> []
  | _ when n <= 0 -> []
  | e :: rest -> e :: take (n - 1) rest

(* A hit moves to the front; a new entry goes in front and the last one
   past [capacity] drops out. *)
let lru_hit cache p =
  (match !cache with
  | front :: _ when front == p -> ()
  | _ -> cache := p :: List.filter (fun p' -> p' != p) !cache);
  p

let lru_add cache ~capacity p =
  cache := take capacity (p :: !cache);
  p

let graphs : graph list ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref [])
let stages : stage list ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref [])

let cached ~loss t ~rows ~cols =
  let cache = Domain.DLS.get graphs in
  let hit g =
    g.g_master == t && g.g_rows = rows && g.g_cols = cols
    && Option.is_some g.g_labels = loss
  in
  match List.find_opt hit !cache with
  | Some g -> lru_hit cache g
  | None -> lru_add cache ~capacity:12 (compile ~loss t ~rows ~cols)

let stage_cached t ~draws =
  let cache = Domain.DLS.get stages in
  match List.find_opt (fun s -> s.s_master == t && s.s_draws = draws) !cache with
  | Some s -> lru_hit cache s
  | None -> lru_add cache ~capacity:16 (compile_stage t ~draws)

(* {3 Validation}

   A whole call is validated before any leaf is written, so a rejected call
   leaves every graph and stage exactly as the previous call left them. *)

let rec check_layers who i layers noise =
  match (layers, noise) with
  | layer :: layers, layer_noise :: noise -> (
      match Layer.noise_misfit layer layer_noise with
      | Some what ->
          invalid_arg (Printf.sprintf "%s: layer %d %s noise shape mismatch" who i what)
      | None -> check_layers who (i + 1) layers noise)
  | _ -> ()

let check_noise who t noise =
  if List.length noise <> List.length t.layers then
    invalid_arg (who ^ ": noise/layer count mismatch");
  check_layers who 0 t.layers noise

let rec last = function [ l ] -> l | _ :: rest -> last rest | [] -> invalid_arg "Network: no layers"

let check_draws who t ?labels ~x noises =
  if Array.length noises = 0 then invalid_arg (who ^ ": no noise draws");
  (match labels with
  | Some l when Tensor.rows l <> Tensor.rows x || Tensor.cols l <> Layer.outputs (last t.layers)
    ->
      invalid_arg (who ^ ": labels shape mismatch")
  | Some _ | None -> ());
  for d = 0 to Array.length noises - 1 do
    check_noise who t noises.(d)
  done

(* {3 Running them} *)

let rec stack_omega dst row = function
  | [] -> ()
  | (ln : Noise.layer_noise) :: rest ->
      Tensor.blit_rows ~src:ln.Noise.act_omega 0 ~dst row 1;
      Tensor.blit_rows ~src:ln.Noise.neg_omega 0 ~dst (row + 1) 1;
      stack_omega dst (row + 2) rest

(* The η prologue: this domain's stage for [noises] (for [pad], for their
   count rounded up by {!padded_draws}), stacked and re-run if a bit
   changed.  Padding rows are reset to nominal. *)
let run_stage ?(pad = false) t noises =
  let n = Array.length noises in
  let s = stage_cached t ~draws:(if pad then padded_draws n else n) in
  let k = s.s_circuits in
  for d = 0 to n - 1 do
    stack_omega s.s_stacked (d * k) noises.(d)
  done;
  for d = n to s.s_draws - 1 do
    Tensor.blit_rows ~src:s.s_nominal 0 ~dst:s.s_stacked (d * k) k
  done;
  let noise_changed = A.update_value s.s_noise s.s_stacked in
  let params_changed =
    List.fold_left2
      (fun changed rp mp -> A.update_value rp (A.value mp) || changed)
      false s.s_raws s.s_master_raws
  in
  if noise_changed || params_changed then A.refresh s.s_tape;
  s

(* Draw graph η leaves <-> stage rows, layer by layer from [row]. *)
let rec feed_eta eta row = function
  | [] -> ()
  | (nodes : Layer.draw_nodes) :: rest ->
      Tensor.blit_rows ~src:eta row ~dst:(A.value nodes.Layer.act_eta) 0 1;
      Tensor.blit_rows ~src:eta (row + 1) ~dst:(A.value nodes.Layer.neg_eta) 0 1;
      feed_eta eta (row + 2) rest

let rec gather_eta_grads dst row = function
  | [] -> ()
  | (nodes : Layer.draw_nodes) :: rest ->
      Tensor.blit_rows ~src:(A.grad nodes.Layer.act_eta) 0 ~dst row 1;
      Tensor.blit_rows ~src:(A.grad nodes.Layer.neg_eta) 0 ~dst (row + 1) 1;
      gather_eta_grads dst (row + 2) rest

(* One draw on a draw graph: blit everything in, re-run what the new bits
   reach, and return the live root buffer.  The call was validated. *)
let run_draw g s d ?labels ~noise x =
  A.set_value g.g_x x;
  (match (g.g_labels, labels) with
  | Some buf, Some l -> Tensor.blit ~src:l ~dst:buf
  | _ -> ());
  (* The master is read-only at serve time, but re-copying keeps the graph
     correct when the master trains between calls. *)
  let params_changed =
    List.fold_left2
      (fun changed rp mp -> A.update_value rp (A.value mp) || changed)
      false g.g_replica_theta g.g_master_theta
  in
  let noise_changed =
    List.fold_left2
      (fun changed nodes layer_noise -> Layer.update_theta_noise nodes layer_noise || changed)
      false g.g_draw noise
  in
  (* η feeds only input-dependent nodes: the varying part re-reads it *)
  feed_eta s.s_eta (d * s.s_circuits) g.g_draw;
  if params_changed || noise_changed then g.g_stale <- true;
  if g.g_stale then begin
    A.refresh g.g_fixed;
    g.g_stale <- false
  end;
  A.refresh g.g_varying;
  A.value g.g_root

let mc_logits ?pad pool t ~noises x ~f =
  check_draws "Network.mc_logits" t ~x noises;
  let s = run_stage ?pad t noises in
  Parallel.Pool.mapi_array pool
    (fun d noise ->
      let g = cached ~loss:false t ~rows:(Tensor.rows x) ~cols:(Tensor.cols x) in
      f (run_draw g s d ~noise x))
    noises

(* One draw on this domain's loss graph: the loss. *)
let draw_loss t s d ~noise ~x ~labels =
  let g = cached ~loss:true t ~rows:(Tensor.rows x) ~cols:(Tensor.cols x) in
  (g, Tensor.get (run_draw g s d ~labels ~noise x) 0 0)

(* Every draw's loss and gradients: the η prologue, the draws over the
   pool, each returning its loss, its θ gradients (copies: the graph's
   buffers are reused by the next draw) and its ∂L/∂η rows, then the η
   epilogue, one surrogate backward seeded with those rows.  Returns the
   stage, whose 𝔴 leaves then hold the draw-order fold of the 𝔴 gradients
   and [s_shares] each draw's, and the draws' results.  The stage has
   exactly one row block per draw, so every seed row is a draw's. *)
let run_draws who pool t ~noises ~x ~labels =
  check_draws who t ~labels ~x noises;
  let s = run_stage t noises in
  let k = s.s_circuits in
  let per_draw =
    Parallel.Pool.mapi_array pool
      (fun d noise ->
        let g, l = draw_loss t s d ~noise ~x ~labels in
        A.backward_tape g.g_varying;
        let deta = Tensor.zeros k Nonlinear.eta_dim in
        gather_eta_grads deta 0 g.g_draw;
        (l, List.map (fun p -> Tensor.copy (A.grad p)) g.g_replica_theta, deta))
      noises
  in
  Array.iteri (fun d (_, _, deta) -> Tensor.blit_rows ~src:deta 0 ~dst:s.s_seed (d * k) k) per_draw;
  A.backward_seeded s.s_tape s.s_seed;
  (s, per_draw)

(* Each draw's loss and gradients, its 𝔴 ones read off the stage's
   per-row shares. *)
let draws_loss_and_grads pool t ~noises ~x ~labels =
  let s, per_draw = run_draws "Network.draws_loss_and_grads" pool t ~noises ~x ~labels in
  let k = s.s_circuits in
  Array.mapi
    (fun d (l, theta, _) ->
      let omega =
        List.init k (fun c ->
            let g = Tensor.zeros 1 Surrogate.Design_space.dim in
            Tensor.blit_rows ~src:s.s_shares ((d * k) + c) ~dst:g 0 1;
            g)
      in
      (l, theta @ omega))
    per_draw

let mc_loss_pooled pool t ~noises ~x ~labels =
  let s, per_draw =
    run_draws "Network.mc_loss_pooled" pool t ~noises:(Array.of_list noises) ~x ~labels
  in
  (* Ordered reduction over the draw index: the summation order is fixed
     by the draw order alone, so the result is bit-identical for any
     worker count.  Draw 0's θ gradient copies double as the accumulators;
     every later draw is added into them in place.  The 𝔴 gradients came
     out of the stage's surrogate backward folded the same way. *)
  let total_loss = ref 0.0 and theta = ref [] in
  Array.iteri
    (fun d (l, grads, _) ->
      total_loss := !total_loss +. l;
      if d = 0 then theta := grads
      else List.iter2 (fun acc g -> Tensor.add_into acc g ~dst:acc) !theta grads)
    per_draw;
  let grads = !theta @ List.map (fun r -> Tensor.copy (A.grad r)) s.s_raws in
  let inv_n = 1.0 /. float_of_int (Array.length per_draw) in
  List.iter (fun g -> Tensor.scale_into inv_n g ~dst:g) grads;
  A.precomputed
    ~value:(Tensor.scalar (!total_loss *. inv_n))
    (List.combine (params_theta t @ params_omega t) grads)

(* Forward-only pooled MC loss value: per-draw losses from the loss graphs
   (no backward pass), folded in draw order and scaled by 1/n — the mean
   of the one-draw losses, summed from draw 0 on. *)
let mc_loss_value pool t ~noises ~x ~labels =
  let who = "Network.mc_loss_value" in
  let noises = Array.of_list noises in
  check_draws who t ~labels ~x noises;
  let s = run_stage t noises in
  let per_draw =
    Parallel.Pool.mapi_array pool
      (fun d noise -> snd (draw_loss t s d ~noise ~x ~labels))
      noises
  in
  let total = ref per_draw.(0) in
  for i = 1 to Array.length per_draw - 1 do
    total := !total +. per_draw.(i)
  done;
  !total *. (1.0 /. float_of_int (Array.length per_draw))

type weights = (Tensor.t * Tensor.t * Tensor.t) list

let snapshot t = List.map Layer.snapshot t.layers
let restore t ws = List.iter2 Layer.restore t.layers ws
