module T = Tensor

type t = {
  id : int;
  value : T.t;
  (* pnnlint:allow R7 tape nodes are confined to the domain that built the
     tape; parallel training replicates tapes per worker (see
     Network.replicate) *)
  mutable grad : T.t option; (* allocated lazily, zeroed in place *)
  parents : t list;
  push : t -> unit; (* propagate self's grad into parents' grads *)
  recompute : t -> unit; (* refresh [value] in place from parents' values *)
  kind : kind;
  needs_grad : bool; (* reachable from a Param leaf? *)
}

and kind = Param | Const | Op

(* Atomic: graphs are built concurrently by worker domains (one replica
   network per Monte-Carlo draw); ids must stay unique across domains. *)
let counter = Atomic.make 0
let next_id () = Atomic.fetch_and_add counter 1 + 1

let no_push _ = ()
let no_recompute _ = ()

let leaf kind value =
  {
    id = next_id ();
    value;
    grad = None;
    parents = [];
    push = no_push;
    recompute = no_recompute;
    kind;
    needs_grad = kind = Param;
  }

let param value = leaf Param value
let const value = leaf Const value
let value n = n.value
let is_param n = n.kind = Param
let id n = n.id

let grad_buffer n =
  match n.grad with
  | Some g -> g
  | None ->
      let g = T.zeros (T.rows n.value) (T.cols n.value) in
      n.grad <- Some g;
      g

let grad n = grad_buffer n
let zero_grad n = match n.grad with Some g -> T.fill g 0.0 | None -> ()

let set_value n t =
  if n.kind = Op then invalid_arg "Autodiff.set_value: node is not a leaf";
  if T.shape t <> T.shape n.value then
    invalid_arg "Autodiff.set_value: shape mismatch";
  T.blit ~src:t ~dst:n.value

let update_value n t =
  if n.kind = Op then invalid_arg "Autodiff.update_value: node is not a leaf";
  T.blit_changed ~src:t ~dst:n.value

let node ?(recompute = no_recompute) value parents push =
  {
    id = next_id ();
    value;
    grad = None;
    parents;
    push;
    recompute;
    kind = Op;
    needs_grad = List.exists (fun p -> p.needs_grad) parents;
  }

(* First accumulation lands on a freshly zeroed buffer, so [0.0 +. x]
   reproduces the old [T.add zeros g] bit-for-bit (including -0.0 -> +0.0). *)
let accum p g =
  if p.needs_grad then begin
    let dst = grad_buffer p in
    T.add_into dst g ~dst
  end

(* Per-node scratch buffers for backward temporaries: allocated on first
   backward, reused on every subsequent pass over the same graph.  Cells are
   captured per closure, so distinct replicas never share scratch. *)
let scratch cell rows cols =
  match !cell with
  | Some s -> s
  | None ->
      let s = T.zeros rows cols in
      cell := Some s;
      s

let scratch_like cell t = scratch cell (T.rows t) (T.cols t)

(* {1 Arithmetic} *)

let add a b =
  node (T.add a.value b.value) [ a; b ]
    ~recompute:(fun self -> T.add_into a.value b.value ~dst:self.value)
    (fun self ->
      if self.needs_grad then begin
        let g = grad_buffer self in
        accum a g;
        accum b g
      end)

let neg a =
  let sc = ref None in
  node (T.neg a.value) [ a ]
    ~recompute:(fun self -> T.neg_into a.value ~dst:self.value)
    (fun self ->
      if a.needs_grad then begin
        let g = grad_buffer self in
        let s = scratch_like sc g in
        T.neg_into g ~dst:s;
        accum a s
      end)

let scale k a =
  let sc = ref None in
  node (T.scale k a.value) [ a ]
    ~recompute:(fun self -> T.scale_into k a.value ~dst:self.value)
    (fun self ->
      if a.needs_grad then begin
        let g = grad_buffer self in
        let s = scratch_like sc g in
        T.scale_into k g ~dst:s;
        accum a s
      end)

(* {1 Nonlinearities}

   Each op runs the dedicated [unop] kernels rather than a generic
   [map f] helper: applying a [float -> float] closure per element boxes its
   argument and result on the minor heap, which dominated the training hot
   path's allocation profile.  The backward kernel fuses
   [g *. df x y] in one expression — bitwise identical to the former
   [map2_into df; mul_into g] pair (same operations, same order). *)

let unary_spec ~op a =
  let sc = ref None in
  let v = T.zeros (T.rows a.value) (T.cols a.value) in
  T.unop_into op a.value ~dst:v;
  node v [ a ]
    ~recompute:(fun self -> T.unop_into op a.value ~dst:self.value)
    (fun self ->
      if a.needs_grad then begin
        let g = grad_buffer self in
        let s = scratch_like sc g in
        T.unop_bwd_into op ~x:a.value ~y:self.value ~g ~dst:s;
        accum a s
      end)

let tanh a = unary_spec ~op:T.Tanh a
let sigmoid a = unary_spec ~op:T.Sigmoid a
let relu a = unary_spec ~op:T.Relu a

(* {1 Linear algebra} *)

let matmul a b =
  let sa = ref None and st = ref None and sb = ref None in
  node (T.matmul a.value b.value) [ a; b ]
    ~recompute:(fun self -> T.matmul_into a.value b.value ~dst:self.value)
    (fun self ->
      if self.needs_grad then begin
        let g = grad_buffer self in
        if a.needs_grad then begin
          let s = scratch_like sa a.value in
          T.matmul_nt_into g b.value ~dst:s;
          accum a s
        end;
        if b.needs_grad then begin
          let at = scratch st (T.cols a.value) (T.rows a.value) in
          T.transpose_into a.value ~dst:at;
          let s = scratch_like sb b.value in
          T.matmul_into at g ~dst:s;
          accum b s
        end
      end)

let add_rowvec m v =
  let sv = ref None in
  node (T.add_rowvec m.value v.value) [ m; v ]
    ~recompute:(fun self -> T.add_rowvec_into m.value v.value ~dst:self.value)
    (fun self ->
      if self.needs_grad then begin
        let g = grad_buffer self in
        accum m g;
        if v.needs_grad then begin
          let s = scratch_like sv v.value in
          T.sum_rows_into g ~dst:s;
          accum v s
        end
      end)

(* Fused dense-layer forward: one node for [unop (x·w +rowvec b)], the
   inner loop of every surrogate MLP evaluation (13 tiny layers per pNN
   layer per MC draw) where per-node dispatch dominated small-net cost.
   Forward runs the fused kernel (one stub call);
   backward replicates the legacy matmul -> add_rowvec -> unary node chain
   operation-for-operation, INCLUDING the [0.0 +. x] flush each
   intermediate node's first grad accumulation performed on its zeroed
   buffer — so trajectories are bit-identical to the unfused graph.  With
   [op] absent the unary stage vanishes (the legacy chain ended at the
   add_rowvec node). *)
let dense ?op x w b =
  let m = T.rows x.value and n = T.cols w.value in
  (* [pre] persists across passes (refreshed in place on recompute); with a
     nonlinearity it plays the add_rowvec node's value, otherwise it IS the
     output buffer. *)
  let pre = T.zeros m n in
  let out = match op with Some _ -> T.zeros m n | None -> pre in
  T.matmul_bias_unop_into ?op x.value w.value b.value ~pre ~out;
  let ssc = ref None and gac = ref None in
  let svc = ref None and sxc = ref None and atc = ref None and swc = ref None in
  node out [ x; w; b ]
    ~recompute:(fun self ->
      T.matmul_bias_unop_into ?op x.value w.value b.value ~pre ~out:self.value)
    (fun self ->
      if self.needs_grad then begin
        let g = grad_buffer self in
        (* unary stage: ga plays the add_rowvec node's grad buffer (zeroed,
           then accumulated once — the 0.0 +. s flush) *)
        let ga =
          match op with
          | Some u ->
              let s = scratch_like ssc g in
              T.unop_bwd_into u ~x:pre ~y:self.value ~g ~dst:s;
              let ga = scratch_like gac g in
              T.fill ga 0.0;
              T.add_into ga s ~dst:ga;
              ga
          | None -> g
        in
        (* add_rowvec stage: bias grad first, then the matmul stage — same
           accumulation order as the legacy chain.  The matmul node's grad
           buffer was 0.0 +. ga, and ga is itself a gradient buffer (the
           unary stage's, or this node's own): never −0.0, never a
           signalling NaN, so a second 0.0 +. leaves it bit-for-bit
           unchanged and ga stands in for it. *)
        if b.needs_grad then begin
          let sv = scratch svc 1 n in
          T.sum_rows_into ga ~dst:sv;
          accum b sv
        end;
        if x.needs_grad || w.needs_grad then begin
          let gm = ga in
          if x.needs_grad then begin
            let s = scratch_like sxc x.value in
            T.matmul_nt_into gm w.value ~dst:s;
            accum x s
          end;
          if w.needs_grad then begin
            let at = scratch atc (T.cols x.value) (T.rows x.value) in
            T.transpose_into x.value ~dst:at;
            let s = scratch_like swc w.value in
            T.matmul_into at gm ~dst:s;
            accum w s
          end
        end
      end)

let mul_rowvec m v =
  let sm = ref None and sv = ref None in
  node (T.mul_rowvec m.value v.value) [ m; v ]
    ~recompute:(fun self -> T.mul_rowvec_into m.value v.value ~dst:self.value)
    (fun self ->
      if self.needs_grad then begin
        let g = grad_buffer self in
        if m.needs_grad then begin
          let s = scratch_like sm g in
          T.mul_rowvec_into g v.value ~dst:s;
          accum m s
        end;
        if v.needs_grad then begin
          let s = scratch_like sm g in
          T.mul_into g m.value ~dst:s;
          let sv' = scratch_like sv v.value in
          T.sum_rows_into s ~dst:sv';
          accum v sv'
        end
      end)

(* {1 Structure} *)

let concat_rows a b =
  let sa = ref None and sb = ref None in
  node (T.concat_rows a.value b.value) [ a; b ]
    ~recompute:(fun self -> T.concat_rows_into a.value b.value ~dst:self.value)
    (fun self ->
      if self.needs_grad then begin
        let g = grad_buffer self in
        if a.needs_grad then begin
          let s = scratch_like sa a.value in
          T.slice_rows_into g 0 (T.rows a.value) ~dst:s;
          accum a s
        end;
        if b.needs_grad then begin
          let s = scratch_like sb b.value in
          T.slice_rows_into g (T.rows a.value) (T.rows b.value) ~dst:s;
          accum b s
        end
      end)

let slice_rows a start len =
  let sc = ref None in
  node
    (T.slice_rows a.value start len)
    [ a ]
    ~recompute:(fun self -> T.slice_rows_into a.value start len ~dst:self.value)
    (fun self ->
      if a.needs_grad then begin
        let g = grad_buffer self in
        let s = scratch_like sc a.value in
        T.embed_rows_into g start ~dst:s;
        accum a s
      end)

(* {1 Fused nodes} *)

let fused value parents ~recompute ~backward =
  node value parents
    ~recompute:(fun self -> recompute self.value)
    (fun self -> if self.needs_grad then backward (grad_buffer self))

let needs_grad n = n.needs_grad
let accumulate = accum

let scratch_of rows cols =
  let cell = ref None in
  fun () -> scratch cell rows cols

(* {1 Losses} *)

let softmax_rows_into m ~dst = T.softmax_rows_into m ~dst

let softmax_rows m =
  let out = T.zeros (T.rows m) (T.cols m) in
  softmax_rows_into m ~dst:out;
  out

let ce_loss probs labels =
  T.ce_loss_sum probs labels /. float_of_int (T.rows probs)

let softmax_cross_entropy ~logits ~labels =
  if T.shape logits.value <> T.shape labels then
    invalid_arg "Autodiff.softmax_cross_entropy: logits/labels shape mismatch";
  (* [probs] persists across passes: recompute refreshes it in place *)
  let probs = softmax_rows logits.value in
  let sc = ref None in
  node
    (T.scalar (ce_loss probs labels))
    [ logits ]
    ~recompute:(fun self ->
      softmax_rows_into logits.value ~dst:probs;
      T.set self.value 0 0 (ce_loss probs labels))
    (fun self ->
      if logits.needs_grad then begin
        let batch = float_of_int (T.rows probs) in
        let g = T.get (grad_buffer self) 0 0 /. batch in
        let s = scratch_like sc probs in
        T.sub_into probs labels ~dst:s;
        T.scale_into g s ~dst:s;
        accum logits s
      end)

let mse pred target =
  if T.shape pred.value <> T.shape target then
    invalid_arg "Autodiff.mse: shape mismatch";
  let diff = T.sub pred.value target in
  let n = float_of_int (T.numel target) in
  let sc = ref None in
  node
    (T.scalar (T.dot diff diff /. n))
    [ pred ]
    ~recompute:(fun self ->
      T.sub_into pred.value target ~dst:diff;
      T.set self.value 0 0 (T.dot diff diff /. n))
    (fun self ->
      if pred.needs_grad then begin
        let g = T.get (grad_buffer self) 0 0 in
        let s = scratch_like sc diff in
        T.scale_into (2.0 *. g /. n) diff ~dst:s;
        accum pred s
      end)

(* {1 Externally computed gradients} *)

let precomputed ~value pairs =
  if T.shape value <> (1, 1) then
    invalid_arg "Autodiff.precomputed: value must be 1x1";
  List.iter
    (fun (p, g) ->
      if T.shape p.value <> T.shape g then
        invalid_arg "Autodiff.precomputed: gradient shape mismatch")
    pairs;
  node value (List.map fst pairs) (fun self ->
      let s = T.get (grad_buffer self) 0 0 in
      List.iter (fun (p, g) -> accum p (T.scale s g)) pairs)

(* {1 Backward pass} *)

let reachable root =
  let seen = Hashtbl.create 256 in
  let acc = ref [] in
  let rec visit n =
    if not (Hashtbl.mem seen n.id) then begin
      Hashtbl.add seen n.id ();
      List.iter visit n.parents;
      acc := n :: !acc
    end
  in
  visit root;
  (* acc is in reverse topological order already: children before parents is
     what backward needs, and we consed each node after its parents. *)
  !acc

type tape = { root : t; order : t list; fwd : t list }

let compile root =
  let order = reachable root in
  { root; order; fwd = List.rev order }

let refresh tape = List.iter (fun n -> n.recompute n) tape.fwd

let split tape ~input =
  let downstream = Hashtbl.create 256 in
  Hashtbl.replace downstream input.id ();
  let fixed, varying =
    List.fold_left
      (fun (fixed, varying) n ->
        if n.id = input.id || List.exists (fun p -> Hashtbl.mem downstream p.id) n.parents
        then begin
          Hashtbl.replace downstream n.id ();
          (fixed, n :: varying)
        end
        else (n :: fixed, varying))
      ([], []) tape.fwd
  in
  ({ tape with fwd = List.rev fixed }, { tape with fwd = List.rev varying })

let backward_tape tape =
  if T.shape tape.root.value <> (1, 1) then
    invalid_arg "Autodiff.backward: root must be a 1x1 scalar";
  List.iter zero_grad tape.order;
  T.set (grad_buffer tape.root) 0 0 1.0;
  List.iter (fun n -> n.push n) tape.order

let backward_seeded tape seed =
  if T.shape tape.root.value <> T.shape seed then
    invalid_arg "Autodiff.backward_seeded: seed/root shape mismatch";
  List.iter zero_grad tape.order;
  T.blit ~src:seed ~dst:(grad_buffer tape.root);
  List.iter (fun n -> n.push n) tape.order

let backward root = backward_tape (compile root)
