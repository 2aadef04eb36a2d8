type adam_state = { m : float array; v : float array }

type t = {
  lr : float;
  beta1 : float;
  beta2 : float;
  eps : float;
  (* pnnlint:allow R7 optimizer state is per-trainer and stays on the domain
     running the update loop; parallel sweeps build one optimizer per worker *)
  mutable steps : int;
  table : (int, adam_state) Hashtbl.t;
}

let adam ?(beta1 = 0.9) ?(beta2 = 0.999) ?(eps = 1e-8) ~lr () =
  { lr; beta1; beta2; eps; steps = 0; table = Hashtbl.create 16 }

(* Parameter leaves persist across training steps (graphs are rebuilt around
   them), so the node id is a stable key for per-parameter state. *)
let key_of node = Autodiff.id node

(* {2 Checkpoint codec}

   Self-describing {!Lines} ([%h] floats for bit-exact round-trips, explicit
   counts so empty arrays parse unambiguously).  Hashtbl keys are
   process-local node ids, so the codec addresses state positionally by the
   caller's parameter list and re-keys on restore. *)

let param_size node = Tensor.numel (Autodiff.value node)

let state_lines t params =
  let per_param node =
    let s =
      match Hashtbl.find_opt t.table (key_of node) with
      | Some s -> s
      | None ->
          (* never stepped yet: zeros are what the first step would see *)
          let n = param_size node in
          { m = Array.make n 0.0; v = Array.make n 0.0 }
    in
    [ Lines.counted_line "m" s.m; Lines.counted_line "v" s.v ]
  in
  Printf.sprintf "adam %d %d" t.steps (List.length params) :: List.concat_map per_param params

let fmt = "Optimizer"

(* The whole section is read and checked before anything is installed, so a
   caller restoring several optimizers can refuse the lot before touching
   any of them. *)
let read_state t params lines =
  match lines with
  | first :: rest -> (
      match Lines.words first with
      | [ "adam"; tt; np ] ->
          let steps = Lines.int_field ~fmt "step count" tt in
          if Lines.count_field ~fmt "parameter count" np <> List.length params then
            failwith "Optimizer: parameter count mismatch";
          let moments, rest =
            Lines.take ~fmt "moment" ~n:(List.length params) ~width:2
              (fun line ->
                { m = Lines.counted_of_line ~fmt "m" (line 0); v = Lines.counted_of_line ~fmt "v" (line 1) })
              rest
          in
          List.iter2
            (fun node s ->
              let n = param_size node in
              if Array.length s.m <> n || Array.length s.v <> n then
                failwith "Optimizer: moment size mismatch")
            params moments;
          let install () =
            t.steps <- steps;
            Hashtbl.reset t.table;
            List.iter2 (fun node s -> Hashtbl.replace t.table (key_of node) s) params moments
          in
          (install, rest)
      | _ -> failwith "Optimizer: bad state header")
  | [] -> failwith "Optimizer: missing state section"

let step t nodes =
  List.iter
    (fun node ->
      if not (Autodiff.is_param node) then
        invalid_arg "Optimizer.step: node is not a parameter")
    nodes;
  t.steps <- t.steps + 1;
  let bc1 = 1.0 -. (t.beta1 ** float_of_int t.steps) in
  let bc2 = 1.0 -. (t.beta2 ** float_of_int t.steps) in
  (* One fused call over all leaves (a single stub call). *)
  let items =
    List.map
      (fun node ->
        let value = Autodiff.value node and grad = Autodiff.grad node in
        let n = param_size node in
        let state =
          let k = key_of node in
          match Hashtbl.find_opt t.table k with
          | Some s -> s
          | None ->
              let s = { m = Array.make n 0.0; v = Array.make n 0.0 } in
              Hashtbl.add t.table k s;
              s
        in
        (value, grad, state.m, state.v))
      nodes
  in
  Tensor.adam_step_many ~lr:t.lr ~beta1:t.beta1 ~beta2:t.beta2 ~eps:t.eps ~bc1 ~bc2 items
