type adam_state = { m : float array; v : float array }

type algo =
  | Sgd
  | Adam of {
      beta1 : float;
      beta2 : float;
      eps : float;
      mutable t : int;
      table : (int, adam_state) Hashtbl.t;
    }

(* pnnlint:allow R7 optimizer state is per-trainer and stays on the domain
   running the update loop; parallel sweeps build one optimizer per worker *)
type t = { mutable lr : float; algo : algo }

let sgd ~lr = { lr; algo = Sgd }

let adam ?(beta1 = 0.9) ?(beta2 = 0.999) ?(eps = 1e-8) ~lr () =
  { lr; algo = Adam { beta1; beta2; eps; t = 0; table = Hashtbl.create 16 } }

let lr t = t.lr
let set_lr t v = t.lr <- v

(* Parameter leaves persist across training steps (graphs are rebuilt around
   them), so the node id is a stable key for per-parameter state. *)
let key_of node = Autodiff.id node

(* {2 Checkpoint codec}

   Self-describing text lines mirroring lib/core/serialize.ml's conventions
   ([%h] floats for bit-exact round-trips, explicit counts so empty arrays
   parse unambiguously).  Hashtbl keys are process-local node ids, so the
   codec addresses state positionally by the caller's parameter list and
   re-keys on restore. *)

let float_words a =
  if Array.length a = 0 then ""
  else
    " " ^ String.concat " " (Array.to_list (Array.map (Printf.sprintf "%h") a))

let moment_line label a =
  Printf.sprintf "%s %d%s" label (Array.length a) (float_words a)

let moment_of_line label line =
  match String.split_on_char ' ' (String.trim line) with
  | l :: n :: words when l = label && int_of_string_opt n = Some (List.length words)
    ->
      Array.of_list (List.map float_of_string words)
  | _ -> failwith (Printf.sprintf "Optimizer: bad %s line" label)

let param_size node = Tensor.numel (Autodiff.value node)

let state_lines t params =
  match t.algo with
  | Sgd -> [ "sgd" ]
  | Adam a ->
      let per_param node =
        let s =
          match Hashtbl.find_opt a.table (key_of node) with
          | Some s -> s
          | None ->
              (* never stepped yet: zeros are what the first step would see *)
              let n = param_size node in
              { m = Array.make n 0.0; v = Array.make n 0.0 }
        in
        [ moment_line "m" s.m; moment_line "v" s.v ]
      in
      Printf.sprintf "adam %d %d" a.t (List.length params)
      :: List.concat_map per_param params

let restore_state t params lines =
  match (t.algo, lines) with
  | Sgd, "sgd" :: rest -> rest
  | Adam a, first :: rest -> (
      match String.split_on_char ' ' (String.trim first) with
      | [ "adam"; tt; np ] ->
          if int_of_string np <> List.length params then
            failwith "Optimizer: parameter count mismatch";
          a.t <- int_of_string tt;
          Hashtbl.reset a.table;
          List.fold_left
            (fun lines node ->
              match lines with
              | ml :: vl :: rest ->
                  let m = moment_of_line "m" ml
                  and v = moment_of_line "v" vl in
                  let n = param_size node in
                  if Array.length m <> n || Array.length v <> n then
                    failwith "Optimizer: moment size mismatch";
                  Hashtbl.replace a.table (key_of node) { m; v };
                  rest
              | _ -> failwith "Optimizer: truncated state")
            rest params
      | _ -> failwith "Optimizer: bad state header")
  | _, _ -> failwith "Optimizer: algorithm/state mismatch"

let step t nodes =
  List.iter
    (fun node ->
      if not (Autodiff.is_param node) then
        invalid_arg "Optimizer.step: node is not a parameter")
    nodes;
  match t.algo with
  | Sgd ->
      List.iter
        (fun node ->
          let value = Autodiff.value node and grad = Autodiff.grad node in
          Tensor.sgd_step ~lr:t.lr ~grad value)
        nodes
  | Adam a ->
      a.t <- a.t + 1;
      let bc1 = 1.0 -. (a.beta1 ** float_of_int a.t) in
      let bc2 = 1.0 -. (a.beta2 ** float_of_int a.t) in
      (* One fused call over all leaves (a single stub call); per-item
         updates are bit-identical to the former per-node Tensor.adam_step
         loop. *)
      let items =
        List.map
          (fun node ->
            let value = Autodiff.value node and grad = Autodiff.grad node in
            let n = param_size node in
            let state =
              let k = key_of node in
              match Hashtbl.find_opt a.table k with
              | Some s -> s
              | None ->
                  let s = { m = Array.make n 0.0; v = Array.make n 0.0 } in
                  Hashtbl.add a.table k s;
                  s
            in
            (value, grad, state.m, state.v))
          nodes
      in
      Tensor.adam_step_many ~lr:t.lr ~beta1:a.beta1 ~beta2:a.beta2 ~eps:a.eps
        ~bc1 ~bc2 items
