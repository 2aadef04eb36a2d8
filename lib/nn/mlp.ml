type t = {
  layers : Dense.t list;
  hidden : Activation.t;
  output : Activation.t;
  arch : int list;
}

let create rng ~sizes ~hidden ~output =
  let rec pairs = function
    | a :: (b :: _ as rest) -> (a, b) :: pairs rest
    | [ _ ] | [] -> []
  in
  if List.length sizes < 2 then invalid_arg "Mlp.create: need at least 2 sizes";
  let layers =
    List.map
      (fun (inputs, outputs) -> Dense.create rng ~inputs ~outputs)
      (pairs sizes)
  in
  { layers; hidden; output; arch = sizes }

(* All three forwards route each layer + activation through the fused dense
   path: one node / one kernel call per layer. *)
let rec forward_layers act_hidden act_out layers x =
  match layers with
  | [] -> x
  | [ last ] -> Dense.forward_fused act_out last x
  | l :: rest ->
      forward_layers act_hidden act_out rest (Dense.forward_fused act_hidden l x)

let forward t x = forward_layers t.hidden t.output t.layers x

let forward_tensor t x =
  let rec go layers x =
    match layers with
    | [] -> x
    | [ last ] -> Dense.forward_tensor_fused t.output last x
    | l :: rest -> go rest (Dense.forward_tensor_fused t.hidden l x)
  in
  go t.layers x

let forward_frozen t x =
  (* Same computation as [forward] but weights enter as constants, so the
     backward pass does not touch them. *)
  let frozen_forward act layer x =
    let w = Autodiff.const (Autodiff.value layer.Dense.w) in
    let b = Autodiff.const (Autodiff.value layer.Dense.b) in
    Autodiff.dense ?op:(Activation.unop act) x w b
  in
  let rec go layers x =
    match layers with
    | [] -> x
    | [ last ] -> frozen_forward t.output last x
    | l :: rest -> go rest (frozen_forward t.hidden l x)
  in
  go t.layers x

let params t = List.concat_map Dense.params t.layers
let snapshot t = List.map Dense.snapshot t.layers
let restore t snaps = List.iter2 Dense.restore t.layers snaps

(* {1 Serialization}

   Format:
     mlp <hidden> <output> <n0> <n1> ... <nk>
     <tensor line for W1> ; <tensor line for b1> ; ...
   with {!Lines} tensor lines.  Layer i's W must be n(i-1) × n(i) and its b
   1 × n(i), as the header declares. *)

let to_lines t =
  let header =
    Printf.sprintf "mlp %s %s %s"
      (Activation.to_string t.hidden)
      (Activation.to_string t.output)
      (String.concat " " (List.map string_of_int t.arch))
  in
  header
  :: List.concat_map
       (fun l -> [ Lines.tensor_line (Autodiff.value l.Dense.w); Lines.tensor_line (Autodiff.value l.Dense.b) ])
       t.layers

let fmt = "Mlp.of_lines"

let activation =
  Lines.field ~fmt "activation" (fun s ->
      match Activation.of_string s with a -> Some a | exception Invalid_argument _ -> None)

let of_lines lines =
  match lines with
  | [] -> failwith "Mlp.of_lines: empty input"
  | header :: rest -> (
      match Lines.words header with
      | "mlp" :: hidden :: output :: (_ :: _ :: _ as sizes) ->
          let hidden = activation hidden and output = activation output in
          let arch = List.map (Lines.count_field ~fmt "layer size") sizes in
          let tensor = Lines.tensor_of_line ~fmt in
          let weights, remaining =
            Lines.take ~fmt "weight" ~n:(List.length arch - 1) ~width:2
              (fun line ->
                let w = tensor (line 0) in
                (w, tensor (line 1)))
              rest
          in
          let widths = Array.of_list arch in
          let layers =
            List.mapi
              (fun i (w, b) ->
                let expect = [ (widths.(i), widths.(i + 1)); (1, widths.(i + 1)) ] in
                if [ Tensor.shape w; Tensor.shape b ] <> expect then
                  failwith (Printf.sprintf "Mlp.of_lines: layer %d shapes disagree with the header" i);
                { Dense.w = Autodiff.param w; b = Autodiff.param b })
              weights
          in
          ({ layers; hidden; output; arch }, remaining)
      | _ -> failwith "Mlp.of_lines: bad header")
