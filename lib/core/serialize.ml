let magic = "pnn-save"
let format_version = 2
let schema_tag = Printf.sprintf "%s-%d" magic format_version

(* The active kernel backend is part of the effective numeric schema: the
   C backend may differ from the reference in the last ulp of matmul
   accumulations, so cached experiment results must never cross backends.
   Read at call time (not bound at init) so [Tensor.set_backend] in tests is
   honored. *)
let cache_schema () = schema_tag ^ "+" ^ Tensor.backend_tag ()

let float_line a =
  String.concat " " (Array.to_list (Array.map (Printf.sprintf "%h") a))

(* A truncated or corrupted save must surface as a clear [Failure
   "Serialize: ..."] the loader can report, never as an [Invalid_argument]
   or a bare [Failure "int_of_string"] escaping from a field parse.  Every
   field goes through an [_opt] parse, and value counts are checked against
   the declared shape before any [Tensor.create]. *)
let int_field what s =
  match int_of_string_opt s with
  | Some v -> v
  | None -> failwith (Printf.sprintf "Serialize: bad %s %S" what s)

let float_field what s =
  match float_of_string_opt s with
  | Some v -> v
  | None -> failwith (Printf.sprintf "Serialize: bad %s %S" what s)

let floats_of_words words =
  Array.of_list (List.map (float_field "float value") words)

let tensor_line t =
  Printf.sprintf "%d %d %s" (Tensor.rows t) (Tensor.cols t)
    (float_line (Tensor.to_array t))

let tensor_of_line line =
  match String.split_on_char ' ' (String.trim line) with
  | rows :: cols :: values ->
      let rows = int_field "tensor rows" rows
      and cols = int_field "tensor cols" cols in
      if rows < 0 || cols < 0 then
        failwith "Serialize: negative tensor dimension";
      let expect = rows * cols and got = List.length values in
      if got <> expect then
        failwith
          (Printf.sprintf
             "Serialize: truncated tensor line (%dx%d needs %d values, got %d)"
             rows cols expect got);
      Tensor.create rows cols
        (Array.of_list (List.map (float_field "tensor value") values))
  | [] | [ _ ] -> failwith "Serialize: malformed tensor line"

let config_line (c : Config.t) =
  Printf.sprintf "config %d %h %h %h %d %d %d %d %h %h %h %d" c.Config.hidden
    c.Config.lr_theta c.Config.lr_omega c.Config.epsilon c.Config.n_mc_train
    c.Config.n_mc_val c.Config.max_epochs c.Config.patience c.Config.g_min
    c.Config.g_max c.Config.logit_scale c.Config.val_every

let config_of_line line =
  match String.split_on_char ' ' (String.trim line) with
  | "config" :: hidden :: lr_t :: lr_o :: eps :: mct :: mcv :: me :: pat
    :: gmin :: gmax :: ls :: rest ->
      (* [rest] distinguishes format versions: pre-val_every lines have 11
         fields and keep the historical default. *)
      let val_every =
        match rest with
        | [] -> 5
        | [ ve ] -> int_field "config val_every" ve
        | _ -> failwith "Serialize: bad config line"
      in
      {
        Config.hidden = int_field "config hidden" hidden;
        lr_theta = float_field "config lr_theta" lr_t;
        lr_omega = float_field "config lr_omega" lr_o;
        epsilon = float_field "config epsilon" eps;
        n_mc_train = int_field "config n_mc_train" mct;
        n_mc_val = int_field "config n_mc_val" mcv;
        max_epochs = int_field "config max_epochs" me;
        patience = int_field "config patience" pat;
        g_min = float_field "config g_min" gmin;
        g_max = float_field "config g_max" gmax;
        logit_scale = float_field "config logit_scale" ls;
        val_every;
      }
  | _ -> failwith "Serialize: bad config line"

let rng_line rng =
  let s = Rng.state rng in
  Printf.sprintf "rng %Lx %Lx %Lx %Lx" s.(0) s.(1) s.(2) s.(3)

let rng_of_line line =
  match String.split_on_char ' ' (String.trim line) with
  | [ "rng"; a; b; c; d ] ->
      let word w =
        match Int64.of_string_opt ("0x" ^ w) with
        | Some v -> v
        | None -> failwith (Printf.sprintf "Serialize: bad rng word %S" w)
      in
      Rng.of_state (Array.map word [| a; b; c; d |])
  | _ -> failwith "Serialize: bad rng line"

let to_lines network =
  let layers = Network.layers network in
  let count = Printf.sprintf "pnn %d" (List.length layers) in
  let layer_lines layer =
    [
      tensor_line (Autodiff.value layer.Layer.theta);
      tensor_line (Nonlinear.snapshot layer.Layer.act);
      tensor_line (Nonlinear.snapshot layer.Layer.neg);
    ]
  in
  (Printf.sprintf "%s %d" magic format_version
  :: count
  :: config_line (Network.config network)
  :: List.concat_map layer_lines layers)

let strip_header lines =
  match lines with
  | first :: rest -> (
      match String.split_on_char ' ' (String.trim first) with
      | [ m; v ] when m = magic ->
          if int_of_string_opt v = Some format_version then rest
          else
            failwith
              (Printf.sprintf "Serialize: unsupported format version %s" v)
      | _ ->
          (* headerless v1 file: body starts directly with the "pnn <n>"
             layer-count line *)
          lines)
  | [] -> failwith "Serialize: empty input"

let of_lines surrogate lines =
  match strip_header lines with
  | header :: config_l :: rest -> (
      match String.split_on_char ' ' (String.trim header) with
      | [ "pnn"; n ] ->
          let n = int_field "layer count" n in
          if n < 0 then failwith "Serialize: negative layer count";
          let config = config_of_line config_l in
          let rec take k lines acc =
            if k = 0 then (List.rev acc, lines)
            else
              match lines with
              | tl :: al :: nl :: rest ->
                  let layer =
                    Layer.of_parts surrogate ~theta:(tensor_of_line tl)
                      ~act_w:(tensor_of_line al) ~neg_w:(tensor_of_line nl)
                  in
                  take (k - 1) rest (layer :: acc)
              | _ -> failwith "Serialize: truncated layer section"
          in
          let layers, remaining = take n rest [] in
          (Network.of_layers config layers, remaining)
      | _ -> failwith "Serialize: bad header")
  | _ -> failwith "Serialize: empty input"

let digest network =
  Digest.to_hex (Digest.string (String.concat "\n" (to_lines network)))

let save_file network path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> List.iter (fun l -> output_string oc (l ^ "\n")) (to_lines network))

let load_file surrogate path =
  let ic = open_in path in
  let lines =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let rec go acc =
          match input_line ic with
          | line -> go (line :: acc)
          | exception End_of_file -> List.rev acc
        in
        go [])
  in
  (* Re-raise decode failures with the offending path so a server refusing
     to start can say which model file is corrupt. *)
  match of_lines surrogate lines with
  | net, _ -> net
  | exception Failure msg ->
      failwith (Printf.sprintf "%s (while loading %s)" msg path)
