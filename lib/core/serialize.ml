let magic = "pnn-save"
let format_version = 2
let schema_tag = Printf.sprintf "%s-%d" magic format_version

(* The numerics tag: the kernels compute the oracle's bits (test/oracle.ml),
   the numerics every cached result was computed with.  A change to any
   kernel's bits must change this tag. *)
let cache_schema () = schema_tag ^ "+ref"

(* A truncated or corrupted save must surface as a clear [Failure
   "Serialize: ..."] the loader can report, never as an [Invalid_argument]
   or a bare [Failure "int_of_string"] escaping from a field parse: every
   field and tensor goes through a {!Lines} reader named for this format. *)
let fmt = "Serialize"
let int_field = Lines.int_field ~fmt
let float_field = Lines.float_field ~fmt
let tensor = Lines.tensor_of_line ~fmt

(* The constructors' own shape checks, reported in this format's terms. *)
let checked build = try build () with Invalid_argument msg -> failwith ("Serialize: " ^ msg)

let config_line (c : Config.t) =
  Printf.sprintf "config %d %h %h %h %d %d %d %d %h %h %h %d" c.Config.hidden
    c.Config.lr_theta c.Config.lr_omega c.Config.epsilon c.Config.n_mc_train
    c.Config.n_mc_val c.Config.max_epochs c.Config.patience c.Config.g_min
    c.Config.g_max c.Config.logit_scale c.Config.val_every

let config_of_line line =
  match Lines.words line with
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

let to_lines network =
  let layers = Network.layers network in
  let count = Printf.sprintf "pnn %d" (List.length layers) in
  let layer_lines layer =
    [
      Lines.tensor_line (Autodiff.value layer.Layer.theta);
      Lines.tensor_line (Nonlinear.snapshot layer.Layer.act);
      Lines.tensor_line (Nonlinear.snapshot layer.Layer.neg);
    ]
  in
  (Printf.sprintf "%s %d" magic format_version
  :: count
  :: config_line (Network.config network)
  :: List.concat_map layer_lines layers)

let strip_header lines =
  match lines with
  | first :: rest -> (
      match Lines.words first with
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
      match Lines.words header with
      | [ "pnn"; n ] ->
          let n = Lines.count_field ~fmt "layer count" n in
          let config = config_of_line config_l in
          let layers, remaining =
            Lines.take ~fmt "layer" ~n ~width:3
              (fun line ->
                checked (fun () ->
                    Layer.of_parts surrogate ~theta:(tensor (line 0)) ~act_w:(tensor (line 1))
                      ~neg_w:(tensor (line 2))))
              rest
          in
          (checked (fun () -> Network.of_layers config layers), remaining)
      | _ -> failwith "Serialize: bad header")
  | _ -> failwith "Serialize: empty input"

let digest network =
  Digest.to_hex (Digest.string (String.concat "\n" (to_lines network)))

let save_file network path = Cache.replace_file path (Lines.text (to_lines network))

let load_file surrogate path =
  let lines = Lines.read_file path in
  (* Re-raise decode failures with the offending path so a server refusing
     to start can say which model file is corrupt. *)
  match of_lines surrogate lines with
  | net, _ -> net
  | exception Failure msg ->
      failwith (Printf.sprintf "%s (while loading %s)" msg path)
