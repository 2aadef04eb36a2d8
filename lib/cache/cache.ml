(* EEXIST-tolerant recursive mkdir.  The create is attempted *uncondition-
   ally* after the parent exists and a racing creator is detected after the
   fact, so two processes calling this concurrently (the TOCTOU that
   [if not (Sys.file_exists d) then Sys.mkdir d] gets wrong) both succeed. *)
let rec mkdir_p dir =
  if dir <> "" && dir <> "/" && dir <> "." && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755
    with Sys_error _ when Sys.file_exists dir ->
      (* lost a creation race (or the path pre-existed): fine either way *)
      ()
  end

(* Unique-enough temp names: same-process writers are disambiguated by the
   counter and domain id, cross-process writers by the pid.  The final rename
   is what guarantees atomicity; the suffix only avoids temp-file collisions. *)
let tmp_counter = Atomic.make 0

let temp_path path =
  Printf.sprintf "%s.tmp.%d.%d.%d" path (Unix.getpid ())
    (Domain.self () :> int)
    (Atomic.fetch_and_add tmp_counter 1)

(* Write a fresh temp sibling of [path] with [write]; the caller publishes it
   with a rename.  A failed write leaves no temp file behind. *)
let write_temp path write =
  mkdir_p (Filename.dirname path);
  let tmp = temp_path path in
  let oc = open_out_bin tmp in
  (try
     write oc;
     close_out oc
   with e ->
     close_out_noerr oc;
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  tmp

module Blob = struct
  let magic = "pnncache"
  let version = 1

  type read_result = Valid of string list | Corrupt | Missing

  let header ~tag ~digest ~nlines =
    String.concat " "
      [ magic; string_of_int version; tag; digest; string_of_int nlines ]

  let write ~tag path lines =
    if String.exists (fun c -> c = ' ' || c = '\n') tag then
      invalid_arg "Cache.Blob.write: tag must not contain spaces";
    let body = String.concat "\n" lines in
    let digest = Digest.to_hex (Digest.string body) in
    let tmp =
      write_temp path (fun oc ->
          output_string oc (header ~tag ~digest ~nlines:(List.length lines));
          output_char oc '\n';
          if lines <> [] then begin
            output_string oc body;
            output_char oc '\n'
          end)
    in
    Sys.rename tmp path;
    String.length body

  let read_lines path = In_channel.with_open_bin path In_channel.input_lines

  let read ~tag path =
    if not (Sys.file_exists path) then Missing
    else
      match read_lines path with
      | exception Sys_error _ -> Missing
      | [] -> Corrupt
      | hd :: body -> (
          match String.split_on_char ' ' hd with
          | [ m; v; t; digest; n ]
            when m = magic && v = string_of_int version && t = tag -> (
              match int_of_string_opt n with
              | Some n
                when n = List.length body
                     && Digest.to_hex (Digest.string (String.concat "\n" body))
                        = digest ->
                  Valid body
              | _ -> Corrupt)
          | _ -> Corrupt)
end

type stats = {
  hits : int Atomic.t;
  misses : int Atomic.t;
  corrupt : int Atomic.t;
  bytes_read : int Atomic.t;
  bytes_written : int Atomic.t;
}

let fresh_stats () =
  {
    hits = Atomic.make 0;
    misses = Atomic.make 0;
    corrupt = Atomic.make 0;
    bytes_read = Atomic.make 0;
    bytes_written = Atomic.make 0;
  }

type t = { root : string option; stats : stats }

let create ~dir = { root = Some dir; stats = fresh_stats () }
let disabled () = { root = None; stats = fresh_stats () }
let enabled t = t.root <> None
let dir t = t.root
let stats t = t.stats

let check_kind kind =
  if
    kind = ""
    || String.exists
         (fun c -> c = ' ' || c = '\n' || c = '/' || c = '.')
         kind
  then invalid_arg "Cache: kind must be a plain word"

let key ~schema ~kind parts =
  check_kind kind;
  Digest.to_hex (Digest.string (String.concat "\x00" (schema :: kind :: parts)))

let digest_lines lines = Digest.to_hex (Digest.string (String.concat "\n" lines))

let entry_ext = ".pce"

let member_path t ~kind ~key =
  check_kind kind;
  match t.root with
  | None -> None
  | Some root -> Some (Filename.concat (Filename.concat root kind) (key ^ entry_ext))

let body_bytes lines =
  List.fold_left (fun acc l -> acc + String.length l + 1) 0 lines

let find t ~kind ~key =
  match member_path t ~kind ~key with
  | None ->
      Atomic.incr t.stats.misses;
      None
  | Some path -> (
      match Blob.read ~tag:kind path with
      | Blob.Valid lines ->
          Atomic.incr t.stats.hits;
          ignore (Atomic.fetch_and_add t.stats.bytes_read (body_bytes lines));
          Some lines
      | Blob.Missing ->
          Atomic.incr t.stats.misses;
          None
      | Blob.Corrupt ->
          Atomic.incr t.stats.corrupt;
          Atomic.incr t.stats.misses;
          (try Sys.remove path with Sys_error _ -> ());
          None)

let store t ~kind ~key lines =
  match member_path t ~kind ~key with
  | None -> ()
  | Some path ->
      let bytes = Blob.write ~tag:kind path lines in
      ignore (Atomic.fetch_and_add t.stats.bytes_written bytes)

let memoize t ~kind ~key ~encode ~decode f =
  if not (enabled t) then f ()
  else
    let recompute () =
      let v = f () in
      store t ~kind ~key (encode v);
      v
    in
    match find t ~kind ~key with
    | None -> recompute ()
    | Some lines -> (
        match decode lines with
        | v -> v
        | exception _ ->
            (* decodable header but unusable payload: same treatment as a
               checksum failure — recompute and replace *)
            Atomic.incr t.stats.corrupt;
            (match member_path t ~kind ~key with
            | Some path -> ( try Sys.remove path with Sys_error _ -> ())
            | None -> ());
            recompute ())

let mib bytes = float_of_int bytes /. (1024.0 *. 1024.0)

let summary t =
  let s = t.stats in
  let where = match t.root with Some d -> d | None -> "(disabled)" in
  Printf.sprintf
    "cache %s: %d hits, %d misses (%d corrupt), %.2f MiB read, %.2f MiB written"
    where (Atomic.get s.hits) (Atomic.get s.misses) (Atomic.get s.corrupt)
    (mib (Atomic.get s.bytes_read))
    (mib (Atomic.get s.bytes_written))

(* {1 Maintenance} *)

type entry = {
  path : string;
  kind : string;
  key : string;
  bytes : int;
  mtime : float;
  valid : bool;
}

let entries ?(check = false) ~dir () =
  if not (Sys.file_exists dir && Sys.is_directory dir) then []
  else
    let kinds =
      Array.to_list (Sys.readdir dir)
      |> List.filter (fun k -> Sys.is_directory (Filename.concat dir k))
      |> List.sort String.compare
    in
    List.concat_map
      (fun kind ->
        let kdir = Filename.concat dir kind in
        Array.to_list (Sys.readdir kdir)
        |> List.filter (fun f -> Filename.check_suffix f entry_ext)
        |> List.sort String.compare
        |> List.filter_map (fun f ->
               let path = Filename.concat kdir f in
               match Unix.stat path with
               | exception Unix.Unix_error _ -> None
               | st ->
                   let valid =
                     (not check)
                     ||
                     match Blob.read ~tag:kind path with
                     | Blob.Valid _ -> true
                     | Blob.Corrupt | Blob.Missing -> false
                   in
                   Some
                     {
                       path;
                       kind;
                       key = Filename.chop_suffix f entry_ext;
                       bytes = st.Unix.st_size;
                       mtime = st.Unix.st_mtime;
                       valid;
                     }))
      kinds

(* Exact parse of the names [temp_path] produces for entry files:
   [<key>.pce.tmp.<pid>.<domain>.<counter>] with all three trailing fields
   numeric.  A substring scan for ".pce.tmp." would also match *entry* files
   whose key happens to contain the marker (keys are arbitrary strings at
   this layer), deleting live data; the exact parse cannot. *)
let is_numeric s = s <> "" && String.for_all (fun c -> c >= '0' && c <= '9') s

let tmp_file_key name =
  (* entry_ext is ".pce"; the component split sees it as a bare "pce" *)
  let ext = String.sub entry_ext 1 (String.length entry_ext - 1) in
  match List.rev (String.split_on_char '.' name) with
  | ctr :: dom :: pid :: "tmp" :: e :: (_ :: _ as rev_key)
    when e = ext && is_numeric ctr && is_numeric dom && is_numeric pid ->
      Some (String.concat "." (List.rev rev_key))
  | _ -> None

let default_tmp_stale_age = 600.0

let stale_tmp_files ?(stale_age = default_tmp_stale_age) ~now ~dir () =
  if not (Sys.file_exists dir && Sys.is_directory dir) then []
  else
    Array.to_list (Sys.readdir dir)
    |> List.filter (fun k -> Sys.is_directory (Filename.concat dir k))
    |> List.sort String.compare
    |> List.concat_map (fun kind ->
           let kdir = Filename.concat dir kind in
           Array.to_list (Sys.readdir kdir)
           |> List.sort String.compare
           |> List.filter_map (fun f ->
                  (* leftovers from crashed writers — but a *young* temp file
                     is very likely a live writer's in-flight publish;
                     deleting it would make that writer's rename fail.  Only
                     files past the stale-age threshold are reclaimed. *)
                  if tmp_file_key f = None then None
                  else
                    let path = Filename.concat kdir f in
                    match Unix.stat path with
                    | exception Unix.Unix_error _ -> None
                    | st ->
                        if now -. st.Unix.st_mtime > stale_age then Some path
                        else None))

let gc ?max_age_days ?tmp_stale_age ?(all = false) ~dir () =
  (* pnnlint:allow R2 wall clock feeds only the GC age policy; cache keys
     and cached results never depend on it *)
  let now = Unix.time () in
  let too_old e =
    match max_age_days with
    | None -> false
    | Some days -> now -. e.mtime > days *. 86_400.0
  in
  let removed = ref 0 and kept = ref 0 in
  List.iter
    (fun e ->
      if all || not e.valid || too_old e then begin
        (try Sys.remove e.path with Sys_error _ -> ());
        incr removed
      end
      else incr kept)
    (entries ~check:true ~dir ());
  (* [gc ~all] is an explicit "clear the store": reclaim every temp file
     regardless of age (there can be no writer whose output we still want) *)
  let stale_age =
    if all then Float.neg_infinity
    else Option.value tmp_stale_age ~default:default_tmp_stale_age
  in
  List.iter
    (fun tmp ->
      (try Sys.remove tmp with Sys_error _ -> ());
      incr removed)
    (stale_tmp_files ~stale_age ~now ~dir ());
  (!removed, !kept)

let replace_file path content =
  Sys.rename (write_temp path (fun oc -> output_string oc content)) path
