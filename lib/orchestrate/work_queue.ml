(* Directory-based work queue shared by cooperating processes.

   Layout under the queue root:

     units/<key>.unit    one file per work unit (content: description line)
     claims/<key>.claim  exclusive lease: "owner\nexpires" (hex float)
     done/<key>.done     completion marker

   Every mutation uses the cache layer's publish discipline: exclusive
   creation is temp-file + [Unix.link] ({!Cache.publish_exclusive}), renewal
   is temp-file + rename ({!Cache.replace_file}), and stealing renames the
   claim to a per-stealer graveyard name so that of any number of concurrent
   stealers exactly one observes success.

   The module never reads a clock: every operation that compares against
   time takes [~now] from the caller, which keeps the queue logic
   deterministic and directly testable with a fake clock. *)

type t = { root : string }

let unit_ext = ".unit"
let claim_ext = ".claim"
let done_ext = ".done"
let units_dir t = Filename.concat t.root "units"
let claims_dir t = Filename.concat t.root "claims"
let done_dir t = Filename.concat t.root "done"
let unit_path t key = Filename.concat (units_dir t) (key ^ unit_ext)
let claim_path t key = Filename.concat (claims_dir t) (key ^ claim_ext)
let done_path t key = Filename.concat (done_dir t) (key ^ done_ext)

let load ~root =
  let t = { root } in
  Cache.mkdir_p (units_dir t);
  Cache.mkdir_p (claims_dir t);
  Cache.mkdir_p (done_dir t);
  t

let init ~root ~units =
  let t = load ~root in
  List.iter
    (fun (key, desc) ->
      (* idempotent: re-initializing an existing queue (crash recovery,
         adding workers to a live run) must not clobber anything *)
      ignore (Cache.publish_exclusive (unit_path t key) (desc ^ "\n")))
    units;
  t

let keys_with_ext dir ext =
  match Sys.readdir dir with
  | exception Sys_error _ -> []
  | names ->
      let keys =
        Array.to_list names
        |> List.filter_map (fun n ->
               if Filename.check_suffix n ext then
                 Some (Filename.chop_suffix n ext)
               else None)
      in
      List.sort String.compare keys

let unit_keys t = keys_with_ext (units_dir t) unit_ext
let is_done t key = Sys.file_exists (done_path t key)
let pending t = List.filter (fun k -> not (is_done t k)) (unit_keys t)

type claim = { owner : string; expires : float }

let read_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | s -> Some s
  | exception Sys_error _ -> None

let read_claim t key =
  match read_file (claim_path t key) with
  | None -> None
  | Some content -> (
      match String.split_on_char '\n' content with
      | owner :: expires :: _ -> (
          (* nan or inf would never expire: damaged, not live *)
          match float_of_string_opt expires with
          | Some e when Float.is_finite e -> Some { owner; expires = e }
          | Some _ | None -> None)
      | _ -> None)

let claim_content ~owner ~expires =
  if String.contains owner '\n' then
    invalid_arg "Work_queue.claim: owner must be a single line";
  Printf.sprintf "%s\n%h\n" owner expires

let claim t ~owner ~now ~lease key =
  Sys.file_exists (unit_path t key)
  && (not (is_done t key))
  && Cache.publish_exclusive (claim_path t key)
      (claim_content ~owner ~expires:(now +. lease))

let renew t ~owner ~now ~lease key =
  match read_claim t key with
  | Some c when c.owner = owner ->
      Cache.replace_file (claim_path t key)
        (claim_content ~owner ~expires:(now +. lease));
      true
  | _ -> false

(* A unit's claim is [`Free] (no file), [`Live] (lease not yet expired) or
   [`Stealable] (expired lease, or an unparseable claim file — a torn or
   damaged claim belongs to nobody and must not wedge its unit forever). *)
let claim_state t ~now key =
  if not (Sys.file_exists (claim_path t key)) then `Free
  else
    match read_claim t key with
    | None -> `Stealable
    | Some c when c.expires <= now -> `Stealable
    | Some _ -> `Live

(* Per-process graveyard counter: gives each steal attempt a unique rename
   target, so the rename itself is the arbiter. *)
let steal_counter = Atomic.make 0

let steal_expired t ~now key =
  match claim_state t ~now key with
  | `Free | `Live -> false
  | `Stealable -> (
      let grave =
        Printf.sprintf "%s.stolen.%d.%d" (claim_path t key) (Unix.getpid ())
          (Atomic.fetch_and_add steal_counter 1)
      in
      (* Exactly one concurrent stealer wins the rename; losers get ENOENT.
         A renewal racing with the steal can lose its claim file — the
         renewing owner then keeps computing unclaimed, which is harmless:
         unit results are content-addressed, so duplicate execution publishes
         the same entry. *)
      match Sys.rename (claim_path t key) grave with
      | () ->
          (try Sys.remove grave with Sys_error _ -> ());
          true
      | exception Sys_error _ -> false)

let release t ~owner key =
  match read_claim t key with
  | Some c when c.owner = owner -> (
      try Sys.remove (claim_path t key) with Sys_error _ -> ())
  | _ -> ()

let mark_done t key =
  ignore (Cache.publish_exclusive (done_path t key) "done\n")

(* First claimable unit in deterministic (sorted-key) order.  [acquire]
   combines the expiry check and the claim so callers cannot forget the
   steal step; the TOCTOU between [steal_expired] and [claim] is benign —
   losing either race just means another worker has the unit. *)
let acquire t ~owner ~now ~lease =
  let rec scan = function
    | [] -> None
    | key :: rest ->
        let claimable =
          match claim_state t ~now key with
          | `Free -> true
          | `Stealable -> steal_expired t ~now key
          | `Live -> false
        in
        if claimable && claim t ~owner ~now ~lease key then Some key
        else scan rest
  in
  scan (pending t)
