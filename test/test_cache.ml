(* Tests for the content-addressed experiment cache: hits are bit-identical,
   damage of any kind degrades to a miss (and is healed by the rewrite), keys
   move whenever an input moves, and concurrent same-key writers under a
   multi-worker pool leave exactly one valid entry and no temp litter. *)

module Ca = Cache
module P = Parallel.Pool

(* A fresh cache root per test; [Cache.create] makes directories lazily. *)
let fresh_dir () =
  let stamp = Filename.temp_file "pnncache" ".d" in
  Sys.remove stamp;
  stamp

let rec tree_files dir =
  if not (Sys.file_exists dir) then []
  else
    Array.to_list (Sys.readdir dir)
    |> List.concat_map (fun name ->
           let p = Filename.concat dir name in
           if Sys.is_directory p then tree_files p else [ p ])

let contains_sub s sub =
  let n = String.length sub and m = String.length s in
  let rec at i = i + n <= m && (String.sub s i n = sub || at (i + 1)) in
  n = 0 || at 0

let tmp_litter dir =
  List.filter (fun p -> contains_sub p ".tmp") (tree_files dir)

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

(* lines whose bit-exactness %h is there to protect *)
let special_lines =
  [
    Printf.sprintf "floats %h %h %h %h %h" (0.0 /. 0.0) (-0.0) Float.infinity
      Float.neg_infinity 1.5e-300;
    "plain second line";
  ]

let the_key = Ca.key ~schema:"test-1" ~kind:"unit" [ "a"; "b" ]

let entry_path c =
  match Ca.member_path c ~kind:"unit" ~key:the_key with
  | Some p -> p
  | None -> Alcotest.fail "member_path on an enabled cache"

(* {1 Hit semantics} *)

let test_store_find_bit_identical () =
  let c = Ca.create ~dir:(fresh_dir ()) in
  Alcotest.(check bool) "cold find misses" true
    (Ca.find c ~kind:"unit" ~key:the_key = None);
  Ca.store c ~kind:"unit" ~key:the_key special_lines;
  (match Ca.find c ~kind:"unit" ~key:the_key with
  | Some lines ->
      Alcotest.(check (list string)) "lines verbatim" special_lines lines
  | None -> Alcotest.fail "stored entry must hit");
  let st = Ca.stats c in
  Alcotest.(check int) "1 miss" 1 (Atomic.get st.Ca.misses);
  Alcotest.(check int) "1 hit" 1 (Atomic.get st.Ca.hits);
  Alcotest.(check int) "0 corrupt" 0 (Atomic.get st.Ca.corrupt)

let test_memoize_hit_skips_compute () =
  let c = Ca.create ~dir:(fresh_dir ()) in
  let calls = ref 0 in
  let values = [| 0.0 /. 0.0; -0.0; Float.neg_infinity; 0.1 +. 0.2 |] in
  let encode a =
    [ String.concat " " (Array.to_list (Array.map (Printf.sprintf "%h") a)) ]
  in
  let decode = function
    | [ line ] ->
        Array.of_list
          (List.map float_of_string (String.split_on_char ' ' line))
    | _ -> failwith "bad payload"
  in
  let compute () = incr calls; values in
  let go () = Ca.memoize c ~kind:"unit" ~key:the_key ~encode ~decode compute in
  let first = go () in
  let second = go () in
  Alcotest.(check int) "computed exactly once" 1 !calls;
  Alcotest.(check (array int64))
    "hit bit-identical (nan, -0.0 included)"
    (Array.map Int64.bits_of_float first)
    (Array.map Int64.bits_of_float second)

(* {1 Damage degrades to a miss and is healed} *)

let test_truncated_entry_is_miss_then_rewritten () =
  let c = Ca.create ~dir:(fresh_dir ()) in
  Ca.store c ~kind:"unit" ~key:the_key special_lines;
  let path = entry_path c in
  let blob = read_file path in
  write_file path (String.sub blob 0 (String.length blob / 2));
  Alcotest.(check bool) "truncated -> miss" true
    (Ca.find c ~kind:"unit" ~key:the_key = None);
  Alcotest.(check bool) "corrupt counted" true
    (Atomic.get (Ca.stats c).Ca.corrupt >= 1);
  let v =
    Ca.memoize c ~kind:"unit" ~key:the_key ~encode:Fun.id ~decode:Fun.id
      (fun () -> special_lines)
  in
  Alcotest.(check (list string)) "recompute returns payload" special_lines v;
  Alcotest.(check bool) "entry healed" true
    (Ca.find c ~kind:"unit" ~key:the_key = Some special_lines)

let test_bit_flip_is_miss () =
  let c = Ca.create ~dir:(fresh_dir ()) in
  Ca.store c ~kind:"unit" ~key:the_key special_lines;
  let path = entry_path c in
  let blob = Bytes.of_string (read_file path) in
  (* flip one payload byte (the last char of the body) *)
  let i = Bytes.length blob - 1 in
  Bytes.set blob i (if Bytes.get blob i = 'x' then 'y' else 'x');
  write_file path (Bytes.to_string blob);
  Alcotest.(check bool) "bit-flipped -> miss" true
    (Ca.find c ~kind:"unit" ~key:the_key = None)

let test_decode_failure_recomputes () =
  let c = Ca.create ~dir:(fresh_dir ()) in
  (* a verified blob whose payload the decoder rejects (schema drift) *)
  Ca.store c ~kind:"unit" ~key:the_key [ "old-format" ];
  let calls = ref 0 in
  let v =
    Ca.memoize c ~kind:"unit" ~key:the_key
      ~encode:(fun s -> [ "new " ^ s ])
      ~decode:(function
        | [ line ] when String.length line > 4 && String.sub line 0 4 = "new " ->
            String.sub line 4 (String.length line - 4)
        | _ -> failwith "unknown payload")
      (fun () -> incr calls; "value")
  in
  Alcotest.(check string) "recomputed" "value" v;
  Alcotest.(check int) "compute ran" 1 !calls;
  Alcotest.(check bool) "rewritten in new format" true
    (Ca.find c ~kind:"unit" ~key:the_key = Some [ "new value" ])

(* {1 Key derivation} *)

let test_key_sensitivity () =
  let base = Ca.key ~schema:"s1" ~kind:"k" [ "config"; "seed=3"; "arm=aware" ] in
  let variants =
    [
      Ca.key ~schema:"s1" ~kind:"k" [ "config'"; "seed=3"; "arm=aware" ];
      Ca.key ~schema:"s1" ~kind:"k" [ "config"; "seed=4"; "arm=aware" ];
      Ca.key ~schema:"s1" ~kind:"k" [ "config"; "seed=3"; "arm=nominal" ];
      Ca.key ~schema:"s2" ~kind:"k" [ "config"; "seed=3"; "arm=aware" ];
      Ca.key ~schema:"s1" ~kind:"k2" [ "config"; "seed=3"; "arm=aware" ];
    ]
  in
  List.iteri
    (fun i k ->
      Alcotest.(check bool) (Printf.sprintf "variant %d re-keys" i) true
        (k <> base))
    variants;
  Alcotest.(check string) "key is deterministic" base
    (Ca.key ~schema:"s1" ~kind:"k" [ "config"; "seed=3"; "arm=aware" ]);
  (* part boundaries matter: ["ab";"c"] and ["a";"bc"] are different keys *)
  Alcotest.(check bool) "no concatenation aliasing" true
    (Ca.key ~schema:"s" ~kind:"k" [ "ab"; "c" ]
    <> Ca.key ~schema:"s" ~kind:"k" [ "a"; "bc" ])

(* {1 Concurrency} *)

let test_concurrent_same_key_writers () =
  let dir = fresh_dir () in
  let c = Ca.create ~dir in
  let pool = P.create ~jobs:4 () in
  Fun.protect
    ~finally:(fun () -> P.shutdown pool)
    (fun () ->
      P.parallel_for pool ~n:16 (fun i ->
          let v =
            Ca.memoize c ~kind:"unit" ~key:the_key ~encode:Fun.id
              ~decode:Fun.id
              (fun () -> ignore i; special_lines)
          in
          if v <> special_lines then failwith "racy payload"));
  Alcotest.(check bool) "entry valid after the race" true
    (Ca.find c ~kind:"unit" ~key:the_key = Some special_lines);
  let entries = Ca.entries ~check:true ~dir () in
  Alcotest.(check int) "exactly one entry" 1 (List.length entries);
  Alcotest.(check bool) "entry checksums clean" true
    (List.for_all (fun e -> e.Ca.valid) entries);
  Alcotest.(check (list string)) "no temp litter" [] (tmp_litter dir)

(* {1 Disabled cache} *)

let test_disabled_is_transparent () =
  let c = Ca.disabled () in
  Alcotest.(check bool) "not enabled" false (Ca.enabled c);
  Alcotest.(check bool) "find misses" true
    (Ca.find c ~kind:"unit" ~key:the_key = None);
  Ca.store c ~kind:"unit" ~key:the_key special_lines;
  Alcotest.(check bool) "store is a no-op" true
    (Ca.find c ~kind:"unit" ~key:the_key = None);
  Alcotest.(check bool) "no member path" true
    (Ca.member_path c ~kind:"unit" ~key:the_key = None);
  let calls = ref 0 in
  for _ = 1 to 3 do
    ignore
      (Ca.memoize c ~kind:"unit" ~key:the_key ~encode:Fun.id ~decode:Fun.id
         (fun () -> incr calls; special_lines))
  done;
  Alcotest.(check int) "memoize always computes" 3 !calls

(* {1 Maintenance} *)

(* Backdate a file so gc's stale-age policy sees it as ancient. *)
let age_file path = Unix.utimes path 1.0 1.0

let test_gc_removes_damage_and_all () =
  let dir = fresh_dir () in
  let c = Ca.create ~dir in
  let key2 = Ca.key ~schema:"test-1" ~kind:"unit" [ "other" ] in
  Ca.store c ~kind:"unit" ~key:the_key special_lines;
  Ca.store c ~kind:"unit" ~key:key2 [ "fine" ];
  write_file (entry_path c) "garbage";
  (* a long-abandoned temp from a crashed writer: exact tmp shape, old mtime *)
  let stale_tmp = Filename.concat dir "unit/leftover.pce.tmp.999.0.1" in
  write_file stale_tmp "partial";
  age_file stale_tmp;
  (* a *young* temp is a potentially live writer's in-flight publish *)
  let live_tmp = Filename.concat dir "unit/inflight.pce.tmp.999.0.2" in
  write_file live_tmp "partial";
  let removed, kept = Ca.gc ~dir () in
  Alcotest.(check (pair int int)) "corrupt + stale temp removed, good kept"
    (2, 1) (removed, kept);
  Alcotest.(check bool) "live writer's temp survives" true
    (Sys.file_exists live_tmp);
  Alcotest.(check bool) "stale temp gone" false (Sys.file_exists stale_tmp);
  Alcotest.(check bool) "survivor still hits" true
    (Ca.find c ~kind:"unit" ~key:key2 = Some [ "fine" ]);
  let removed, kept = Ca.gc ~all:true ~dir () in
  Alcotest.(check (pair int int)) "gc --all clears entries and every temp"
    (2, 0) (removed, kept);
  Alcotest.(check (list string)) "store empty" []
    (List.map (fun e -> e.Ca.path) (Ca.entries ~dir ()));
  Alcotest.(check (list string)) "no temp litter" [] (tmp_litter dir)

let test_gc_never_misreads_entries_as_temps () =
  let dir = fresh_dir () in
  let c = Ca.create ~dir in
  (* Keys are arbitrary strings at this layer; an entry whose key contains
     the temp marker must never be reclaimed as a "temp file".  The old
     substring scan for ".pce.tmp." would have deleted both of these. *)
  let tricky = [ "x.pce.tmp.7"; "y.pce.tmp.1.2" ] in
  List.iter (fun k -> Ca.store c ~kind:"unit" ~key:k [ "keep:" ^ k ]) tricky;
  List.iter (fun k ->
      match Ca.member_path c ~kind:"unit" ~key:k with
      | Some p -> age_file p
      | None -> Alcotest.fail "member_path on an enabled cache")
    tricky;
  let real_tmp = Filename.concat dir "unit/abc.pce.tmp.42.0.0" in
  write_file real_tmp "partial";
  age_file real_tmp;
  Alcotest.(check (list string)) "stale scan sees exactly the real temp"
    [ real_tmp ]
    (Ca.stale_tmp_files ~now:(Unix.time ()) ~dir ());
  let removed, kept = Ca.gc ~dir () in
  Alcotest.(check (pair int int)) "only the real temp reclaimed" (1, 2)
    (removed, kept);
  List.iter (fun k ->
      Alcotest.(check bool) ("entry " ^ k ^ " still hits") true
        (Ca.find c ~kind:"unit" ~key:k = Some [ "keep:" ^ k ]))
    tricky

let test_gc_racing_live_writers () =
  (* Satellite regression: gc sweeping while writers publish must never
     break a publish (it used to delete *any* temp file, including a live
     writer's in-flight one, making the final rename fail). *)
  let dir = fresh_dir () in
  let c = Ca.create ~dir in
  let pool = P.create ~jobs:4 () in
  Fun.protect
    ~finally:(fun () -> P.shutdown pool)
    (fun () ->
      P.parallel_for pool ~n:64 (fun i ->
          if i mod 8 = 0 then ignore (Ca.gc ~dir ())
          else
            let key =
              Ca.key ~schema:"test-1" ~kind:"unit" [ "race"; string_of_int i ]
            in
            Ca.store c ~kind:"unit" ~key [ "payload"; string_of_int i ]));
  for i = 0 to 63 do
    if i mod 8 <> 0 then
      let key =
        Ca.key ~schema:"test-1" ~kind:"unit" [ "race"; string_of_int i ]
      in
      Alcotest.(check bool)
        (Printf.sprintf "entry %d published despite gc" i)
        true
        (Ca.find c ~kind:"unit" ~key = Some [ "payload"; string_of_int i ])
  done

(* {1 Primitives shared with the work queue} *)

let test_mkdir_p_race_tolerant () =
  let dir = fresh_dir () in
  let deep = Filename.concat dir "a/b/c" in
  let pool = P.create ~jobs:4 () in
  Fun.protect
    ~finally:(fun () -> P.shutdown pool)
    (fun () -> P.parallel_for pool ~n:16 (fun _ -> Ca.mkdir_p deep));
  Alcotest.(check bool) "deep path exists" true
    (Sys.file_exists deep && Sys.is_directory deep);
  (* repeated calls stay no-ops *)
  Ca.mkdir_p deep;
  Ca.mkdir_p dir;
  Alcotest.(check bool) "still a directory" true (Sys.is_directory deep)

let test_replace_file_overwrites () =
  let dir = fresh_dir () in
  Ca.mkdir_p dir;
  let path = Filename.concat dir "artifact" in
  Ca.replace_file path "first\n";
  (* replace_file overwrites unconditionally and atomically *)
  Ca.replace_file path "renewed\n";
  Alcotest.(check string) "replace_file overwrites" "renewed\n"
    (read_file path);
  Alcotest.(check (list string)) "replace leaves no temp" [] (tmp_litter dir)

let () =
  Alcotest.run "cache"
    [
      ( "hits",
        [
          Alcotest.test_case "store/find bit-identical" `Quick
            test_store_find_bit_identical;
          Alcotest.test_case "memoize hit skips compute" `Quick
            test_memoize_hit_skips_compute;
        ] );
      ( "damage",
        [
          Alcotest.test_case "truncated -> miss -> healed" `Quick
            test_truncated_entry_is_miss_then_rewritten;
          Alcotest.test_case "bit flip -> miss" `Quick test_bit_flip_is_miss;
          Alcotest.test_case "decode failure -> recompute" `Quick
            test_decode_failure_recomputes;
        ] );
      ("keys", [ Alcotest.test_case "sensitivity" `Quick test_key_sensitivity ]);
      ( "concurrency",
        [
          Alcotest.test_case "same-key writers, 4 jobs" `Quick
            test_concurrent_same_key_writers;
        ] );
      ( "disabled",
        [ Alcotest.test_case "transparent" `Quick test_disabled_is_transparent ] );
      ( "maintenance",
        [
          Alcotest.test_case "gc" `Quick test_gc_removes_damage_and_all;
          Alcotest.test_case "gc exact tmp parse" `Quick
            test_gc_never_misreads_entries_as_temps;
          Alcotest.test_case "gc vs live writers" `Quick
            test_gc_racing_live_writers;
        ] );
      ( "primitives",
        [
          Alcotest.test_case "mkdir_p race" `Quick test_mkdir_p_race_tolerant;
          Alcotest.test_case "replace_file overwrites" `Quick
            test_replace_file_overwrites;
        ] );
    ]
