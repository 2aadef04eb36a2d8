(* Load generator for the pNN inference service.

   Replays synthetic classification requests against a server — an external
   one over its socket (`run`), or in-process server domains spun up per
   configuration (`bench5`, which writes the committed BENCH_5.json).

   The driver is a single domain multiplexing C connections with
   [Unix.select]:
   - closed loop: one outstanding request per connection; a response
     immediately triggers the next request.  Offered concurrency = C.
   - open loop: requests are released on a fixed schedule (target offered
     rate), pipelined onto the connections round-robin regardless of
     outstanding responses; latency is measured from the *scheduled* send
     time, so queueing delay counts (the standard open-loop correction).

   Latency numbers here are observability, never inputs to any result —
   the pnnlint R2 suppressions below mark exactly those clock reads.

   Examples:
     dune exec bin/loadgen.exe -- run --socket /tmp/pnn.sock -n 100000 --clients 32
     dune exec bin/loadgen.exe -- run --socket /tmp/pnn.sock -n 1000000 \
       --clients 64 --rate 50000
     dune exec bin/loadgen.exe -- bench5
*)

open Cmdliner
module P = Serving.Protocol

(* pnnlint:allow R2 latency measurement only: loadgen timestamps requests to
   report p50/p99 — the timings are printed, never fed into any result *)
let now () = Unix.gettimeofday ()

(* {1 Latency bookkeeping} *)

let quantile_sorted sorted q =
  let n = Array.length sorted in
  if n = 0 then nan
  else
    let pos = q *. float_of_int (n - 1) in
    let lo = min (max (int_of_float pos) 0) (n - 1) in
    let hi = min (lo + 1) (n - 1) in
    let frac = pos -. float_of_int lo in
    (sorted.(lo) *. (1.0 -. frac)) +. (sorted.(hi) *. frac)

type summary = {
  requests : int;
  elapsed_s : float;
  throughput_rps : float;
  p50_us : float;
  p99_us : float;
  p999_us : float;
  max_us : float;
  occupancy : int64 array; (* from the server's own counters *)
  batches : int64;
}

let summarize ~elapsed_s ~latencies ~stats_before ~stats_after =
  let sorted = Array.copy latencies in
  Array.sort Float.compare sorted;
  let us q = quantile_sorted sorted q *. 1e6 in
  let n = Array.length latencies in
  let occupancy =
    Array.mapi
      (fun i after -> Int64.sub after stats_before.P.occupancy.(i))
      stats_after.P.occupancy
  in
  {
    requests = n;
    elapsed_s;
    throughput_rps = float_of_int n /. elapsed_s;
    p50_us = us 0.5;
    p99_us = us 0.99;
    p999_us = us 0.999;
    max_us = (if n = 0 then nan else sorted.(n - 1) *. 1e6);
    occupancy;
    batches = Int64.sub stats_after.P.batches stats_before.P.batches;
  }

let mean_occupancy s =
  let total = ref 0L and weighted = ref 0.0 in
  Array.iteri
    (fun i count ->
      total := Int64.add !total count;
      weighted := !weighted +. (float_of_int (i + 1) *. Int64.to_float count))
    s.occupancy;
  if !total = 0L then nan else !weighted /. Int64.to_float !total

let print_summary label s =
  Printf.printf
    "%s: %d requests in %.2f s = %.0f req/s | p50 %.0f us  p99 %.0f us  p999 %.0f \
     us  max %.0f us | %Ld batches, mean occupancy %.1f\n\
     %!"
    label s.requests s.elapsed_s s.throughput_rps s.p50_us s.p99_us s.p999_us
    s.max_us s.batches (mean_occupancy s)

(* {1 The multiplexed driver} *)

type workload = {
  total : int;
  clients : int;
  depth : int; (* closed-loop outstanding requests per connection *)
  rate : float option; (* requests/s over all clients; None = closed loop *)
  mc_every : int; (* every k-th request asks for MC uncertainty *)
  mc_draws : int;
  features_of : int -> float array; (* request index -> features *)
}

(* Deterministic synthetic request stream: a fixed table of 1024 feature
   vectors drawn up front from a seeded stream, cycled by request index.
   Every run (and every server under test) sees the same vectors in the
   same order, and the hot loop does no RNG work. *)
let synthetic_features ~seed ~inputs =
  let table =
    Array.init 1024 (fun i ->
        let rng = Rng.create (seed + i) in
        Array.init inputs (fun _ -> Rng.float rng))
  in
  fun idx -> table.(idx land 1023)

let request_of w idx =
  let id = Int32.of_int (idx land 0x7fffffff) in
  let features = w.features_of idx in
  if w.mc_every > 0 && idx mod w.mc_every = w.mc_every - 1 then
    P.Predict_mc { id; features; draws = w.mc_draws; seed = id }
  else P.Predict { id; features }

(* The client type is abstract; the driver needs the raw fd for select, so
   it speaks sockets directly instead of going through [Serving.Client]. *)
let connect_fd addr =
  let domain =
    match addr with Unix.ADDR_UNIX _ -> Unix.PF_UNIX | Unix.ADDR_INET _ -> Unix.PF_INET
  in
  let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
  Unix.connect fd addr;
  fd

type raw_conn = {
  fd : Unix.file_descr;
  rd : P.reader;
  (* pnnlint:allow R7 each raw_conn is built and driven by exactly one
     load-generator domain; inflight never crosses domains *)
  mutable inflight : (int32 * float) list;
}

let send_all fd frame =
  let len = Bytes.length frame in
  let sent = ref 0 in
  while !sent < len do
    sent := !sent + Unix.write fd frame !sent (len - !sent)
  done

let run_load addr w =
  let conns =
    Array.init w.clients (fun _ ->
        { fd = connect_fd addr; rd = P.reader (); inflight = [] })
  in
  let latencies = Array.make w.total 0.0 in
  let completed = ref 0 in
  let next_idx = ref 0 in
  let t_start = now () in
  (* Predict frames for a given feature vector differ only in the 4-byte id
     at offset 6 (len u32 | ver u8 | kind u8 | id u32 | ...), so cache one
     encoded frame per distinct vector and patch the id in place — the hot
     loop then skips the float re-encode entirely.  [Buffer.add_bytes]
     copies, so reusing the patched template is safe. *)
  let frame_cache : (float array, Bytes.t) Hashtbl.t = Hashtbl.create 2053 in
  let predict_frame id features =
    match Hashtbl.find_opt frame_cache features with
    | Some tpl ->
        Bytes.set_int32_be tpl 6 id;
        tpl
    | None ->
        let f = P.encode_request (P.Predict { id; features }) in
        Hashtbl.add frame_cache features f;
        f
  in
  (* [send_many conn k] issues up to [k] fresh requests on [conn] as ONE
     write: pipelined replacements coalesce into a single segment, so the
     per-request syscall cost on both sides is amortized over the batch. *)
  let send_many conn k =
    let frames = Buffer.create 1024 in
    let issued = ref 0 in
    (* all requests of one send_many leave in the same write: stamp once *)
    let sent_at = if w.rate = None then now () else 0.0 in
    while !issued < k && !next_idx < w.total do
      let idx = !next_idx in
      incr next_idx;
      incr issued;
      let req = request_of w idx in
      let stamp =
        match w.rate with
        | None -> sent_at
        | Some r ->
            (* open loop: latency counts from the scheduled release time *)
            t_start +. (float_of_int idx /. r)
      in
      conn.inflight <- (P.request_id req, stamp) :: conn.inflight;
      (match req with
      | P.Predict { id; features } ->
          Buffer.add_bytes frames (predict_frame id features)
      | req -> Buffer.add_bytes frames (P.encode_request req))
    done;
    if Buffer.length frames > 0 then send_all conn.fd (Buffer.to_bytes frames)
  in
  let send_on conn = send_many conn 1 in
  let complete conn id =
    match List.assoc_opt id conn.inflight with
    | None -> ()
    | Some stamp ->
        conn.inflight <- List.filter (fun (i, _) -> i <> id) conn.inflight;
        if !completed < w.total then begin
          latencies.(!completed) <- now () -. stamp;
          incr completed
        end
  in
  let chunk = Bytes.create 65536 in
  let drain_conn conn =
    match Unix.read conn.fd chunk 0 (Bytes.length chunk) with
    | 0 -> failwith "loadgen: server closed connection"
    | n ->
        P.feed conn.rd chunk ~pos:0 ~len:n;
        let finished = ref 0 in
        let rec frames () =
          match P.next_frame conn.rd with
          | Ok None -> ()
          | Ok (Some payload) ->
              (match P.decode_response payload with
              | Ok (P.Class { id; _ })
              | Ok (P.Mc_class { id; _ }) ->
                  complete conn id;
                  incr finished
              | Ok (P.Error { id; message }) ->
                  failwith
                    (Printf.sprintf "loadgen: server error on %ld: %s" id message)
              | Ok _ -> ()
              | Error msg -> failwith ("loadgen: bad response: " ^ msg));
              frames ()
          | Error msg -> failwith ("loadgen: framing error: " ^ msg)
        in
        frames ();
        (* closed loop: finished requests offer replacements — all of this
           read's replacements leave in one write *)
        if w.rate = None then send_many conn !finished
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
      ->
        ()
  in
  (* prime: closed loop = [depth] per connection; open loop sends on
     schedule.  Depth > 1 pipelines requests so frames coalesce per segment
     and both sides spend one syscall on many frames. *)
  (match w.rate with
  | None ->
      for _ = 1 to w.depth do
        Array.iter send_on conns
      done
  | Some _ -> ());
  let fds = Array.to_list (Array.map (fun c -> c.fd) conns) in
  let conn_of_fd fd = Array.to_list conns |> List.find (fun c -> c.fd == fd) in
  while !completed < w.total do
    (match w.rate with
    | Some r ->
        (* release every request whose scheduled time has passed *)
        let due = int_of_float ((now () -. t_start) *. r) in
        let cap = min (due + 1) w.total in
        while !next_idx < cap do
          let conn = conns.(!next_idx mod w.clients) in
          send_on conn
        done
    | None -> ());
    let timeout =
      match w.rate with
      | None -> 1.0
      | Some r ->
          if !next_idx >= w.total then 0.05
          else
            let next_due = t_start +. (float_of_int !next_idx /. r) in
            Float.max 0.0 (Float.min 0.05 (next_due -. now ()))
    in
    match Unix.select fds [] [] timeout with
    | readable, _, _ -> List.iter (fun fd -> drain_conn (conn_of_fd fd)) readable
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done;
  let elapsed_s = now () -. t_start in
  let stats =
    let fd = conns.(0).fd in
    send_all fd (P.encode_request (P.Stats { id = 0l }));
    let rec await () =
      match P.next_frame conns.(0).rd with
      | Ok (Some payload) -> (
          match P.decode_response payload with
          | Ok (P.Stats_reply { stats; _ }) -> stats
          | Ok _ -> await ()
          | Error msg -> failwith ("loadgen: bad stats response: " ^ msg))
      | Ok None ->
          let chunk = Bytes.create 4096 in
          let n = Unix.read fd chunk 0 (Bytes.length chunk) in
          if n = 0 then failwith "loadgen: server closed during stats";
          P.feed conns.(0).rd chunk ~pos:0 ~len:n;
          await ()
      | Error msg -> failwith ("loadgen: framing error: " ^ msg)
    in
    await ()
  in
  Array.iter (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ()) conns;
  (latencies, elapsed_s, stats)

let zero_stats max_batch =
  {
    P.served = 0L;
    mc_served = 0L;
    batches = 0L;
    errors = 0L;
    occupancy = Array.make max_batch 0L;
  }

(* {1 run: drive an external server} *)

let cmd_run sock_path total clients depth rate mc_every mc_draws seed =
  let addr = Unix.ADDR_UNIX sock_path in
  (* one probe request discovers the model's input width *)
  let probe = Serving.Client.connect addr in
  let inputs =
    match Serving.Client.rpc probe (P.Predict { id = 0l; features = [||] }) with
    | P.Error { message; _ } -> (
        (* "expected N features, got 0" *)
        match String.split_on_char ' ' message with
        | "expected" :: n :: _ -> int_of_string n
        | _ -> failwith ("loadgen: cannot discover feature width: " ^ message))
    | P.Class _ -> 0
    | _ -> failwith "loadgen: unexpected probe response"
  in
  Serving.Client.close probe;
  let w =
    {
      total;
      clients;
      depth;
      rate;
      mc_every;
      mc_draws;
      features_of = synthetic_features ~seed ~inputs;
    }
  in
  let latencies, elapsed_s, stats_after = run_load addr w in
  let s =
    summarize ~elapsed_s ~latencies
      ~stats_before:(zero_stats (Array.length stats_after.P.occupancy))
      ~stats_after
  in
  print_summary
    (Printf.sprintf "%s loop, %d clients"
       (match rate with None -> "closed" | Some r -> Printf.sprintf "open @ %.0f/s" r)
       clients)
    s;
  Printf.printf "occupancy histogram (batch size: batches):";
  Array.iteri
    (fun i c -> if c > 0L then Printf.printf " %d:%Ld" (i + 1) c)
    s.occupancy;
  print_newline ()

(* {1 bench5: the committed serving benchmark} *)

let time_ns ~runs f =
  f ();
  f ();
  let t0 = now () in
  for _ = 1 to runs do
    f ()
  done;
  (now () -. t0) /. float_of_int runs *. 1e9

(* The elementwise kernel gap between the reference and C backends. *)
let elementwise_row () =
  let measure backend =
    Tensor.set_backend backend;
    let rng = Rng.create 5 in
    let a = Tensor.uniform rng 128 64 ~lo:(-1.0) ~hi:1.0 in
    let b = Tensor.uniform rng 128 64 ~lo:(-1.0) ~hi:1.0 in
    let dst = Tensor.zeros 128 64 in
    (* best of five trials: the minimum mean is the least-perturbed one *)
    let best = ref infinity in
    for _ = 1 to 5 do
      best :=
        Float.min !best (time_ns ~runs:20000 (fun () -> Tensor.add_into a b ~dst))
    done;
    !best
  in
  let ref_ns = measure Tensor.Reference in
  let c_ns = measure Tensor.C64 in
  (ref_ns, c_ns)

let wide_model surrogate =
  Serving.Serve_model.of_network
    (Pnn.Network.create_deep (Rng.create 11) Pnn.Config.default surrogate
       ~sizes:[ 64; 48; 16 ])

type bench_row = {
  row_name : string;
  backend : string;
  max_batch : int;
  s : summary;
}

let bench_config ~surrogate ~backend ~max_batch ~total ~clients ~depth ~mc_every
    ~mc_draws =
  Tensor.set_backend backend;
  let model = wide_model surrogate in
  let dir = Filename.temp_file "pnn_bench5" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let sock = Filename.concat dir "serve.sock" in
  let config =
    { Serving.Server.default_config with max_batch; linger = 0.001 }
  in
  let server = Serving.Server.create ~config model (Unix.ADDR_UNIX sock) in
  let server_domain = Domain.spawn (fun () -> Serving.Server.run server) in
  let w =
    {
      total;
      clients;
      depth;
      rate = None;
      mc_every;
      mc_draws;
      features_of = synthetic_features ~seed:1234 ~inputs:64;
    }
  in
  let latencies, elapsed_s, stats_after = run_load (Unix.ADDR_UNIX sock) w in
  (* shut the server down over the wire — exercises the graceful path *)
  let c = Serving.Client.connect (Unix.ADDR_UNIX sock) in
  Serving.Client.shutdown c;
  Serving.Client.close c;
  Domain.join server_domain;
  (try Unix.unlink sock with Unix.Unix_error _ -> ());
  (try Unix.rmdir dir with Unix.Unix_error _ -> ());
  summarize ~elapsed_s ~latencies ~stats_before:(zero_stats max_batch) ~stats_after

let json_of_row r =
  Printf.sprintf
    "    { \"name\": %S, \"backend\": %S, \"max_batch\": %d, \"requests\": %d, \
     \"throughput_rps\": %.1f, \"p50_us\": %.1f, \"p99_us\": %.1f, \"p999_us\": \
     %.1f, \"batches\": %Ld, \"mean_occupancy\": %.2f }"
    r.row_name r.backend r.max_batch r.s.requests r.s.throughput_rps r.s.p50_us
    r.s.p99_us r.s.p999_us r.s.batches (mean_occupancy r.s)

let cmd_bench5 total clients depth json_path =
  (* Elementwise first, on a quiet compacted heap — the serving runs below
     leave a large major heap behind that would skew a kernel microbench. *)
  Gc.compact ();
  let ref_ns, c_ns = elementwise_row () in
  Printf.printf "bench5: tensor_add_128x64 ref %.0f ns vs c %.0f ns (%.2fx)\n%!"
    ref_ns c_ns (ref_ns /. c_ns);
  Printf.printf "bench5: training throwaway surrogate...\n%!";
  let dataset = Surrogate.Pipeline.generate_dataset ~n:250 () in
  let surrogate, _ =
    Surrogate.Pipeline.train_surrogate ~arch:[ 10; 8; 6; 4 ] ~max_epochs:300
      (Rng.create 42) dataset
  in
  let rows = ref [] in
  let add_row row_name backend max_batch ~mc_every ~mc_draws =
    let name = Tensor.backend_name backend in
    Printf.printf "bench5: %s (backend %s, max_batch %d)...\n%!" row_name name
      max_batch;
    let s =
      bench_config ~surrogate ~backend ~max_batch ~total ~clients ~depth
        ~mc_every ~mc_draws
    in
    print_summary (Printf.sprintf "  %s" row_name) s;
    rows := { row_name; backend = name; max_batch; s } :: !rows
  in
  (* {batch=1, batch=64} x {reference, c}, plus one MC row *)
  let named batch = Printf.sprintf "serve_wide_batch%d_%s" batch in
  add_row (named 1 "reference") Tensor.Reference 1 ~mc_every:0 ~mc_draws:0;
  add_row (named 64 "reference") Tensor.Reference 64 ~mc_every:0 ~mc_draws:0;
  add_row (named 1 "c") Tensor.C64 1 ~mc_every:0 ~mc_draws:0;
  add_row (named 64 "c") Tensor.C64 64 ~mc_every:0 ~mc_draws:0;
  add_row "serve_wide_mc32_c" Tensor.C64 64 ~mc_every:8 ~mc_draws:32;
  let rows = List.rev !rows in
  let find name = List.find (fun r -> r.row_name = name) rows in
  let speedup be = (find (named 64 be)).s.throughput_rps /. (find (named 1 be)).s.throughput_rps in
  Printf.printf "bench5: batching speedup reference %.1fx, c %.1fx\n%!"
    (speedup "reference") (speedup "c");
  let oc = open_out json_path in
  Printf.fprintf oc "{\n  \"bench\": \"BENCH_5\",\n  \"results\": [\n%s\n  ],\n"
    (String.concat ",\n" (List.map json_of_row rows));
  Printf.fprintf oc
    "  \"batching_speedup\": { \"reference\": %.2f, \"c\": %.2f },\n"
    (speedup "reference") (speedup "c");
  Printf.fprintf oc
    "  \"elementwise\": { \"name\": \"tensor_add_128x64\", \"ref_ns\": %.1f, \
     \"c_ns\": %.1f, \"speedup\": %.2f }\n}\n"
    ref_ns c_ns (ref_ns /. c_ns);
  close_out oc;
  Printf.printf "bench5: wrote %s\n%!" json_path

(* {1 Command line} *)

let socket_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH" ~doc:"unix-domain socket of the server")

let total_arg =
  Arg.(value & opt int 100_000 & info [ "n"; "requests" ] ~doc:"total requests")

let clients_arg =
  Arg.(value & opt int 32 & info [ "clients" ] ~doc:"concurrent connections")

let depth_arg =
  Arg.(
    value & opt int 1
    & info [ "depth" ]
        ~doc:"closed-loop pipelining: outstanding requests per connection")

let bench_clients_arg =
  Arg.(value & opt int 16 & info [ "clients" ] ~doc:"concurrent connections")

let bench_depth_arg =
  Arg.(
    value & opt int 8
    & info [ "depth" ] ~doc:"outstanding requests per connection")

let rate_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "rate" ]
        ~doc:"open-loop offered rate (req/s over all clients); omit for closed loop")

let mc_every_arg =
  Arg.(
    value & opt int 0
    & info [ "mc-every" ] ~doc:"every k-th request asks for MC uncertainty (0 = never)")

let mc_draws_arg =
  Arg.(value & opt int 32 & info [ "mc-draws" ] ~doc:"draws per MC request")

let seed_arg =
  Arg.(value & opt int 1234 & info [ "seed" ] ~doc:"synthetic feature stream seed")

let json_arg =
  Arg.(
    value & opt string "BENCH_5.json"
    & info [ "json" ] ~doc:"output path for the benchmark results")

let run_cmd =
  Cmd.v
    (Cmd.info "run" ~doc:"replay synthetic requests against a running server")
    Term.(
      const cmd_run $ socket_arg $ total_arg $ clients_arg $ depth_arg
      $ rate_arg $ mc_every_arg $ mc_draws_arg $ seed_arg)

let bench5_cmd =
  Cmd.v
    (Cmd.info "bench5"
       ~doc:
         "measure serving throughput/latency across {batch 1, batch 64} x \
          {reference, c} and write BENCH_5.json")
    Term.(
      const cmd_bench5 $ total_arg $ bench_clients_arg
      $ bench_depth_arg $ json_arg)

let main =
  Cmd.group
    (Cmd.info "loadgen" ~doc:"load-test driver for the pNN inference service")
    [ run_cmd; bench5_cmd ]

let () = exit (Cmd.eval main)
