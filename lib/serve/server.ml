(* The long-running inference server: a single-domain [Unix.select] event
   loop over a listening socket, per-connection frame readers/write buffers,
   and the {!Batcher} coalescing window.  Predict requests are batched into
   single forward passes on {!Serve_model}'s compiled graphs; Monte-Carlo
   requests fan their draws over the shared {!Parallel} pool.

   Division of labour with the rest of the library: {!Protocol},
   {!Batcher} and {!Serve_model} produce every result and are wall-clock
   free; this module only decides *when* work runs (linger deadlines,
   select timeouts) and counts what happened.  The clock never feeds a
   result, which is exactly the shape pnnlint R2 enforces. *)

module P = Protocol

type config = {
  max_batch : int;
  linger : float; (* seconds *)
  mc_model : Pnn.Variation.model;
}

let default_config =
  { max_batch = 64; linger = 0.001; mc_model = Pnn.Variation.Uniform 0.1 }

type conn = {
  fd : Unix.file_descr;
  rd : P.reader;
  out : Buffer.t; (* queued response bytes; [out_pos] already sent *)
  (* pnnlint:allow R7 connection state is touched only by the select-loop
     domain that accepted the socket *)
  mutable out_pos : int;
  mutable closing : bool; (* close once the out buffer drains *)
}

type pending = { p_conn : conn; p_id : int32; p_features : float array }

type t = {
  model : Serve_model.t;
  cfg : config;
  listen_fd : Unix.file_descr;
  sock_path : string option; (* unlink on close for unix-domain sockets *)
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
  stop_flag : bool Atomic.t;
  batcher : pending Batcher.t;
  (* pnnlint:allow R7 conns/stopping are touched only by the select-loop
     domain that owns this server; cross-domain control flows through
     stop_flag (already Atomic) and the self-pipe *)
  mutable conns : conn list;
  mutable stopping : bool;
  (* Observability counters: incremented on the loop domain, read by
     [stats] from any domain — hence Atomic, not plain mutable. *)
  served : int Atomic.t;
  mc_served : int Atomic.t;
  batches : int Atomic.t;
  errors : int Atomic.t;
  occupancy : int Atomic.t array;
  write_scratch : Bytes.t; (* per-server: the loop domain owns it *)
  read_scratch : Bytes.t;
}

(* pnnlint:allow R2 scheduling/observability only: the clock decides when a
   batch releases and feeds the select timeout — it is never an input to
   any response payload (Protocol/Batcher/Serve_model are clock-free) *)
let now () = Unix.gettimeofday ()

let validate_config cfg =
  if cfg.max_batch < 1 || cfg.max_batch > 4096 then
    invalid_arg "Server.create: max_batch out of range";
  if cfg.linger < 0.0 || not (Float.is_finite cfg.linger) then
    invalid_arg "Server.create: bad linger";
  Pnn.Variation.validate cfg.mc_model

let create ?(config = default_config) model addr =
  validate_config config;
  let domain =
    match addr with Unix.ADDR_UNIX _ -> Unix.PF_UNIX | Unix.ADDR_INET _ -> Unix.PF_INET
  in
  let sock_path =
    match addr with
    | Unix.ADDR_UNIX path ->
        if Sys.file_exists path then Unix.unlink path;
        Some path
    | Unix.ADDR_INET _ -> None
  in
  let listen_fd = Unix.socket domain Unix.SOCK_STREAM 0 in
  (match addr with
  | Unix.ADDR_INET _ -> Unix.setsockopt listen_fd Unix.SO_REUSEADDR true
  | Unix.ADDR_UNIX _ -> ());
  (try
     Unix.bind listen_fd addr;
     Unix.listen listen_fd 64
   with e ->
     Unix.close listen_fd;
     raise e);
  Unix.set_nonblock listen_fd;
  let wake_r, wake_w = Unix.pipe () in
  Unix.set_nonblock wake_r;
  {
    model;
    cfg = config;
    listen_fd;
    sock_path;
    wake_r;
    wake_w;
    stop_flag = Atomic.make false;
    batcher = Batcher.create ~max_batch:config.max_batch ~linger:config.linger;
    conns = [];
    stopping = false;
    served = Atomic.make 0;
    mc_served = Atomic.make 0;
    batches = Atomic.make 0;
    errors = Atomic.make 0;
    occupancy = Array.init config.max_batch (fun _ -> Atomic.make 0);
    write_scratch = Bytes.create 65536;
    read_scratch = Bytes.create 65536;
  }

(* Safe from any domain: flip the flag, poke the self-pipe so a sleeping
   select wakes up. *)
let stop t =
  Atomic.set t.stop_flag true;
  try ignore (Unix.write t.wake_w (Bytes.make 1 '!') 0 1) with Unix.Unix_error _ -> ()

(* Safe from any domain: every counter is an Atomic. *)
let stats t =
  {
    P.served = Int64.of_int (Atomic.get t.served);
    mc_served = Int64.of_int (Atomic.get t.mc_served);
    batches = Int64.of_int (Atomic.get t.batches);
    errors = Int64.of_int (Atomic.get t.errors);
    occupancy = Array.map (fun c -> Int64.of_int (Atomic.get c)) t.occupancy;
  }

(* {1 Connection plumbing} *)

let enqueue conn frame = Buffer.add_bytes conn.out frame
let has_output conn = conn.out_pos < Buffer.length conn.out

let close_conn t conn =
  (try Unix.close conn.fd with Unix.Unix_error _ -> ());
  t.conns <- List.filter (fun c -> c != conn) t.conns

let respond t conn resp =
  (match resp with P.Error _ -> Atomic.incr t.errors | _ -> ());
  enqueue conn (P.encode_response resp)

(* {1 Request dispatch} *)

(* A model that raises fails the requests it was answering, not the
   server: each gets an [Error] naming the exception, and the loop (and the
   shared pool, which re-raises a worker's exception only after every
   claimed draw finished) carries on. *)
let model_error id e =
  P.Error { id; message = "model failed: " ^ Printexc.to_string e }

let handle_request t conn ~admitted req =
  match req with
  | P.Predict { id; features } ->
      if Array.length features <> Serve_model.inputs t.model then
        respond t conn
          (P.Error
             {
               id;
               message =
                 Printf.sprintf "expected %d features, got %d"
                   (Serve_model.inputs t.model) (Array.length features);
             })
      else
        Batcher.push t.batcher ~now:admitted
          { p_conn = conn; p_id = id; p_features = features }
  | P.Predict_mc { id; features; draws; seed } ->
      if Array.length features <> Serve_model.inputs t.model then
        respond t conn
          (P.Error
             {
               id;
               message =
                 Printf.sprintf "expected %d features, got %d"
                   (Serve_model.inputs t.model) (Array.length features);
             })
      else begin
        match
          Serve_model.predict_mc t.model
            ~pool:(Parallel.get_pool ())
            ~model:t.cfg.mc_model ~draws ~seed:(Int32.to_int seed land 0x3fffffff)
            features
        with
        | { Serve_model.cls; mean_p; q05; q95 } ->
            Atomic.incr t.mc_served;
            respond t conn (P.Mc_class { id; cls; mean_p; q05; q95 })
        | exception e -> respond t conn (model_error id e)
      end
  | P.Stats { id } -> respond t conn (P.Stats_reply { id; stats = stats t })
  | P.Shutdown { id } ->
      t.stopping <- true;
      respond t conn (P.Shutdown_ack { id })

let run_batch t batch =
  match batch with
  | [] -> ()
  | _ ->
      let items = Array.of_list batch in
      let rows = Array.map (fun p -> p.p_features) items in
      (match Serve_model.predict_batch t.model rows with
      | classes ->
          Array.iteri
            (fun i p -> respond t p.p_conn (P.Class { id = p.p_id; cls = classes.(i) }))
            items;
          ignore (Atomic.fetch_and_add t.served (Array.length items))
      | exception e -> Array.iter (fun p -> respond t p.p_conn (model_error p.p_id e)) items);
      Atomic.incr t.batches;
      Atomic.incr t.occupancy.(Array.length items - 1)

let flush_batches t ~force =
  if force then List.iter (run_batch t) (Batcher.drain t.batcher)
  else
    let rec go () =
      match Batcher.pop_ready t.batcher ~now:(now ()) with
      | [] -> ()
      | batch ->
          run_batch t batch;
          go ()
    in
    go ()

let handle_readable t conn =
  let chunk = t.read_scratch in
  (* Drain the socket before parsing: pipelined clients pack many frames
     per segment, and one pass over them costs one syscall. *)
  let rec slurp () =
    match Unix.read conn.fd chunk 0 (Bytes.length chunk) with
    | 0 -> conn.closing <- true (* EOF: flush what we owe, then close *)
    | n ->
        P.feed conn.rd chunk ~pos:0 ~len:n;
        if n = Bytes.length chunk then slurp ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
      ->
        ()
    | exception Unix.Unix_error _ -> conn.closing <- true
  in
  slurp ();
  (* One admission stamp for the whole slurp: every frame in it arrived in
     the same readiness round, and one clock read per round is far cheaper
     than one per request. *)
  let admitted = now () in
  let rec drain () =
    match P.next_frame conn.rd with
    | Ok None -> ()
    | Ok (Some payload) ->
        (match P.decode_request payload with
        | Ok req -> handle_request t conn ~admitted req
        | Error msg ->
            (* Malformed payload inside an intact frame: answer and keep
               the connection — framing is still in sync. *)
            respond t conn (P.Error { id = 0l; message = msg }));
        drain ()
    | Error msg ->
        (* Framing is unrecoverable: report and hang up. *)
        respond t conn (P.Error { id = 0l; message = msg });
        conn.closing <- true
  in
  drain ()

(* [t.write_scratch]: one extra memcpy per write syscall (bounded at
   64 KiB) in exchange for O(1)-amortized appends in [enqueue] — a
   realloc-per-frame scheme is quadratic in frames queued per round. *)
let handle_writable t conn =
  let len = Buffer.length conn.out - conn.out_pos in
  if len > 0 then begin
    let k = min len (Bytes.length t.write_scratch) in
    Buffer.blit conn.out conn.out_pos t.write_scratch 0 k;
    match Unix.write conn.fd t.write_scratch 0 k with
    | n ->
        conn.out_pos <- conn.out_pos + n;
        if conn.out_pos = Buffer.length conn.out then begin
          Buffer.clear conn.out;
          conn.out_pos <- 0
        end
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
        ()
    | exception Unix.Unix_error _ -> close_conn t conn
  end

let accept_loop t =
  let rec go () =
    match Unix.accept t.listen_fd with
    | fd, _ ->
        Unix.set_nonblock fd;
        t.conns <-
          { fd; rd = P.reader (); out = Buffer.create 4096; out_pos = 0; closing = false }
          :: t.conns;
        go ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
        ()
  in
  go ()

let close t =
  (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
  (try Unix.close t.wake_r with Unix.Unix_error _ -> ());
  (try Unix.close t.wake_w with Unix.Unix_error _ -> ());
  (match t.sock_path with
  | Some path -> ( try Unix.unlink path with Unix.Unix_error _ | Sys_error _ -> ())
  | None -> ());
  List.iter (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ()) t.conns;
  t.conns <- []

let run t =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let rec loop () =
    if Atomic.get t.stop_flag then t.stopping <- true;
    if t.stopping then flush_batches t ~force:true;
    let finished =
      t.stopping
      && Batcher.pending t.batcher = 0
      && not (List.exists has_output t.conns)
    in
    if not finished then begin
      let timeout =
        if t.stopping then 0.05
        else
          match Batcher.next_deadline t.batcher with
          | Some deadline -> Float.max 0.0 (Float.min 1.0 (deadline -. now ()))
          | None -> 1.0
      in
      let read_fds =
        t.wake_r
        :: (if t.stopping then [] else [ t.listen_fd ])
        @ List.filter_map
            (fun c -> if c.closing then None else Some c.fd)
            t.conns
      in
      let write_fds = List.filter_map (fun c -> if has_output c then Some c.fd else None) t.conns in
      (match Unix.select read_fds write_fds [] timeout with
      | readable, writable, _ ->
          if List.memq t.wake_r readable then begin
            let buf = Bytes.create 64 in
            try ignore (Unix.read t.wake_r buf 0 64) with Unix.Unix_error _ -> ()
          end;
          if List.memq t.listen_fd readable then accept_loop t;
          List.iter
            (fun conn -> if List.memq conn.fd readable then handle_readable t conn)
            t.conns;
          flush_batches t ~force:t.stopping;
          List.iter
            (fun conn ->
              if List.memq conn.fd writable || has_output conn then
                handle_writable t conn)
            t.conns;
          (* Closing connections go away once they owe nothing. *)
          List.iter
            (fun conn ->
              if conn.closing && not (has_output conn) then close_conn t conn)
            (List.filter (fun c -> c.closing) t.conns)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      loop ()
    end
  in
  Fun.protect ~finally:(fun () -> close t) loop
