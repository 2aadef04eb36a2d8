(* Length-prefixed binary wire protocol for the inference service.

   Framing: a 4-byte big-endian unsigned payload length, then the payload.
   Floats travel as the big-endian bits of their IEEE-754 double
   representation ([Int64.bits_of_float]), so feature vectors and
   Monte-Carlo quantiles cross the wire bit-exactly — the determinism
   contract extends to the protocol.  A NaN of any payload or sign is
   written as one NaN ([Lines.canonical]), so the bytes do not depend on
   which NaN a kernel made.

   This module is a pure codec over [bytes]: no sockets, no clocks, no
   global state.  The server, the load generator and the tests all speak
   through it. *)

let version = 1

(* A frame larger than this is a protocol error, not a bigger buffer: the
   largest legitimate payload (a max-feature MC request) is ~32 KiB. *)
let max_frame = 1 lsl 20
let max_features = 4096
let max_mc_draws = 1024

type request =
  | Predict of { id : int32; features : float array }
  | Predict_mc of { id : int32; features : float array; draws : int; seed : int32 }
  | Stats of { id : int32 }
  | Shutdown of { id : int32 }

type server_stats = {
  served : int64;  (** single-class answers sent *)
  mc_served : int64;  (** Monte-Carlo answers sent *)
  batches : int64;  (** forward passes run by the batcher *)
  errors : int64;  (** error responses sent *)
  occupancy : int64 array;
      (** [occupancy.(i)] counts batches that carried [i + 1] requests;
          length = the server's max batch size *)
}

type response =
  | Class of { id : int32; cls : int }
  | Mc_class of { id : int32; cls : int; mean_p : float; q05 : float; q95 : float }
  | Stats_reply of { id : int32; stats : server_stats }
  | Shutdown_ack of { id : int32 }
  | Error of { id : int32; message : string }

let request_id = function
  | Predict { id; _ } | Predict_mc { id; _ } | Stats { id } | Shutdown { id } -> id

let response_id = function
  | Class { id; _ }
  | Mc_class { id; _ }
  | Stats_reply { id; _ }
  | Shutdown_ack { id }
  | Error { id; _ } ->
      id

(* {1 Little building blocks} *)

let add_u8 b v = Buffer.add_uint8 b (v land 0xff)
let add_u16 b v = Buffer.add_uint16_be b (v land 0xffff)
let add_u32 b (v : int32) = Buffer.add_int32_be b v
let add_u64 b (v : int64) = Buffer.add_int64_be b v
let add_f64 b v = Buffer.add_int64_be b (Int64.bits_of_float (Lines.canonical v))

(* Decoding reads from a payload [bytes] with explicit bounds: every getter
   checks before it reads, so truncated payloads surface as [Error _]
   results, never as escaping exceptions. *)
(* pnnlint:allow R7 a cursor decodes one payload on one domain; it lives for
   the duration of a single [decode_*] call *)
type cursor = { data : bytes; mutable pos : int; limit : int }

exception Decode of string

let need cur n what =
  if cur.pos + n > cur.limit then
    raise (Decode (Printf.sprintf "truncated payload reading %s" what))

let get_u8 cur what =
  need cur 1 what;
  let v = Char.code (Bytes.get cur.data cur.pos) in
  cur.pos <- cur.pos + 1;
  v

let get_u16 cur what =
  need cur 2 what;
  let v = Bytes.get_uint16_be cur.data cur.pos in
  cur.pos <- cur.pos + 2;
  v

let get_u32 cur what =
  need cur 4 what;
  let v = Bytes.get_int32_be cur.data cur.pos in
  cur.pos <- cur.pos + 4;
  v

let get_u64 cur what =
  need cur 8 what;
  let v = Bytes.get_int64_be cur.data cur.pos in
  cur.pos <- cur.pos + 8;
  v

let get_f64 cur what = Int64.float_of_bits (get_u64 cur what)

(* [n] floats in one pass: the whole run is checked once, so a declared
   count larger than the payload is refused before the array exists, with
   the message the first missing float would have given. *)
let get_floats cur n what =
  need cur (8 * n) what;
  let a = Array.create_float n in
  let pos = cur.pos in
  for i = 0 to n - 1 do
    a.(i) <- Int64.float_of_bits (Bytes.get_int64_be cur.data (pos + (8 * i)))
  done;
  cur.pos <- pos + (8 * n);
  a

let finish cur v =
  if cur.pos <> cur.limit then
    raise (Decode (Printf.sprintf "%d trailing bytes" (cur.limit - cur.pos)));
  v

(* {1 Framing} *)

let frame payload =
  let n = Bytes.length payload in
  if n > max_frame then invalid_arg "Protocol.frame: payload exceeds max_frame";
  let out = Bytes.create (4 + n) in
  Bytes.set_int32_be out 0 (Int32.of_int n);
  Bytes.blit payload 0 out 4 n;
  out

let of_buffer b = frame (Buffer.to_bytes b)

(* {1 Requests} *)

let kind_predict = 1
let kind_predict_mc = 2
let kind_stats = 3
let kind_shutdown = 4

(* The wire carries counts in 16 bits: a count the decoder would refuse is
   refused here, before [add_u16] could wrap it into one it accepts. *)
let check_features features =
  if Array.length features > max_features then
    invalid_arg "Protocol.encode_request: feature count exceeds max_features"

let encode_request req =
  (match req with
  | Predict { features; _ } -> check_features features
  | Predict_mc { features; draws; _ } ->
      check_features features;
      if draws < 1 || draws > max_mc_draws then
        invalid_arg "Protocol.encode_request: draws outside [1, max_mc_draws]"
  | Stats _ | Shutdown _ -> ());
  let b = Buffer.create 64 in
  add_u8 b version;
  (match req with
  | Predict { id; features } ->
      add_u8 b kind_predict;
      add_u32 b id;
      add_u16 b (Array.length features);
      Array.iter (add_f64 b) features
  | Predict_mc { id; features; draws; seed } ->
      add_u8 b kind_predict_mc;
      add_u32 b id;
      add_u16 b (Array.length features);
      add_u16 b draws;
      add_u32 b seed;
      Array.iter (add_f64 b) features
  | Stats { id } ->
      add_u8 b kind_stats;
      add_u32 b id
  | Shutdown { id } ->
      add_u8 b kind_shutdown;
      add_u32 b id);
  of_buffer b

let decode_request payload =
  let cur = { data = payload; pos = 0; limit = Bytes.length payload } in
  match
    let v = get_u8 cur "version" in
    if v <> version then
      raise (Decode (Printf.sprintf "unsupported protocol version %d" v));
    let kind = get_u8 cur "kind" in
    let id = get_u32 cur "request id" in
    if kind = kind_predict then begin
      let n = get_u16 cur "feature count" in
      if n > max_features then raise (Decode "feature count exceeds limit");
      finish cur (Predict { id; features = get_floats cur n "feature" })
    end
    else if kind = kind_predict_mc then begin
      let n = get_u16 cur "feature count" in
      if n > max_features then raise (Decode "feature count exceeds limit");
      let draws = get_u16 cur "draw count" in
      if draws < 1 || draws > max_mc_draws then
        raise (Decode "draw count out of range");
      let seed = get_u32 cur "mc seed" in
      finish cur (Predict_mc { id; features = get_floats cur n "feature"; draws; seed })
    end
    else if kind = kind_stats then finish cur (Stats { id })
    else if kind = kind_shutdown then finish cur (Shutdown { id })
    else raise (Decode (Printf.sprintf "unknown request kind %d" kind))
  with
  | req -> Ok req
  | exception Decode msg -> Error msg

(* {1 Responses} *)

let status_ok = 0
let status_error = 1

let encode_response resp =
  let b = Buffer.create 64 in
  add_u8 b version;
  (match resp with
  | Class { id; cls } ->
      add_u8 b status_ok;
      add_u8 b kind_predict;
      add_u32 b id;
      add_u16 b cls
  | Mc_class { id; cls; mean_p; q05; q95 } ->
      add_u8 b status_ok;
      add_u8 b kind_predict_mc;
      add_u32 b id;
      add_u16 b cls;
      add_f64 b mean_p;
      add_f64 b q05;
      add_f64 b q95
  | Stats_reply { id; stats } ->
      add_u8 b status_ok;
      add_u8 b kind_stats;
      add_u32 b id;
      add_u64 b stats.served;
      add_u64 b stats.mc_served;
      add_u64 b stats.batches;
      add_u64 b stats.errors;
      add_u16 b (Array.length stats.occupancy);
      Array.iter (add_u64 b) stats.occupancy
  | Shutdown_ack { id } ->
      add_u8 b status_ok;
      add_u8 b kind_shutdown;
      add_u32 b id
  | Error { id; message } ->
      add_u8 b status_error;
      add_u8 b 0;
      add_u32 b id;
      let message =
        if String.length message > 0xffff then String.sub message 0 0xffff
        else message
      in
      add_u16 b (String.length message);
      Buffer.add_string b message);
  of_buffer b

let decode_response payload =
  let cur = { data = payload; pos = 0; limit = Bytes.length payload } in
  match
    let v = get_u8 cur "version" in
    if v <> version then
      raise (Decode (Printf.sprintf "unsupported protocol version %d" v));
    let status = get_u8 cur "status" in
    let kind = get_u8 cur "kind" in
    let id = get_u32 cur "request id" in
    if status = status_error then begin
      let n = get_u16 cur "error length" in
      need cur n "error message";
      let message = Bytes.sub_string cur.data cur.pos n in
      cur.pos <- cur.pos + n;
      finish cur (Error { id; message })
    end
    else if kind = kind_predict then finish cur (Class { id; cls = get_u16 cur "class" })
    else if kind = kind_predict_mc then begin
      let cls = get_u16 cur "class" in
      let mean_p = get_f64 cur "mean_p" in
      let q05 = get_f64 cur "q05" in
      let q95 = get_f64 cur "q95" in
      finish cur (Mc_class { id; cls; mean_p; q05; q95 })
    end
    else if kind = kind_stats then begin
      let served = get_u64 cur "served" in
      let mc_served = get_u64 cur "mc_served" in
      let batches = get_u64 cur "batches" in
      let errors = get_u64 cur "errors" in
      let n = get_u16 cur "occupancy length" in
      (* the whole run is checked before the array exists, as in get_floats *)
      need cur (8 * n) "occupancy";
      let occupancy = Array.init n (fun _ -> get_u64 cur "occupancy") in
      finish cur (Stats_reply { id; stats = { served; mc_served; batches; errors; occupancy } })
    end
    else if kind = kind_shutdown then finish cur (Shutdown_ack { id })
    else raise (Decode (Printf.sprintf "unknown response kind %d" kind))
  with
  | resp -> Ok resp
  | exception Decode msg -> Error msg

(* {1 Incremental frame reader} *)

(* Accumulates raw stream bytes and yields complete payloads.  A declared
   length beyond [max_frame] is unrecoverable (the stream can never resync),
   so it surfaces as [Error] and the connection should be dropped. *)
(* pnnlint:allow R7 each reader belongs to one connection, fed only by the
   domain that owns that connection's event loop *)
type reader = { mutable buf : Bytes.t; mutable start : int; mutable len : int }

let reader () = { buf = Bytes.create 4096; start = 0; len = 0 }

let feed r src ~pos ~len =
  if len < 0 || pos < 0 || pos + len > Bytes.length src then
    invalid_arg "Protocol.feed";
  let cap = Bytes.length r.buf in
  if r.start + r.len + len > cap then begin
    (* compact, growing if the live bytes + new bytes still don't fit *)
    let need = r.len + len in
    let cap' = if need > cap then max need (2 * cap) else cap in
    let buf' = if cap' > cap then Bytes.create cap' else r.buf in
    Bytes.blit r.buf r.start buf' 0 r.len;
    r.buf <- buf';
    r.start <- 0
  end;
  Bytes.blit src pos r.buf (r.start + r.len) len;
  r.len <- r.len + len

let next_frame r =
  if r.len < 4 then Ok None
  else
    let declared = Int32.to_int (Bytes.get_int32_be r.buf r.start) in
    if declared < 0 || declared > max_frame then
      Error (Printf.sprintf "oversized frame (%d bytes declared)" declared)
    else if r.len < 4 + declared then Ok None
    else begin
      let payload = Bytes.sub r.buf (r.start + 4) declared in
      r.start <- r.start + 4 + declared;
      r.len <- r.len - 4 - declared;
      if r.len = 0 then r.start <- 0;
      Ok (Some payload)
    end

let buffered r = r.len
