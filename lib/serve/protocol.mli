(** Length-prefixed binary wire protocol for the inference service.

    Framing is a 4-byte big-endian payload length followed by the payload;
    floats travel as big-endian IEEE-754 double bits, so feature vectors and
    Monte-Carlo quantiles cross the wire bit-exactly, every NaN as one
    canonical NaN ([Lines.canonical]).  A pure codec over
    [bytes] — no sockets, no clocks, no global state. *)

val version : int
val max_frame : int
(** Hard cap on a payload's declared length; larger frames are protocol
    errors (the stream cannot resync) and the connection must be dropped. *)

val max_features : int
val max_mc_draws : int

type request =
  | Predict of { id : int32; features : float array }
      (** Classify one feature vector under nominal (all-ones) variation. *)
  | Predict_mc of { id : int32; features : float array; draws : int; seed : int32 }
      (** Classify with Monte-Carlo uncertainty: [draws] variation draws
          seeded by [seed].  Identical requests get bit-identical answers
          for any server pool size. *)
  | Stats of { id : int32 }  (** Snapshot the server's counters. *)
  | Shutdown of { id : int32 }  (** Graceful stop: drain, ack, exit. *)

type server_stats = {
  served : int64;
  mc_served : int64;
  batches : int64;
  errors : int64;
  occupancy : int64 array;
      (** [occupancy.(i)] counts batches that carried [i + 1] requests. *)
}

type response =
  | Class of { id : int32; cls : int }
  | Mc_class of { id : int32; cls : int; mean_p : float; q05 : float; q95 : float }
      (** [cls] = argmax of the draw-mean softmax probabilities; [mean_p]
          and the quantiles describe that class's probability across
          draws. *)
  | Stats_reply of { id : int32; stats : server_stats }
  | Shutdown_ack of { id : int32 }
  | Error of { id : int32; message : string }
      (** [id] is 0 when the request was too mangled to carry one. *)

val request_id : request -> int32
val response_id : response -> int32

val encode_request : request -> bytes
(** Full frame: length prefix + payload.  Raises [Invalid_argument] on more
    than {!max_features} features or on [draws] outside
    [[1, max_mc_draws]]: the wire's 16-bit counts would otherwise carry a
    different request than the one given. *)

val decode_request : bytes -> (request, string) result
(** Decode one payload (no length prefix).  Never raises: truncated or
    malformed payloads return [Error]. *)

val encode_response : response -> bytes
val decode_response : bytes -> (response, string) result

(** {1 Incremental frame reader}

    Accumulates raw stream bytes and yields complete payloads, for both the
    server's per-connection buffers and blocking clients. *)

type reader

val reader : unit -> reader

val feed : reader -> bytes -> pos:int -> len:int -> unit
(** Append [len] bytes of [src] starting at [pos]. *)

val next_frame : reader -> (bytes option, string) result
(** [Ok None] = need more bytes; [Ok (Some payload)] = one complete frame,
    consumed; [Error _] = unrecoverable framing error (oversized frame). *)

val buffered : reader -> int
(** Bytes currently buffered (diagnostics). *)
