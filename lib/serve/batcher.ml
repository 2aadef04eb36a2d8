(* Request coalescing: admit items as they arrive, release a batch when it
   fills ([max_batch]) or when the oldest admitted item has waited [linger]
   seconds.

   The module never reads a clock — every operation takes [now] from the
   caller.  That keeps the batching core wall-clock-free (pnnlint R2: time
   may schedule work, it must never produce results) and makes the policy
   directly testable with synthetic timestamps. *)

type 'a t = {
  max_batch : int;
  linger : float; (* seconds *)
  q : ('a * float) Queue.t; (* item, admission timestamp *)
}

let create ~max_batch ~linger =
  if max_batch < 1 then invalid_arg "Batcher.create: max_batch < 1";
  if linger < 0.0 || not (Float.is_finite linger) then
    invalid_arg "Batcher.create: bad linger";
  { max_batch; linger; q = Queue.create () }

let pending t = Queue.length t.q

let push t ~now item = Queue.add (item, now) t.q

let next_deadline t =
  match Queue.peek_opt t.q with
  | None -> None
  | Some (_, admitted) -> Some (admitted +. t.linger)

let take_n t n =
  let rec go k acc =
    if k = 0 then List.rev acc
    else
      match Queue.take_opt t.q with
      | None -> List.rev acc
      | Some (item, _) -> go (k - 1) (item :: acc)
  in
  go n []

(* A full batch releases regardless of age; otherwise everything pending
   releases once the front item's linger expires.  One call returns at most
   one batch — callers loop while the queue stays full. *)
let pop_ready t ~now =
  if Queue.length t.q >= t.max_batch then take_n t t.max_batch
  else
    match next_deadline t with
    | Some deadline when now >= deadline -> take_n t t.max_batch
    | Some _ | None -> []

(* Drain unconditionally (shutdown): every pending item, in admission order,
   chunked at the batch cap. *)
let drain t =
  let rec go acc =
    match take_n t t.max_batch with [] -> List.rev acc | b -> go (b :: acc)
  in
  go []
