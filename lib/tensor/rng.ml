(* Generators are sequential by contract: parallel code derives an
   independent stream per domain via [split], never sharing one.

   The four xoshiro256** words live unboxed in 32 bytes (native byte
   order; the bytes never leave the process — [state] is the portable
   form).  A record of mutable [int64] fields would box every word on every
   store: seven allocations per draw. *)
type t = Bytes.t

external get_word : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set_word : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let of_words s0 s1 s2 s3 =
  let t = Bytes.create 32 in
  (* SAFETY: offsets 0..24 of a 32-byte buffer *)
  set_word t 0 s0;
  set_word t 8 s1;
  set_word t 16 s2;
  set_word t 24 s3;
  t

(* splitmix64: expands a single seed into well-distributed 64-bit words; the
   recommended way to seed xoshiro generators. *)
let splitmix64 state =
  let open Int64 in
  state := add !state 0x9E3779B97F4A7C15L;
  let z = !state in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let create seed =
  let state = ref (Int64.of_int seed) in
  let s0 = splitmix64 state in
  let s1 = splitmix64 state in
  let s2 = splitmix64 state in
  let s3 = splitmix64 state in
  of_words s0 s1 s2 s3

(* SAFETY: every t is a 32-byte buffer built by [of_words] *)
let state t = [| get_word t 0; get_word t 8; get_word t 16; get_word t 24 |]

let set_state t words =
  if Array.length words <> 4 then invalid_arg "Rng.set_state: need 4 words";
  (* SAFETY: offsets 0..24 of a 32-byte buffer *)
  set_word t 0 words.(0);
  set_word t 8 words.(1);
  set_word t 16 words.(2);
  set_word t 24 words.(3)

let of_state words =
  let t = of_words 0L 0L 0L 0L in
  set_state t words;
  t

let[@inline] rotl x k =
  Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

(* xoshiro256** next; inlined into [float] and the draws built on it, so a
   draw allocates nothing but its boxed result *)
let[@inline] uint64 t =
  let open Int64 in
  (* SAFETY: offsets 0..24 of a 32-byte buffer *)
  let s0 = get_word t 0 and s1 = get_word t 8 in
  let s2 = get_word t 16 and s3 = get_word t 24 in
  let result = mul (rotl (mul s1 5L) 7) 9L in
  let tmp = shift_left s1 17 in
  let s2 = logxor s2 s0 in
  let s3 = logxor s3 s1 in
  let s1 = logxor s1 s2 in
  let s0 = logxor s0 s3 in
  (* SAFETY: offsets 0..24 of a 32-byte buffer *)
  set_word t 0 s0;
  set_word t 8 s1;
  set_word t 16 (logxor s2 tmp);
  set_word t 24 (rotl s3 45);
  result

let split t =
  let seed = Int64.to_int (uint64 t) in
  create (seed lxor 0x5851F42D)

let[@inline] float t =
  (* Top 53 bits -> [0,1) with full double resolution. *)
  let bits = Int64.shift_right_logical (uint64 t) 11 in
  Int64.to_float bits *. (1.0 /. 9007199254740992.0)

let uniform t ~lo ~hi =
  if hi < lo then invalid_arg "Rng.uniform: hi < lo";
  lo +. ((hi -. lo) *. float t)

let int t n =
  if n <= 0 then invalid_arg "Rng.int: n <= 0";
  (* Rejection-free for our purposes: modulo bias is negligible for n << 2^62.
     [land max_int] forces a non-negative OCaml int after truncation. *)
  let v = Int64.to_int (uint64 t) land max_int in
  v mod n

let normal t =
  (* Box–Muller; guard against log 0. *)
  let u1 = Stdlib.max (float t) 1e-300 in
  let u2 = float t in
  sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2)

let gaussian t ~mu ~sigma = mu +. (sigma *. normal t)

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let perm t n =
  let a = Array.init n (fun i -> i) in
  shuffle t a;
  a
