(** Deterministic pseudo-random number generation.

    The implementation is xoshiro256** seeded through splitmix64, giving
    reproducible streams independent of OCaml's global [Random] state.  All
    experiment code threads an explicit [t] so that every table and figure of
    the reproduction is replayable from a seed. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] builds a generator from any integer seed (splitmix64
    expansion, so nearby seeds give uncorrelated streams). *)

val split : t -> t
(** [split rng] derives a fresh, statistically independent generator and
    advances [rng].  Useful to hand sub-streams to parallel experiment arms. *)

val state : t -> int64 array
(** The full xoshiro256** state as 4 words — everything needed to resume the
    stream bit-exactly (checkpoint/resume).  The generator is not advanced. *)

val of_state : int64 array -> t
(** Rebuild a generator from {!state} output.  The restored stream produces
    exactly the draws the original would have from that point on.  Raises
    [Invalid_argument] unless given exactly 4 words. *)

val set_state : t -> int64 array -> unit
(** In-place {!of_state}: repositions an existing generator (and therefore
    every closure holding it) onto a saved stream position. *)

val uint64 : t -> int64
(** Next raw 64-bit output. *)

val float : t -> float
(** Uniform draw in [\[0, 1)], 53-bit resolution. *)

val uniform : t -> lo:float -> hi:float -> float
(** Uniform draw in [\[lo, hi)]. Raises [Invalid_argument] if [hi < lo]. *)

val int : t -> int -> int
(** [int rng n] draws uniformly from [\[0, n)]. Raises [Invalid_argument] when
    [n <= 0]. *)

val normal : t -> float
(** Standard normal draw (Box–Muller, no caching). *)

val gaussian : t -> mu:float -> sigma:float -> float
(** Normal draw with the given mean and standard deviation. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val perm : t -> int -> int array
(** [perm rng n] is a uniformly random permutation of [0 .. n-1]. *)
