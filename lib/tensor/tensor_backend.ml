(* Backend registry for the tensor kernel set.

   A backend is an implementation of the {!KERNELS} module type below: a flat
   buffer type plus every arithmetic core the tensor layer dispatches to.
   Two implementations exist — {!Kernels_ref} on [float array] (the
   bit-identity oracle every golden trajectory is pinned to) and
   {!Kernels_c} on flat [Bigarray.Array1] Float64 storage with vectorized C
   foreign stubs (the fast path, bit-identical to the oracle).  A BLAS
   backend would be one more module satisfying {!KERNELS} plus one more
   storage constructor in [Tensor.t].

   This module also owns [current], the process-wide backend new tensors
   are created on (PNN_BACKEND, default c; [reference] selects the oracle).
   Dispatch itself is storage-driven — a tensor computed on one backend
   keeps using that backend's kernels even after the flag changes — so the
   flag only decides where fresh allocations land. *)

type id = Reference | C64

(* The single source of truth for the live backend list: [of_string],
   [names_string] (error messages and every --backend help text) and the
   test matrix all derive from it. *)
let all = [ Reference; C64 ]

let of_string = function
  | "reference" | "ref" -> Some Reference
  | "c" | "c64" -> Some C64
  | _ -> None

let name = function Reference -> "reference" | C64 -> "c"

let names = List.map name all
let names_string = String.concat "|" names

let current =
  Atomic.make
    (match Sys.getenv_opt "PNN_BACKEND" with
    | None | Some "" -> C64
    | Some s -> (
        match of_string s with
        | Some b -> b
        | None ->
            failwith
              (Printf.sprintf "PNN_BACKEND=%s: unknown backend (expected %s)" s
                 names_string)))

(* Unary nonlinearities are backend kernels (the autodiff tape calls them on
   backend-owned storage); the constructor set is shared so every backend
   implements the same catalogue. *)
type unop = Tanh | Sigmoid | Exp | Log | Sqrt | Relu | Abs

(** The backend signature: one flat buffer type plus every kernel core the
    tensor dispatch layer needs.  Contracts shared by all implementations:

    - Shape/bounds validation happens in the dispatch layer ([Tensor]);
      cores may assume every index they derive from the stated dimensions is
      in range.
    - Elementwise cores ([add] … [map], [unary]) read and write index [i]
      only, so the destination may alias an input.
    - [matmul] overwrites its destination; [sum_rows] accumulates into a
      destination the caller has pre-zeroed.
    - An out-of-range access always raises [Invalid_argument] instead of
      touching memory.
    - Every kernel returns the reference's bits, NaN payloads and signed
      zeros included: backends may reorder loops and vectorize, but each
      output must come out as {!Kernels_ref} computes it.  The NaN/−0.0
      contracts ([min_value]/[max_value] fold IEEE comparisons
      left-to-right so an unordered pair keeps the second operand;
      [argmax_rows] keeps the first strict maximum and never displaces the
      incumbent on an unordered compare) are part of that. *)
module type KERNELS = sig
  type buf

  (* storage *)
  val create : int -> buf
  (** Zero-filled buffer. *)

  val length : buf -> int
  val get : buf -> int -> float
  val set : buf -> int -> float -> unit
  val fill : buf -> pos:int -> len:int -> float -> unit
  val blit : buf -> int -> buf -> int -> int -> unit
  val of_float_array : float array -> buf
  (** Copies. *)

  val to_float_array : buf -> float array
  (** Copies. *)

  val load : buf -> float array -> unit
  (** [load buf a] copies [a] (same length) into [buf]. *)

  (* elementwise *)
  val add : buf -> buf -> buf -> int -> unit
  val sub : buf -> buf -> buf -> int -> unit
  val mul : buf -> buf -> buf -> int -> unit
  val div : buf -> buf -> buf -> int -> unit
  val neg : buf -> buf -> int -> unit
  val scale : float -> buf -> buf -> int -> unit
  val add_scalar : float -> buf -> buf -> int -> unit
  val map : (float -> float) -> buf -> buf -> int -> unit

  (* broadcasts: [rows cols] trailing args *)
  val add_rowvec : buf -> buf -> buf -> int -> int -> unit
  val mul_rowvec : buf -> buf -> buf -> int -> int -> unit

  (* linear algebra: [m k n] = rows a, cols a, cols out *)
  val matmul : buf -> buf -> buf -> int -> int -> int -> unit
  val matmul_nt : buf -> buf -> buf -> int -> int -> int -> unit
  val transpose : buf -> buf -> int -> int -> unit

  (* reductions *)
  val dot : buf -> buf -> int -> float
  val sum : buf -> int -> float
  val min_value : buf -> int -> float
  val max_value : buf -> int -> float
  val sum_rows : buf -> buf -> int -> int -> unit
  val argmax_rows : buf -> int -> int -> int array

  (* nonlinearities and training-path kernels *)
  val unary : unop -> buf -> buf -> int -> unit
  val unary_bwd : unop -> x:buf -> y:buf -> g:buf -> s:buf -> int -> unit
  (* ptanh (paper Eq. 2) for one 4-element η: [out := η1 + η2·tanh((v − η3)·η4)],
     keeping the tanh in [h]; the backward writes v's gradient share to [dv]
     and η's four shares to [deta].  Both replay the operation sequence and
     operand order of the node-by-node graph they replaced (see
     Kernels_ref.ptanh), so results are bit-identical to it. *)
  val ptanh : eta:buf -> v:buf -> h:buf -> out:buf -> int -> unit

  val ptanh_bwd :
    eta:buf -> v:buf -> h:buf -> g:buf -> dv:buf -> deta:buf -> int -> unit

  (* The crossbar (paper Eq. 1) over [m k n]: [x] is the m × k input
     without its bias column, [cond] the packed conductances (θ⁺'s and θ⁻'s
     k + 1 rows each, then the denominator row: (2(k + 1) + 1) × n).  The
     forward writes inv(x) = −ptanh(η, [x 1]) to [inv_x] with its tanh in
     [h] (both m × (k + 1), bias column included), the numerator
     [x 1]·θ⁺ + inv(x)·θ⁻ to [num] and the normalised output to [out].  The
     backward takes the output's gradient [g] and writes the numerator's
     gradient to the m × n workspace [gnum], η's four shares to [deta],
     the conductances' to [dcond] and, when [want_dx], x's to [dx].  Both
     compose the reference's kernels in the order of the node-by-node
     graph they replaced (see Kernels_ref.crossbar). *)
  val crossbar :
    x:buf -> eta:buf -> cond:buf -> h:buf -> inv_x:buf -> num:buf -> out:buf -> int -> int ->
    int -> unit

  val crossbar_bwd :
    x:buf ->
    eta:buf ->
    cond:buf ->
    h:buf ->
    inv_x:buf ->
    num:buf ->
    g:buf ->
    gnum:buf ->
    want_dx:bool ->
    dx:buf ->
    deta:buf ->
    dcond:buf ->
    int ->
    int ->
    int ->
    unit

  val softmax_rows : buf -> buf -> int -> int -> unit
  val ce_loss_sum : buf -> buf -> int -> float
  val sgd_step : lr:float -> grad:buf -> value:buf -> int -> unit

  val adam_step :
    lr:float ->
    beta1:float ->
    beta2:float ->
    eps:float ->
    bc1:float ->
    bc2:float ->
    m:float array ->
    v:float array ->
    grad:buf ->
    value:buf ->
    int ->
    unit
  (** Moment buffers [m]/[v] are optimizer-owned plain arrays (they are
      checkpointed by the optimizer codec and never enter tensor math), so
      they stay [float array] on every backend. *)
end
