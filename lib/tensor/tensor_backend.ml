(* Backend registry for the tensor kernel set.

   A backend is an implementation of the {!KERNELS} module type below: a flat
   buffer type plus every arithmetic core the tensor layer dispatches to.
   Two implementations exist — {!Kernels_ref} on [float array] (the
   bit-identity oracle every golden trajectory is pinned to) and
   {!Kernels_c} on flat [Bigarray.Array1] Float64 storage with vectorized C
   foreign stubs (the fast path).  A BLAS backend would be one more module
   satisfying {!KERNELS} plus one more storage constructor in [Tensor.t].

   This module also owns the two process-wide mode flags the kernels consult:

   - [checked]: the PNN_CHECKED sanitizer switch.  The reference kernels
     carry two loop bodies performing identical floating-point operations in
     identical order, the checked one with bounds-checked indexing; the C
     kernels run the same stubs after an O(1) length assertion per buffer.
     Results are bit-identical across modes by construction.
   - [current]: the backend new tensors are created on (PNN_BACKEND, default
     reference).  Dispatch itself is storage-driven — a tensor computed on one
     backend keeps using that backend's kernels even after the flag changes —
     so the flag only decides where fresh allocations land. *)

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

(* Short, stable tags folded into cache keys (Serialize.cache_schema): the
   backends may differ in the last ulp on the matmul family, so cached
   results must never cross. *)
let tag = function Reference -> "ref" | C64 -> "c64"

let checked =
  Atomic.make
    (match Sys.getenv_opt "PNN_CHECKED" with
    | Some ("1" | "true" | "yes") -> true
    | _ -> false)

let current =
  Atomic.make
    (match Sys.getenv_opt "PNN_BACKEND" with
    | None | Some "" -> Reference
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
    - [matmul] and [sum_rows] accumulate into a destination the caller has
      pre-zeroed.
    - When [checked] is set, an out-of-range access must raise
      [Invalid_argument] instead of touching memory, and the floating-point
      operations and their order must not change.
    - NaN/−0.0 contracts ([min_value]/[max_value] fold IEEE comparisons
      left-to-right so an unordered pair keeps the second operand;
      [argmax_rows] keeps the first strict maximum and never displaces the
      incumbent on an unordered compare) are part of the signature: backends
      must agree bit-for-bit on these edge kernels even where accumulation
      order is allowed to differ. *)
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
