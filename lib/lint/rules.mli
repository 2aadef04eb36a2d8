(** The pnnlint rule set: syntactic checks over the untyped AST.

    - R1 — no [Rng.copy] stream aliasing; derive sub-streams with
      [Rng.split].
    - R2 — no wall clock ([Sys.time], [Unix.gettimeofday], [Unix.time]) or
      global [Random] in modules reachable from cache-key / result-producing
      roots.
    - R3 — no [Hashtbl.iter]/[Hashtbl.fold]: hash-order traversal must be
      replaced by a sorted or insertion-ordered view (or suppressed with a
      reason when the order provably cannot escape).
    - R4 — every qualified [unsafe_*] access, and every C-stub [external]
      in [lib/tensor], carries a [(* SAFETY: ... *)] justification on its
      line or ending at most 3 lines above it.
    - R5 — no polymorphic comparison at float-carrying types: bare
      [compare] anywhere, and [=]/[<>]/[==]/[!=] against float literals.
    - R6 — no raw kernel access outside [lib/tensor].
    - R7 — module-level mutable state ([ref]/[Hashtbl.create]/
      [Buffer.create] at structure level, record types with [mutable]
      fields and no [Mutex.t] field) in the dependency closure of
      domain-spawning modules must be Atomic/Mutex-mediated or carry a
      confinement proof; every [Unix.fork] is a finding (a fork site is
      waived with a reason, like any other).
    - R8 — C-stub pairs match their externals and the IEEE-strict float
      contract (checked by {!Cstub}, reported under this rule id).
    - R9 — no bare [int_of_string]/[float_of_string]/[bool_of_string] in
      [lib/] outside the line codec ([lib/tensor/lines.ml]).
    - R10 — no [tanh]/[Stdlib.tanh]/[Float.tanh] in [lib/] outside
      [lib/tensor/fmath.ml]: every tanh is {!Fmath}'s.

    All checks are conservative approximations; intentional exceptions are
    silenced with visible [(* pnnlint:allow Rn reason *)] comments handled
    by {!Engine}. *)

type finding = { rule : string; path : string; line : int; msg : string }

type ctx = {
  file : Source.file;
  r2_applies : bool;
      (** the file is in the dependency closure of the R2 roots *)
  r7_applies : bool;
      (** the file is in the dependency closure of domain-using modules *)
}

val run : ctx -> finding list
(** All rule findings for one file, sorted by line.  R4 candidates covered
    by a SAFETY comment are already filtered out. *)
