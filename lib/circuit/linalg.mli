(** Small dense linear algebra for circuit analysis and curve fitting. *)

val solve : float array array -> float array -> float array
(** [solve a b] solves [a · x = b] by LU factorization with partial pivoting.
    [a] and [b] are left unmodified.  Raises [Failure "Linalg.solve: singular"]
    when the matrix is (numerically) singular. *)

val solve_in_place : float array array -> float array -> float array
(** Like {!solve} but destroys its inputs (used in Newton inner loops to avoid
    allocation). The result aliases [b].  On return, and when it raises,
    [a] holds the caller's own row arrays in pivot order (a tie in
    |pivot| goes to the first row), overwritten by the factors; callers
    that reuse [a] restamp it by index, so the permutation is part of the
    contract. *)

val matvec : float array array -> float array -> float array
val residual_norm : float array array -> float array -> float array -> float
(** [residual_norm a x b] is [max_i |(a·x - b)_i|]. *)
