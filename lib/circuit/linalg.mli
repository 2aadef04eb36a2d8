(** Small dense linear algebra for circuit analysis and curve fitting. *)

val solve_in_place : float array array -> float array -> float array
(** [solve_in_place a b] solves [a · x = b] by LU factorization with partial
    pivoting, destroying its inputs (Newton inner loops reuse them to avoid
    allocation).  Raises [Failure "Linalg.solve: singular"] when the matrix
    is (numerically) singular.  The result aliases [b].  On return, and when it raises,
    [a] holds the caller's own row arrays in pivot order (a tie in
    |pivot| goes to the first row), overwritten by the factors; callers
    that reuse [a] restamp it by index, so the permutation is part of the
    contract. *)
