module Linalg = Circuit.Linalg

(* The callbacks plus every buffer [solve] needs, allocated once by
   [problem]: two (r, aux) pairs (the accepted point's and the trial's), one
   Jacobian row, the upper triangle of JᵀJ (flat, row-major) with Jᵀr, the
   damped system handed to [Linalg.solve_in_place] and the trial point. *)
type problem = {
  n_params : int;
  n_residuals : int;
  residuals : float array -> float array -> float array -> unit;
  jacobian_row : float array -> float array -> int -> float array -> unit;
  r_buf : float array array;
  aux_buf : float array array;
  row : float array;
  jtj : float array;
  jtr : float array;
  m : float array array;
  rhs : float array;
  p_trial : float array;
}

let problem ~n_params ~n_residuals ~residuals ~jacobian_row =
  let pair () = [| Array.make n_residuals 0.0; Array.make n_residuals 0.0 |] in
  {
    n_params;
    n_residuals;
    residuals;
    jacobian_row;
    r_buf = pair ();
    aux_buf = pair ();
    row = Array.make n_params 0.0;
    jtj = Array.make (n_params * n_params) 0.0;
    jtr = Array.make n_params 0.0;
    m = Array.make_matrix n_params n_params 0.0;
    rhs = Array.make n_params 0.0;
    p_trial = Array.make n_params 0.0;
  }

type result = {
  params : float array;
  cost : float;
  iterations : int;
  converged : bool;
}

(* Every float accumulator below is a local [ref] that no closure captures,
   so the compiler keeps it unboxed: an iteration allocates nothing, and the
   loops stay inline rather than behind float-returning helpers for the same
   reason. *)
let solve ?(max_iterations = 200) ?(tolerance = 1e-12) ?(lambda0 = 1e-3) pb p0 =
  let n = pb.n_params and nr = pb.n_residuals in
  if Array.length p0 <> n then invalid_arg "Lm.solve: initial guess has wrong length";
  let p = Array.copy p0 in
  let row = pb.row and jtj = pb.jtj and jtr = pb.jtr and m = pb.m and rhs = pb.rhs in
  let p_trial = pb.p_trial in
  (* [cur] picks the (r, aux) pair of the accepted point; a trial fills the
     other pair, and accepting the step just flips [cur]. *)
  let cur = ref 0 in
  pb.residuals p pb.r_buf.(0) pb.aux_buf.(0);
  let cost = ref 0.0 in
  let r0 = pb.r_buf.(0) in
  for i = 0 to nr - 1 do
    cost := !cost +. (r0.(i) *. r0.(i))
  done;
  cost := 0.5 *. !cost;
  let lambda = ref lambda0 in
  let converged = ref false in
  let iters = ref 0 in
  let stop = ref false in
  while (not !stop) && !iters < max_iterations do
    incr iters;
    (* normal equations: (JtJ + lambda diag(JtJ)) dp = -Jt r, with J's rows
       streamed from the accepted point's aux and summed in row order *)
    let r = pb.r_buf.(!cur) and aux = pb.aux_buf.(!cur) in
    Array.fill jtj 0 (n * n) 0.0;
    Array.fill jtr 0 n 0.0;
    for i = 0 to nr - 1 do
      pb.jacobian_row p aux i row;
      let ri = r.(i) in
      for a = 0 to n - 1 do
        let ra = row.(a) and base = a * n in
        jtr.(a) <- jtr.(a) +. (ra *. ri);
        for b = a to n - 1 do
          jtj.(base + b) <- jtj.(base + b) +. (ra *. row.(b))
        done
      done
    done;
    let attempts = ref 8 and progressed = ref false in
    while (not !progressed) && !attempts > 0 do
      decr attempts;
      (* [solve_in_place] destroys [m] and permutes its rows, so every row
         is rebuilt from the symmetric JᵀJ on each attempt *)
      for a = 0 to n - 1 do
        let ma = m.(a) in
        for b = 0 to n - 1 do
          ma.(b) <- (if b >= a then jtj.((a * n) + b) else jtj.((b * n) + a))
        done;
        ma.(a) <- ma.(a) *. (1.0 +. !lambda);
        (* keep strictly positive diagonal even for flat directions *)
        if ma.(a) < 1e-30 then ma.(a) <- 1e-30;
        rhs.(a) <- -.jtr.(a)
      done;
      match Linalg.solve_in_place m rhs with
      | exception Failure _ -> lambda := !lambda *. 10.0
      | dp ->
          for i = 0 to n - 1 do
            p_trial.(i) <- p.(i) +. dp.(i)
          done;
          let next = 1 - !cur in
          let r' = pb.r_buf.(next) in
          pb.residuals p_trial r' pb.aux_buf.(next);
          let cost' = ref 0.0 in
          for i = 0 to nr - 1 do
            cost' := !cost' +. (r'.(i) *. r'.(i))
          done;
          let cost' = 0.5 *. !cost' in
          if cost' < !cost then begin
            Array.blit p_trial 0 p 0 n;
            let rel = (!cost -. cost') /. (if !cost >= 1e-300 then !cost else 1e-300) in
            cur := next;
            cost := cost';
            let shrunk = !lambda /. 10.0 in
            lambda := (if shrunk >= 1e-12 then shrunk else 1e-12);
            if rel < tolerance then converged := true;
            progressed := true
          end
          else lambda := !lambda *. 10.0
    done;
    if (not !progressed) || !converged then begin
      if not !progressed then converged := true;
      stop := true
    end
  done;
  { params = p; cost = !cost; iterations = !iters; converged = !converged }

let eval pb p =
  let r = Array.make pb.n_residuals 0.0 and aux = Array.make pb.n_residuals 0.0 in
  pb.residuals p r aux;
  (r, aux)

let residuals pb p = fst (eval pb p)

let jacobian pb p =
  let _, aux = eval pb p in
  Array.init pb.n_residuals (fun i ->
      let row = Array.make pb.n_params 0.0 in
      pb.jacobian_row p aux i row;
      row)

let numerical_jacobian ~n_residuals f p =
  let n = Array.length p in
  let j = Array.make_matrix n_residuals n 0.0 in
  for col = 0 to n - 1 do
    let h = 1e-6 *. Stdlib.max 1.0 (Float.abs p.(col)) in
    let pp = Array.copy p and pm = Array.copy p in
    pp.(col) <- pp.(col) +. h;
    pm.(col) <- pm.(col) -. h;
    let fp = f pp and fm = f pm in
    for row = 0 to n_residuals - 1 do
      j.(row).(col) <- (fp.(row) -. fm.(row)) /. (2.0 *. h)
    done
  done;
  j
