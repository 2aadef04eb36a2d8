(* A fixed piece of work whose running time tracks the speed the host gives
   this process right now.  The benchmark runs on a shared host whose speed
   drifts by up to 2x over minutes; a kernel made of the workloads' own
   kinds of inner loop slows down with them, so the ratio of the two stays
   put.  It uses only the standard library, so no change to the program
   under test changes it.

   Of the kernels tried against the train and sweep workloads over five
   minutes of a drifting host, this mix tracked them best: the spread of
   10-second medians of work per kernel call was 7-8 %, against 17-18 % for
   the raw rates.  A memory-latency kernel (a pointer chase through 1 MiB)
   did not track at all: the drift is in compute, not memory. *)

(* A 32x32 matrix product: independent multiply-adds. *)
let n = 32
let a = Array.init (n * n) (fun i -> float_of_int (i mod 17) *. 0.01)
let b = Array.init (n * n) (fun i -> float_of_int (i mod 13) *. 0.02)
let c = Array.make (n * n) 0.0

let matmul () =
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      let s = ref 0.0 in
      for k = 0 to n - 1 do
        s := !s +. (a.((i * n) + k) *. b.((k * n) + j))
      done;
      c.((i * n) + j) <- !s
    done
  done

(* A 16x16 linear solve by Gaussian elimination with partial pivoting, as
   in a circuit's Newton step (dependent divisions and branches), then tanh
   and exp, as in the activations and their fits. *)
let m = 16

let src =
  Array.init (m * m) (fun k ->
      let i = k / m and j = k mod m in
      if i = j then 4.0 +. float_of_int i
      else 1.0 /. float_of_int (1 + abs (i - j) + (i * j mod 5)))

let lu = Array.make (m * m) 0.0
let x = Array.make m 0.0

let solve () =
  Array.blit src 0 lu 0 (m * m);
  for i = 0 to m - 1 do
    x.(i) <- float_of_int (i + 1)
  done;
  for col = 0 to m - 1 do
    let p = ref col in
    for r = col + 1 to m - 1 do
      if Float.abs lu.((r * m) + col) > Float.abs lu.((!p * m) + col) then p := r
    done;
    if !p <> col then begin
      for k = 0 to m - 1 do
        let t = lu.((col * m) + k) in
        lu.((col * m) + k) <- lu.((!p * m) + k);
        lu.((!p * m) + k) <- t
      done;
      let t = x.(col) in
      x.(col) <- x.(!p);
      x.(!p) <- t
    end;
    for r = col + 1 to m - 1 do
      let f = lu.((r * m) + col) /. lu.((col * m) + col) in
      for k = col to m - 1 do
        lu.((r * m) + k) <- lu.((r * m) + k) -. (f *. lu.((col * m) + k))
      done;
      x.(r) <- x.(r) -. (f *. x.(col))
    done
  done;
  for r = m - 1 downto 0 do
    let s = ref x.(r) in
    for k = r + 1 to m - 1 do
      s := !s -. (lu.((r * m) + k) *. x.(k))
    done;
    x.(r) <- !s /. lu.((r * m) + r)
  done;
  let acc = ref 0.0 in
  for i = 0 to 255 do
    let v = (float_of_int i *. 0.01) -. 1.28 in
    acc := !acc +. tanh v +. exp (-.(v *. v))
  done;
  ignore (Sys.opaque_identity !acc)

(* One call: the product, a 64-cell list of small allocations, two
   solves. *)
let kernel () =
  matmul ();
  ignore (Sys.opaque_identity (List.init 64 (fun i -> (float_of_int i, i))));
  solve ();
  solve ()

let calls = 20

(* Seconds per kernel call over one block of [calls] calls: about 2 ms. *)
let block_s () =
  let t0 = Unix.gettimeofday () in
  for _ = 1 to calls do
    kernel ()
  done;
  (Unix.gettimeofday () -. t0) /. float_of_int calls

(* The median of seven blocks, so an interrupt spoils a block, not the
   figure. *)
let blocks = 7

let call_s () =
  let times = Array.init blocks (fun _ -> block_s ()) in
  Array.sort Float.compare times;
  times.(blocks / 2)
