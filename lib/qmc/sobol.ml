(* Joe–Kuo "new-joe-kuo-6" parameters for dimensions 2..10; dimension 1 is the
   van der Corput sequence in base 2.  (s, a, m) per dimension. *)
let joe_kuo : (int * int * int array) array =
  [|
    (1, 0, [| 1 |]);
    (2, 1, [| 1; 3 |]);
    (3, 1, [| 1; 3; 1 |]);
    (3, 2, [| 1; 1; 1 |]);
    (4, 1, [| 1; 1; 3; 3 |]);
    (4, 4, [| 1; 3; 5; 13 |]);
    (5, 2, [| 1; 1; 5; 5; 17 |]);
    (5, 4, [| 1; 1; 5; 5; 5 |]);
    (5, 7, [| 1; 1; 7; 11; 19 |]);
  |]

let max_dimension = Array.length joe_kuo + 1
let bits = 30
let norm = 1.0 /. float_of_int (1 lsl bits)

type t = {
  dim : int;
  v : int array array; (* v.(d).(k): direction numbers, k in 0..bits-1 *)
  x : int array; (* current integer state per dimension *)
  (* pnnlint:allow R7 a Sobol stream is sequential by construction; parallel
     draws partition by leapfrogged copies, never by sharing one stream *)
  mutable count : int;
}

let direction_numbers dim_index =
  (* dim_index 0 = van der Corput *)
  let v = Array.make bits 0 in
  if dim_index = 0 then begin
    for k = 0 to bits - 1 do
      v.(k) <- 1 lsl (bits - 1 - k)
    done;
    v
  end
  else begin
    let s, a, m_init = joe_kuo.(dim_index - 1) in
    let m = Array.make (Stdlib.max bits s) 0 in
    Array.blit m_init 0 m 0 s;
    for k = s to bits - 1 do
      (* m_k = (2^s * m_{k-s}) xor m_{k-s} xor sum 2^i a_i m_{k-i} *)
      let acc = ref ((m.(k - s) lsl s) lxor m.(k - s)) in
      for i = 1 to s - 1 do
        let a_i = (a lsr (s - 1 - i)) land 1 in
        if a_i = 1 then acc := !acc lxor (m.(k - i) lsl i)
      done;
      m.(k) <- !acc
    done;
    for k = 0 to bits - 1 do
      v.(k) <- m.(k) lsl (bits - 1 - k)
    done;
    v
  end

(* Gray-code advance: flip the direction number of the lowest zero bit. *)
let advance t =
  let c = ref 0 in
  let n = ref t.count in
  while !n land 1 = 1 do
    incr c;
    n := !n lsr 1
  done;
  for d = 0 to t.dim - 1 do
    t.x.(d) <- t.x.(d) lxor t.v.(d).(!c)
  done;
  t.count <- t.count + 1

let create ?(skip = 1) dim =
  if dim < 1 || dim > max_dimension then
    invalid_arg
      (Printf.sprintf "Sobol.create: dimension %d outside 1..%d" dim max_dimension);
  if skip < 0 then invalid_arg "Sobol.create: negative skip";
  let t =
    {
      dim;
      v = Array.init dim direction_numbers;
      x = Array.make dim 0;
      count = 0;
    }
  in
  (* skip the prefix (including the implicit origin point) *)
  for _ = 1 to skip do
    advance t
  done;
  t

let dimension t = t.dim

let next t =
  let point = Array.map (fun xi -> float_of_int xi *. norm) t.x in
  advance t;
  point

let next_in_box t ~lo ~hi =
  if Array.length lo <> t.dim || Array.length hi <> t.dim then
    invalid_arg "Sobol.next_in_box: bounds dimension mismatch";
  let p = next t in
  Array.mapi (fun i u -> lo.(i) +. ((hi.(i) -. lo.(i)) *. u)) p
