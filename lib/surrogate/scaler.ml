type t = { lo : float array; hi : float array }

let of_bounds ~lo ~hi =
  if Array.length lo <> Array.length hi then invalid_arg "Scaler.of_bounds: mismatch";
  Array.iteri
    (fun i l -> if hi.(i) < l then invalid_arg "Scaler.of_bounds: hi < lo")
    lo;
  { lo = Array.copy lo; hi = Array.copy hi }

let fit rows =
  if Array.length rows = 0 then invalid_arg "Scaler.fit: empty data";
  let d = Array.length rows.(0) in
  let lo = Array.copy rows.(0) and hi = Array.copy rows.(0) in
  Array.iter
    (fun row ->
      if Array.length row <> d then invalid_arg "Scaler.fit: ragged data";
      Array.iteri
        (fun i v ->
          if v < lo.(i) then lo.(i) <- v;
          if v > hi.(i) then hi.(i) <- v)
        row)
    rows;
  (* avoid zero ranges *)
  Array.iteri (fun i l -> if hi.(i) -. l < 1e-12 then hi.(i) <- l +. 1.0) lo;
  { lo; hi }

let lo t = Array.copy t.lo
let dim t = Array.length t.lo

let check t x name =
  if Array.length x <> dim t then invalid_arg ("Scaler." ^ name ^ ": dimension mismatch")

let transform t x =
  check t x "transform";
  Array.mapi (fun i v -> (v -. t.lo.(i)) /. (t.hi.(i) -. t.lo.(i))) x

let inverse t x =
  check t x "inverse";
  Array.mapi (fun i v -> t.lo.(i) +. (v *. (t.hi.(i) -. t.lo.(i)))) x

let range t = Array.mapi (fun i l -> t.hi.(i) -. l) t.lo

let inverse_ad t x =
  if Tensor.cols (Autodiff.value x) <> dim t then
    invalid_arg "Scaler.inverse_ad: dimension mismatch";
  let r = Autodiff.const (Tensor.of_array (range t)) in
  let l = Autodiff.const (Tensor.of_array t.lo) in
  Autodiff.add_rowvec (Autodiff.mul_rowvec x r) l

let to_lines t =
  [ Printf.sprintf "scaler %d" (dim t); Lines.float_line t.lo; Lines.float_line t.hi ]

let fmt = "Scaler.of_lines"

let of_lines = function
  | header :: lo_line :: hi_line :: rest -> (
      match Lines.words header with
      | [ "scaler"; d ] ->
          let n = Lines.count_field ~fmt "dimension" d in
          let bounds line = Lines.floats ~fmt "bound" ~n (Lines.words line) in
          ({ lo = bounds lo_line; hi = bounds hi_line }, rest)
      | _ -> failwith "Scaler.of_lines: bad header")
  | _ -> failwith "Scaler.of_lines: truncated input"
