(* LU with partial pivoting, forward/back substitution fused.  Its
   floating-point operations and their order are a contract: test_linalg
   pins the bits of the solution, of the factors and of the row
   permutation left in [a].  Mna's Newton steps and Ptanh's damped 4×4
   systems both solve through it. *)
let solve_in_place a b =
  let n = Array.length b in
  if Array.length a <> n then invalid_arg "Linalg.solve: non-square system";
  for k = 0 to n - 1 do
    (* pivot selection: the first row of largest |a.(i).(k)|; a NaN never
       wins, since every comparison with it is false *)
    let piv = ref k in
    let best = ref (Float.abs a.(k).(k)) in
    for i = k + 1 to n - 1 do
      let m = Float.abs a.(i).(k) in
      if m > !best then begin
        piv := i;
        best := m
      end
    done;
    if !best < 1e-300 then failwith "Linalg.solve: singular";
    if !piv <> k then begin
      let tmp = a.(k) in
      a.(k) <- a.(!piv);
      a.(!piv) <- tmp;
      let tb = b.(k) in
      b.(k) <- b.(!piv);
      b.(!piv) <- tb
    end;
    let rowk = a.(k) in
    let akk = rowk.(k) and bk = b.(k) in
    for i = k + 1 to n - 1 do
      let rowi = a.(i) in
      let factor = rowi.(k) /. akk in
      (* pnnlint:allow R5 exact-zero skip is IEEE on purpose: -0.0 must skip
         the elimination step too, and Float.equal would not *)
      if factor <> 0.0 then begin
        rowi.(k) <- 0.0;
        for j = k + 1 to n - 1 do
          rowi.(j) <- rowi.(j) -. (factor *. rowk.(j))
        done;
        b.(i) <- b.(i) -. (factor *. bk)
      end
    done
  done;
  for i = n - 1 downto 0 do
    let rowi = a.(i) in
    let acc = ref b.(i) in
    for j = i + 1 to n - 1 do
      acc := !acc -. (rowi.(j) *. b.(j))
    done;
    b.(i) <- !acc /. rowi.(i)
  done;
  b
