type options = {
  max_iterations : int;
  tolerance : float;
  damping : float;
  gmin : float;
}

let default_options =
  { max_iterations = 200; tolerance = 1e-9; damping = 0.3; gmin = 1e-12 }

type solution = { voltages : float array; iterations : int }

exception No_convergence of { iterations : int; residual : float }

(* A DC stamp.  Nodes keep their netlist numbers (0 = ground); a source's
   branch-current row is [node_count - 1 + slot]. *)
type stamp =
  | Conductance of { n1 : Netlist.node; n2 : Netlist.node; g : float }
  | Vsource of { plus : Netlist.node; minus : Netlist.node; slot : int }
  | Fet of {
      gate : Netlist.node;
      drain : Netlist.node;
      source : Netlist.node;
      w_um : float;
      l_um : float;
    }

(* [stamps] are the netlist's elements in insertion order.  The
   Newton scratch — the system (a, rhs) that each iteration stamps and
   [Linalg.solve_in_place] then factors in place, the iterate [volts] and
   the transistor evaluation's inputs and outputs [fet] — lives here too,
   so a sweep of solves allocates nothing per point. *)
type compiled = {
  model : Egt.params;
  n_nodes : int;
  dim : int;
  stamps : stamp array;
  source_names : string array;
  source_volts : float array;
  volts : float array;
  a : float array array;
  rhs : float array;
  fet : Egt.scratch;
}

let compile model netlist =
  (match Netlist.validate netlist with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Mna.compile: invalid netlist: " ^ msg));
  let n_nodes = Netlist.node_count netlist in
  let names = ref [] and values = ref [] in
  let stamps =
    List.map
      (function
        | Netlist.Resistor { a = n1; b = n2; ohms } -> Conductance { n1; n2; g = 1.0 /. ohms }
        | Netlist.Vsource { name; plus; minus; volts = v } ->
            let slot = List.length !names in
            names := name :: !names;
            values := v :: !values;
            Vsource { plus; minus; slot }
        | Netlist.Transistor { gate; drain; source; w_um; l_um } ->
            Fet { gate; drain; source; w_um; l_um })
      (Netlist.elements netlist)
  in
  let dim = n_nodes - 1 + List.length !names in
  let v0 = Array.make n_nodes 0.5 in
  v0.(0) <- 0.0;
  {
    model;
    n_nodes;
    dim;
    stamps = Array.of_list stamps;
    source_names = Array.of_list (List.rev !names);
    source_volts = Array.of_list (List.rev !values);
    volts = v0;
    a = Array.make_matrix dim dim 0.0;
    rhs = Array.make dim 0.0;
    fet = Egt.scratch ();
  }

let source_slot c name =
  let rec find slot =
    if slot >= Array.length c.source_names then raise Not_found
    else if String.equal c.source_names.(slot) name then slot
    else find (slot + 1)
  in
  find 0

let set_source c slot v = c.source_volts.(slot) <- v
let voltage c node = c.volts.(node)

(* Index mapping: node n (1..N-1) -> n-1 ; source slot s -> (N-1) + s. *)

let[@inline] stamp_g a n1 n2 g =
  if n1 > 0 then a.(n1 - 1).(n1 - 1) <- a.(n1 - 1).(n1 - 1) +. g;
  if n2 > 0 then a.(n2 - 1).(n2 - 1) <- a.(n2 - 1).(n2 - 1) +. g;
  if n1 > 0 && n2 > 0 then begin
    a.(n1 - 1).(n2 - 1) <- a.(n1 - 1).(n2 - 1) -. g;
    a.(n2 - 1).(n1 - 1) <- a.(n2 - 1).(n1 - 1) -. g
  end

(* current i flowing INTO node n from an equivalent source *)
let[@inline] stamp_i rhs n i = if n > 0 then rhs.(n - 1) <- rhs.(n - 1) +. i

let newton ?(options = default_options) c =
  let n_nodes = c.n_nodes and dim = c.dim in
  let n_v = n_nodes - 1 in
  let a = c.a and rhs = c.rhs and volts = c.volts in
  let iter = ref 0 and finished = ref false and last_delta = ref infinity in
  while not !finished do
    if !iter >= options.max_iterations then
      raise (No_convergence { iterations = !iter; residual = !last_delta });
    (* Reset the system.  [solve_in_place] factored it in place last
       iteration and swapped row pointers while pivoting; every row is
       zeroed here, so the permuted rows are fine to restamp by index. *)
    for r = 0 to dim - 1 do
      rhs.(r) <- 0.0;
      let row = a.(r) in
      for j = 0 to dim - 1 do
        row.(j) <- 0.0
      done
    done;
    for n = 1 to n_nodes - 1 do
      a.(n - 1).(n - 1) <- a.(n - 1).(n - 1) +. options.gmin
    done;
    for e = 0 to Array.length c.stamps - 1 do
      match c.stamps.(e) with
      | Conductance { n1; n2; g } -> stamp_g a n1 n2 g
      | Vsource { plus; minus; slot } ->
          let k = n_v + slot in
          if plus > 0 then begin
            a.(plus - 1).(k) <- a.(plus - 1).(k) +. 1.0;
            a.(k).(plus - 1) <- a.(k).(plus - 1) +. 1.0
          end;
          if minus > 0 then begin
            a.(minus - 1).(k) <- a.(minus - 1).(k) -. 1.0;
            a.(k).(minus - 1) <- a.(k).(minus - 1) -. 1.0
          end;
          rhs.(k) <- c.source_volts.(slot)
      | Fet { gate; drain; source; w_um; l_um } ->
          let vg = volts.(gate) and vd = volts.(drain) and vs = volts.(source) in
          let fet = c.fet in
          fet.vgs <- vg -. vs;
          fet.vds <- vd -. vs;
          Egt.evaluate_into c.model ~w_um ~l_um fet;
          let id = fet.id and gm = fet.gm and gds = fet.gds in
          (* Companion model: i_DS ≈ id0 + gm·Δvgs + gds·Δvds.
             Current leaves the drain node and enters the source node. *)
          let ieq = id -. (gm *. (vg -. vs)) -. (gds *. (vd -. vs)) in
          (* gds between drain and source *)
          stamp_g a drain source gds;
          (* gm as VCCS: current gm·(vg - vs) from drain to source *)
          if drain > 0 then begin
            if gate > 0 then a.(drain - 1).(gate - 1) <- a.(drain - 1).(gate - 1) +. gm;
            if source > 0 then
              a.(drain - 1).(source - 1) <- a.(drain - 1).(source - 1) -. gm
          end;
          if source > 0 then begin
            if gate > 0 then a.(source - 1).(gate - 1) <- a.(source - 1).(gate - 1) -. gm;
            a.(source - 1).(source - 1) <- a.(source - 1).(source - 1) +. gm
          end;
          stamp_i rhs drain (-.ieq);
          stamp_i rhs source ieq
    done;
    let x = Linalg.solve_in_place a rhs in
    (* damped update on node voltages *)
    let max_delta = ref 0.0 in
    for n = 1 to n_nodes - 1 do
      let target = x.(n - 1) in
      let delta = target -. volts.(n) in
      let delta =
        if delta > options.damping then options.damping
        else if delta < -.options.damping then -.options.damping
        else delta
      in
      if Float.abs delta > !max_delta then max_delta := Float.abs delta;
      volts.(n) <- volts.(n) +. delta
    done;
    last_delta := !max_delta;
    incr iter;
    if !max_delta < options.tolerance then finished := true
  done;
  !iter

let solve ?options ?initial model netlist =
  let c = compile model netlist in
  (match initial with
  | Some init ->
      if Array.length init <> c.n_nodes then invalid_arg "Mna.solve: bad initial length";
      Array.blit init 0 c.volts 0 c.n_nodes;
      c.volts.(0) <- 0.0
  | None -> ());
  let iterations = newton ?options c in
  { voltages = Array.copy c.volts; iterations }
