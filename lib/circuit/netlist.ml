type node = int

type element =
  | Resistor of { a : node; b : node; ohms : float }
  | Vsource of { name : string; plus : node; minus : node; volts : float }
  | Transistor of { gate : node; drain : node; source : node; w_um : float; l_um : float }

(* pnnlint:allow R7 a builder is used by one domain during construction;
   compiled circuits read it immutably afterwards *)
type t = { mutable next_node : int; mutable elems : element list (* reversed *) }

let ground = 0
let create () = { next_node = 1; elems = [] }

let fresh_node t =
  let n = t.next_node in
  t.next_node <- n + 1;
  n

let add t e = t.elems <- e :: t.elems

let set_source t name volts =
  let found = ref false in
  t.elems <-
    List.map
      (function
        | Vsource v when v.name = name ->
            found := true;
            Vsource { v with volts }
        | e -> e)
      t.elems;
  if not !found then raise Not_found

let elements t = List.rev t.elems
let node_count t = t.next_node

let validate t =
  let ok_node n = n >= 0 && n < t.next_node in
  let seen_names = Hashtbl.create 8 in
  let rec check = function
    | [] -> Ok ()
    | Resistor { a; b; ohms } :: rest ->
        if not (ok_node a && ok_node b) then Error "resistor references unknown node"
        else if ohms <= 0.0 then Error "non-positive resistance"
        else check rest
    | Vsource { name; plus; minus; _ } :: rest ->
        if not (ok_node plus && ok_node minus) then Error "source references unknown node"
        else if Hashtbl.mem seen_names name then Error ("duplicate source name " ^ name)
        else begin
          Hashtbl.add seen_names name ();
          check rest
        end
    | Transistor { gate; drain; source; w_um; l_um } :: rest ->
        if not (ok_node gate && ok_node drain && ok_node source) then
          Error "transistor references unknown node"
        else if w_um <= 0.0 || l_um <= 0.0 then Error "non-positive transistor geometry"
        else check rest
  in
  check (elements t)
