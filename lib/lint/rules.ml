(* The pnnlint rule set.

   Every rule is a syntactic check over the untyped AST.  The checks are
   deliberately conservative approximations of the semantic invariants they
   guard (documented per rule in rules.mli and docs/INTERNALS.md); a site
   that is actually fine is silenced with an explicit
   [(* pnnlint:allow Rn reason *)] so the waiver is visible, never
   implicit. *)

type finding = { rule : string; path : string; line : int; msg : string }

type ctx = {
  file : Source.file;
  r2_applies : bool;  (* file is in the dependency closure of the R2 roots *)
  r7_applies : bool;  (* file is in the dependency closure of domain users *)
}

(* {2 Helpers} *)

let line_of e = e.Parsetree.pexp_loc.Location.loc_start.Lexing.pos_lnum

let rec last = function [] -> None | [ x ] -> Some x | _ :: tl -> last tl

let path_of lid = Longident.flatten lid

(* strip a leading Stdlib so Stdlib.Hashtbl.iter and Hashtbl.iter match the
   same patterns *)
let norm_path p = match p with "Stdlib" :: rest when rest <> [] -> rest | p -> p

(* {2 The rules, as per-expression checks} *)

let check_ident ctx lid line =
  let p = norm_path (path_of lid) in
  let f rule msg = Some { rule; path = ctx.file.Source.path; line; msg } in
  match p with
  | [ "Rng"; "copy" ] | [ "Tensor"; "Rng"; "copy" ] ->
      f "R1" "Rng.copy aliases the stream; use Rng.split"
  | "Random" :: _ ->
      if ctx.r2_applies then
        f "R2" "global Random in a result-reachable module"
      else None
  | [ "Sys"; "time" ] | [ "Unix"; "gettimeofday" ] | [ "Unix"; "time" ] ->
      if ctx.r2_applies then
        f "R2"
          (String.concat "." p ^ " (wall clock) in a result-reachable module")
      else None
  | [ "Hashtbl"; "iter" ] | [ "Hashtbl"; "fold" ] ->
      f "R3"
        (String.concat "." p
        ^ " traverses in nondeterministic hash order; walk a sorted or \
           insertion-ordered view")
  | [ "compare" ] ->
      f "R5"
        "polymorphic compare; use Int.compare / Float.compare / \
         String.compare or a typed comparator"
  | "Kernels_c" :: _
    when Deps.find_substring ctx.file.Source.path "lib/tensor" = None ->
      f "R6"
        (String.concat "." p ^ " is a raw kernel; go through the Tensor API")
  | [ ("int_of_string" | "float_of_string" | "bool_of_string") ]
    when Deps.find_substring ctx.file.Source.path "lib/" <> None
         && not (String.ends_with ~suffix:"lib/tensor/lines.ml" ctx.file.Source.path) ->
      f "R9"
        (String.concat "." p
        ^ " parses outside the line codec; read the word with a Lines field reader")
  | [ "tanh" ] | [ "Float"; "tanh" ]
    when Deps.find_substring ctx.file.Source.path "lib/" <> None
         && not (String.ends_with ~suffix:"lib/tensor/fmath.ml" ctx.file.Source.path) ->
      f "R10"
        (String.concat "." p ^ " is libm's; use Fmath.tanh or Fmath.tanh_array")
  | [ "Unix"; "fork" ] ->
      f "R7"
        "Unix.fork: forking a runtime that may have spawned domains \
         duplicates locks in an undefined state"
  | _ -> (
      (* R4 candidates: any qualified unsafe_* access *)
      match (p, last p) with
      | _ :: _ :: _, Some l
        when String.length l > 7 && String.sub l 0 7 = "unsafe_" -> (
          match p with
          | ("Array" | "Bytes" | "String" | "Char" | "Bigarray" | "Array1")
            :: _ ->
              f "R4" (String.concat "." p ^ " without a SAFETY justification")
          | _ -> None)
      | _ -> None)

let is_float_literal (e : Parsetree.expression) =
  match e.pexp_desc with
  | Pexp_constant (Pconst_float _) -> true
  | Pexp_apply
      ( { pexp_desc = Pexp_ident { txt = Longident.Lident "~-."; _ }; _ },
        [ (_, { pexp_desc = Pexp_constant (Pconst_float _); _ }) ] ) ->
      true
  | _ -> false

let check_apply ctx (fn : Parsetree.expression) args line =
  match fn.pexp_desc with
  | Pexp_ident { txt = Longident.Lident (("=" | "<>" | "==" | "!=") as op); _ }
    -> (
      match args with
      | [ (_, a); (_, b) ] when is_float_literal a || is_float_literal b ->
          Some
            {
              rule = "R5";
              path = ctx.file.Source.path;
              line;
              msg =
                Printf.sprintf
                  "polymorphic (%s) against a float literal; use \
                   Float.compare / Float.equal (or suppress where IEEE \
                   +/-0.0 / NaN semantics are intended)"
                  op;
            }
      | _ -> None)
  | _ -> None

(* {2 R7: module-level mutable state in the domain closure}

   Two structure-level checks, both gated on [ctx.r7_applies] (the file is
   reachable from a module that mentions Domain/Parallel/Coordinator/Thread):

   - R7a: a structure-level [let] whose right-hand side *evaluates* a
     mutable-state constructor ([ref], [Hashtbl.create], [Buffer.create])
     creates state shared by every domain that can see the module.  The scan
     does not descend into [fun]/[function]/[lazy] bodies — state created
     per call (or per [Domain.DLS] key init) is not module-level.
   - R7b: a record type with [mutable] fields and no [Mutex.t] field is an
     invitation to unmediated cross-domain writes.  A [Mutex.t] field is
     taken as evidence the record mediates itself; [Atomic.t] fields are
     never [mutable], so a fully atomic record passes trivially.

   [Atomic.make], [Mutex.create] and [Condition.create] are mediation
   primitives, not findings. *)

let mutable_creator p =
  match p with
  | [ "ref" ] -> Some "ref"
  | [ "Hashtbl"; "create" ] -> Some "Hashtbl.create"
  | [ "Buffer"; "create" ] -> Some "Buffer.create"
  | _ -> None

let scan_module_level_state ctx add (vb : Parsetree.value_binding) =
  let open Ast_iterator in
  let it =
    {
      default_iterator with
      expr =
        (fun it e ->
          match e.Parsetree.pexp_desc with
          | Pexp_fun _ | Pexp_function _ | Pexp_lazy _ -> ()
          | Pexp_apply ({ pexp_desc = Pexp_ident l; _ }, _) ->
              (match mutable_creator (norm_path (path_of l.Location.txt)) with
              | Some what ->
                  add
                    (Some
                       {
                         rule = "R7";
                         path = ctx.file.Source.path;
                         line = line_of e;
                         msg =
                           Printf.sprintf
                             "module-level %s in the domain-reachable \
                              closure; every domain that sees this module \
                              shares it — use Atomic.t / a Mutex, or \
                              suppress with a confinement proof"
                             what;
                       })
              | None -> ());
              default_iterator.expr it e
          | _ -> default_iterator.expr it e);
    }
  in
  it.expr it vb.Parsetree.pvb_expr

let check_mutable_type ctx (td : Parsetree.type_declaration) =
  match td.ptype_kind with
  | Ptype_record labels ->
      let mutables =
        List.filter
          (fun (l : Parsetree.label_declaration) ->
            l.pld_mutable = Asttypes.Mutable)
          labels
      in
      let mediated =
        List.exists
          (fun (l : Parsetree.label_declaration) ->
            match l.pld_type.Parsetree.ptyp_desc with
            | Ptyp_constr (c, _) -> (
                match norm_path (path_of c.Location.txt) with
                | [ "Mutex"; "t" ] -> true
                | _ -> false)
            | _ -> false)
          labels
      in
      (match mutables with
      | first :: _ when not mediated ->
          Some
            {
              rule = "R7";
              path = ctx.file.Source.path;
              line = first.pld_loc.Location.loc_start.Lexing.pos_lnum;
              msg =
                Printf.sprintf
                  "type %s has %d mutable field(s) and no Mutex.t field in \
                   the domain-reachable closure; make the fields Atomic.t, \
                   add a mutex, or suppress with a confinement proof"
                  td.ptype_name.Asttypes.txt (List.length mutables);
            }
      | _ -> None)
  | _ -> None

(* {2 R4 SAFETY-comment coverage}

   An unsafe site is justified when a comment containing "SAFETY:" overlaps
   the window of [safety_window] lines ending at the site — i.e. the comment
   sits on the same line or at most 3 lines above (multi-line comments count
   from their last line). *)

let safety_window = 3

(* Like suppressions, a justification must *start* with its marker so prose
   that merely mentions "SAFETY:" doesn't silence anything. *)
let is_safety_comment (c : Source.comment) =
  let t = String.trim c.text in
  String.length t >= 7 && String.sub t 0 7 = "SAFETY:"

let has_safety_comment (file : Source.file) line =
  List.exists
    (fun (c : Source.comment) ->
      c.end_line >= line - safety_window
      && c.start_line <= line
      && is_safety_comment c)
    file.Source.comments

(* R4 also covers FFI boundaries: an [external] whose primitive is a C stub
   (any name not starting with '%') hands raw buffers across the FFI with no
   bounds checking at all, so the declaration itself is an unsafe site and
   needs the same SAFETY justification.  Confined to lib/tensor — the only
   place stubs are allowed to live (R6 keeps callers out). *)
let check_primitive ctx (vd : Parsetree.value_description) line =
  let is_c_stub =
    match vd.pval_prim with
    | name :: _ -> String.length name > 0 && name.[0] <> '%'
    | [] -> false
  in
  if is_c_stub && Deps.find_substring ctx.file.Source.path "lib/tensor" <> None
  then
    Some
      {
        rule = "R4";
        path = ctx.file.Source.path;
        line;
        msg =
          Printf.sprintf
            "external %s is a C stub crossing the FFI without a SAFETY \
             justification; document its buffer/ABI contract"
            vd.pval_name.Asttypes.txt;
      }
  else None

(* {2 Driver} *)

let run ctx =
  let findings = ref [] in
  let add = function None -> () | Some f -> findings := f :: !findings in
  let open Ast_iterator in
  let it =
    {
      default_iterator with
      expr =
        (fun it e ->
          (match e.Parsetree.pexp_desc with
          | Pexp_ident l -> add (check_ident ctx l.Location.txt (line_of e))
          | Pexp_apply (fn, args) ->
              add (check_apply ctx fn args (line_of e))
          | _ -> ());
          default_iterator.expr it e);
      structure_item =
        (fun it si ->
          (match si.Parsetree.pstr_desc with
          | Pstr_primitive vd ->
              add
                (check_primitive ctx vd
                   si.Parsetree.pstr_loc.Location.loc_start.Lexing.pos_lnum)
          | Pstr_value (_, vbs) when ctx.r7_applies ->
              List.iter (scan_module_level_state ctx add) vbs
          | Pstr_type (_, tds) when ctx.r7_applies ->
              List.iter (fun td -> add (check_mutable_type ctx td)) tds
          | _ -> ());
          default_iterator.structure_item it si);
      signature_item =
        (fun it si ->
          (match si.Parsetree.psig_desc with
          | Psig_value vd when vd.pval_prim <> [] ->
              add
                (check_primitive ctx vd
                   si.Parsetree.psig_loc.Location.loc_start.Lexing.pos_lnum)
          | _ -> ());
          default_iterator.signature_item it si);
    }
  in
  it.structure it ctx.file.Source.structure;
  it.signature it ctx.file.Source.signature;
  let findings =
    (* R4 candidates covered by a SAFETY comment are satisfied, not findings *)
    List.filter
      (fun f -> not (f.rule = "R4" && has_safety_comment ctx.file f.line))
      !findings
  in
  List.sort
    (fun a b ->
      match Int.compare a.line b.line with
      | 0 -> String.compare a.rule b.rule
      | c -> c)
    findings
