(* The pnnlint rule set.

   Every rule is a syntactic check over the untyped AST.  The checks are
   deliberately conservative approximations of the semantic invariants they
   guard (documented per rule below); a site that is actually fine is
   silenced with an explicit [(* pnnlint:allow Rn reason *)] so the waiver
   is visible and counted, never implicit. *)

type finding = { rule : string; path : string; line : int; msg : string }

type rule_info = { id : string; title : string; detail : string }

let all_rules =
  [
    {
      id = "R1";
      title = "no Rng stream aliasing";
      detail =
        "Rng.copy duplicates generator state, so two consumers replay the \
         same draws (the fit_aging_aware bug fixed in PR 3).  Derive \
         sub-streams with Rng.split instead.  Tests that exercise copy \
         semantics themselves suppress with a reason.";
    };
    {
      id = "R2";
      title = "no wall clock or global Random near results";
      detail =
        "Sys.time, Unix.gettimeofday, Unix.time and Stdlib.Random are \
         banned in every module reachable from cache-key or \
         result-producing roots: a timestamp or ambient-random draw in \
         that closure silently breaks bit-identical reproduction.  The \
         serving stack is in the closure too: a response payload is a \
         result.  Scheduling clocks (batch linger, select timeouts) and \
         latency observability are legitimate — suppress those sites with \
         a reason saying the time never reaches a response.  Timing for \
         progress logs belongs in bin/ shells outside the closure.";
    };
    {
      id = "R3";
      title = "no order-dependent Hashtbl traversal";
      detail =
        "Hashtbl.iter/fold visit entries in hash-bucket order, which \
         depends on insertion history and hashing; any traversal whose \
         result can escape (lists, tables, serialized state, cache keys) \
         must walk a sorted or insertion-ordered view.  The rule flags \
         every traversal; provably order-free ones carry a suppression.";
    };
    {
      id = "R4";
      title = "unsafe accesses carry a SAFETY justification";
      detail =
        "Array.unsafe_get/unsafe_set, Bytes/String.unsafe_* and \
         Bigarray.Array1.unsafe_get/unsafe_set skip bounds checks; \
         each site must have a (* SAFETY: ... *) comment within 3 lines \
         stating why every index is in range.  The same applies to every \
         external C-stub declaration in lib/tensor (non-% primitives): the \
         stub crosses the FFI with raw buffers, so the declaration must \
         document its bounds/ABI contract.  lib/ has no unsafe OCaml \
         array access (every tensor kernel indexes with bounds \
         checks), so in the live tree R4 guards the C externals.";
    };
    {
      id = "R5";
      title = "no polymorphic compare at float-carrying types";
      detail =
        "Polymorphic compare on floats orders NaN and signed zeros \
         structurally, diverging from IEEE comparison and from \
         Float.compare's total order; on tensors/records it silently \
         compares mutable buffers.  The check flags bare compare / \
         Stdlib.compare anywhere and =/<>/==/!= with a float-literal \
         operand; use Int.compare, Float.compare, String.compare or \
         Tensor.equal, or suppress where IEEE +/-0.0 equality is the \
         point.";
    };
    {
      id = "R6";
      title = "no raw kernel access outside lib/tensor";
      detail =
        "Kernels_c is the tensor library's internal kernel layer (the \
         tensor library is unwrapped, so it is globally visible); calling \
         it from outside lib/tensor bypasses Tensor's shape validation and \
         hands out raw buffers.  Go through the Tensor API; tooling that \
         genuinely needs raw buffers suppresses with a reason.";
    };
    {
      id = "R7";
      title = "domain-shared mutable state is mediated or confined";
      detail =
        "Any module that mentions Domain, Parallel, Coordinator or Thread \
         seeds a concurrency closure; in every module that closure can \
         reach, module-level mutable state — ref / Hashtbl.create / \
         Buffer.create bound at structure level, and record types with \
         mutable fields but no Mutex.t field — is a data-race candidate \
         under OCaml 5 domains.  Mediate with Atomic.t (or a Mutex held \
         around every access) or suppress with a confinement proof naming \
         the single domain that owns the state.  Unix.fork is flagged \
         everywhere outside the allowed units (default: Coordinator, whose \
         pre-domain latch guarantees no domain has ever been spawned): \
         forking a multi-domain runtime duplicates locks and domains in an \
         undefined state.";
    };
    {
      id = "R8";
      title = "C stubs match their externals and the IEEE-strict contract";
      detail =
        "Every external in a registered stub pair is cross-checked against \
         its CAMLprim definitions: the two-name byte/native convention \
         (byte twin named <native>_byte), native parameter/return layout \
         matching [@untagged] (intnat) / [@unboxed] (double) / boxed \
         (value) declarations, byte twins taking all-value parameters (or \
         the argv/argn form above arity 5), no OCaml heap interaction \
         (caml_alloc*/caml_copy_*/CAMLparam/CAMLlocal/CAMLreturn) reachable \
         from a [@@noalloc] native body, and no orphan CAMLprim without a \
         binding.  The float contract bans fma(), libm calls outside the \
         vetted allowlist (exp log sqrt fabs; tanh is Fmath's), every \
         #pragma, and \
         __attribute__((optimize ...)) escapes; the stub dune must pin \
         -fno-fast-math and -ffp-contract=off, otherwise every a*b+c \
         multiply-add site is reported as a contraction risk.  Suppress in \
         C with /* pnnlint:allow R8 reason */.";
    };
    {
      id = "R9";
      title = "bytes from disk are parsed through Lines";
      detail =
        "int_of_string, float_of_string and bool_of_string raise a bare \
         Failure naming neither the format nor the field, and a decoder \
         built from them forks the one checked line codec.  In lib/ every \
         text format reads its words through lib/tensor/lines.ml (the \
         only place they may appear), whose readers raise Failure \
         \"<format>: ...\" and check declared counts before allocating.  \
         The _opt forms are fine; bin/ command-line parsing is out of \
         scope.";
    };
    {
      id = "R10";
      title = "tanh is Fmath's";
      detail =
        "Stdlib.tanh (bare tanh) and Float.tanh call the host's libm, \
         whose tanh pins every result to one libm build and CPU \
         dispatch.  In lib/ every tanh goes through Fmath.tanh or \
         Fmath.tanh_array, whose bits are a function of the source; only \
         lib/tensor/fmath.ml may name the others.  The C side is R8's \
         (tanh left its libm allowlist).";
    };
  ]

type ctx = {
  file : Source.file;
  r2_applies : bool;  (* file is in the dependency closure of the R2 roots *)
  r7_applies : bool;  (* file is in the dependency closure of domain users *)
  fork_allowed : string list;  (* units that may call Unix.fork *)
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
  | [ "Unix"; "fork" ]
    when not (List.mem (Deps.unit_name ctx.file.Source.path) ctx.fork_allowed)
    ->
      f "R7"
        (Printf.sprintf
           "Unix.fork outside the pre-domain latch (allowed unit(s): %s); \
            forking a runtime that may have spawned domains duplicates \
            locks in an undefined state"
           (String.concat ", " ctx.fork_allowed))
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

let safety_comments (file : Source.file) =
  List.filter is_safety_comment file.Source.comments
