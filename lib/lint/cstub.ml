(* C-stub cross-checker: the multi-language half of rule R8.

   pnnlint's other rules see one OCaml file at a time; the FFI contract
   lives in *pairs* — an OCaml externals file, the C stub file its
   primitives name, and the dune file whose [foreign_stubs] flags pin the
   float semantics.  This module tokenizes the C side (with just enough
   preprocessing to expand the stub-generating function macros, including
   [##] pasting), extracts every function definition, and cross-checks:

   - ABI: every two-name external resolves to a native CAMLprim and a
     [<native>_byte] twin; native parameter/return layout matches the
     [@untagged]/[@unboxed]/boxed declaration; byte twins take all-[value]
     parameters (or the [(value *argv, int argn)] form above arity 5);
     [@@noalloc] native bodies — transitively through local helpers — never
     touch the OCaml heap; no CAMLprim is left orphaned.
   - Float contract: no [fma()], no libm call outside the vetted allowlist,
     no [#pragma], no [__attribute__] optimize/fast-math escape; and the
     dune stanza must carry -fno-fast-math and -ffp-contract=off — when it
     does not, every multiply-add line is reported as a contraction risk.

   Findings are suppressible from the C side with
   [/* pnnlint:allow R8 reason */] comments (same grammar and coverage
   window as OCaml suppressions); the comment list is returned so the
   engine can run its ordinary suppression pass over them. *)

type token = { t : string; line : int }

type directive = { d_text : string; d_line : int }

(* {2 Tokenizer}

   Comments are collected with line spans (they carry suppressions);
   preprocessor directives are collected whole (logical lines, with
   backslash continuations joined) and not tokenized in place. *)

let is_id_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'

let is_id_char c = is_id_start c || (c >= '0' && c <= '9')

let is_digit c = c >= '0' && c <= '9'

type lexed = {
  tokens : token list;
  comments : Source.comment list;
  directives : directive list;
}

let tokenize text =
  let n = String.length text in
  let tokens = ref [] and comments = ref [] and directives = ref [] in
  let line = ref 1 in
  let i = ref 0 in
  let at_line_start = ref true in
  let peek k = if !i + k < n then text.[!i + k] else '\000' in
  let advance () =
    if text.[!i] = '\n' then begin
      incr line;
      at_line_start := true
    end;
    incr i
  in
  let emit t l =
    tokens := { t; line = l } :: !tokens;
    at_line_start := false
  in
  while !i < n do
    let c = text.[!i] in
    if c = '/' && peek 1 = '*' then begin
      let start_line = !line in
      let buf = Buffer.create 32 in
      advance ();
      advance ();
      let fin = ref false in
      while (not !fin) && !i < n do
        if text.[!i] = '*' && peek 1 = '/' then begin
          fin := true;
          advance ();
          advance ()
        end
        else begin
          Buffer.add_char buf text.[!i];
          advance ()
        end
      done;
      comments :=
        {
          Source.text = Buffer.contents buf;
          start_line;
          end_line = !line;
        }
        :: !comments
    end
    else if c = '/' && peek 1 = '/' then begin
      let start_line = !line in
      let buf = Buffer.create 32 in
      advance ();
      advance ();
      while !i < n && text.[!i] <> '\n' do
        Buffer.add_char buf text.[!i];
        advance ()
      done;
      comments :=
        {
          Source.text = Buffer.contents buf;
          start_line;
          end_line = start_line;
        }
        :: !comments
    end
    else if c = '#' && !at_line_start then begin
      (* preprocessor directive: one logical line, continuations joined *)
      let start_line = !line in
      let buf = Buffer.create 64 in
      let fin = ref false in
      while (not !fin) && !i < n do
        if text.[!i] = '\\' && peek 1 = '\n' then begin
          Buffer.add_char buf ' ';
          advance ();
          advance ()
        end
        else if text.[!i] = '\n' then begin
          fin := true;
          advance ()
        end
        else if text.[!i] = '/' && peek 1 = '*' then begin
          (* comment inside a directive (macro bodies have them) *)
          advance ();
          advance ();
          let cfin = ref false in
          while (not !cfin) && !i < n do
            if text.[!i] = '*' && peek 1 = '/' then begin
              cfin := true;
              advance ();
              advance ()
            end
            else advance ()
          done;
          Buffer.add_char buf ' '
        end
        else begin
          Buffer.add_char buf text.[!i];
          advance ()
        end
      done;
      directives := { d_text = Buffer.contents buf; d_line = start_line } :: !directives
    end
    else if c = '"' then begin
      advance ();
      let fin = ref false in
      while (not !fin) && !i < n do
        (match text.[!i] with
        | '\\' when !i + 1 < n -> advance ()
        | '"' -> fin := true
        | _ -> ());
        if !i < n then advance ()
      done
    end
    else if c = '\'' then begin
      advance ();
      let fin = ref false in
      while (not !fin) && !i < n do
        (match text.[!i] with
        | '\\' when !i + 1 < n -> advance ()
        | '\'' -> fin := true
        | _ -> ());
        if !i < n then advance ()
      done
    end
    else if is_id_start c then begin
      let l = !line in
      let j = ref !i in
      while !j < n && is_id_char text.[!j] do
        incr j
      done;
      emit (String.sub text !i (!j - !i)) l;
      while !i < !j do
        advance ()
      done
    end
    else if is_digit c then begin
      let l = !line in
      let j = ref !i in
      while
        !j < n
        && (is_id_char text.[!j]
           || text.[!j] = '.'
           || ((text.[!j] = '+' || text.[!j] = '-')
              && !j > 0
              && (text.[!j - 1] = 'e' || text.[!j - 1] = 'E')))
      do
        incr j
      done;
      emit (String.sub text !i (!j - !i)) l;
      while !i < !j do
        advance ()
      done
    end
    else if c = '#' && peek 1 = '#' then begin
      emit "##" !line;
      advance ();
      advance ()
    end
    else if c = ' ' || c = '\t' || c = '\n' || c = '\r' then advance ()
    else begin
      emit (String.make 1 c) !line;
      advance ()
    end
  done;
  {
    tokens = List.rev !tokens;
    comments = List.rev !comments;
    directives = List.rev !directives;
  }

(* {2 Macro expansion}

   Only what the stub files need: [#define NAME(a, b) body] function macros
   (with [##] pasting) and object-like [#define NAME body].  Bodies are
   re-tokenized from the directive text; expanded tokens take the line of
   the invocation, so findings inside generated stubs point at the
   generator call. *)

type macro = { params : string list option; body : token list }

let has_prefix s p =
  String.length s >= String.length p && String.sub s 0 (String.length p) = p

let parse_define d =
  let t = String.trim d.d_text in
  if not (has_prefix t "#") then None
  else
    let t1 = String.trim (String.sub t 1 (String.length t - 1)) in
    if not (has_prefix t1 "define") then None
    else
      let rest = String.trim (String.sub t1 6 (String.length t1 - 6)) in
      let lx = tokenize rest in
      match lx.tokens with
      | { t = name; _ } :: tl when is_id_start name.[0] ->
          (* function-like iff '(' immediately follows the name in the text *)
          let funlike =
            has_prefix rest (name ^ "(")
          in
          if funlike then begin
            let rec take_params acc = function
              | { t = ")"; _ } :: tl -> (List.rev acc, tl)
              | { t = ","; _ } :: tl -> take_params acc tl
              | { t = p; _ } :: tl -> take_params (p :: acc) tl
              | [] -> (List.rev acc, [])
            in
            match tl with
            | { t = "("; _ } :: tl ->
                let params, body = take_params [] tl in
                Some (name, { params = Some params; body })
            | _ -> None
          end
          else Some (name, { params = None; body = tl })
      | _ -> None

let expand_macros macros tokens =
  let module SM = Map.Make (String) in
  let macros =
    List.fold_left (fun m (k, v) -> SM.add k v m) SM.empty macros
  in
  let expanded_once = ref true in
  let rounds = ref 0 in
  let result = ref tokens in
  while !expanded_once && !rounds < 8 do
    expanded_once := false;
    incr rounds;
    let rec go acc = function
      | [] -> List.rev acc
      | ({ t; line } as tok) :: tl -> (
          match SM.find_opt t macros with
          | None -> go (tok :: acc) tl
          | Some { params = None; body } ->
              expanded_once := true;
              go acc (List.map (fun b -> { b with line }) body @ tl)
          | Some { params = Some params; body } -> (
              match tl with
              | { t = "("; _ } :: tl ->
                  expanded_once := true;
                  (* collect comma-separated argument token lists *)
                  let rec args depth cur acc = function
                    | { t = "("; _ } as x :: tl ->
                        args (depth + 1) (x :: cur) acc tl
                    | { t = ")"; _ } :: tl when depth = 0 ->
                        (List.rev (List.rev cur :: acc), tl)
                    | { t = ")"; _ } as x :: tl ->
                        args (depth - 1) (x :: cur) acc tl
                    | { t = ","; _ } :: tl when depth = 0 ->
                        args depth [] (List.rev cur :: acc) tl
                    | x :: tl -> args depth (x :: cur) acc tl
                    | [] -> (List.rev (List.rev cur :: acc), [])
                  in
                  let actuals, rest = args 0 [] [] tl in
                  let binding =
                    List.mapi
                      (fun k p ->
                        (p, try List.nth actuals k with _ -> []))
                      params
                  in
                  let substituted =
                    List.concat_map
                      (fun (b : token) ->
                        match List.assoc_opt b.t binding with
                        | Some arg ->
                            List.map (fun (a : token) -> { a with line }) arg
                        | None -> [ { b with line } ])
                      body
                  in
                  (* ## pasting *)
                  let rec paste = function
                    | a :: { t = "##"; _ } :: b :: tl ->
                        paste ({ t = a.t ^ b.t; line = a.line } :: tl)
                    | x :: tl -> x :: paste tl
                    | [] -> []
                  in
                  go acc (paste substituted @ rest)
              | _ -> go (tok :: acc) tl))
    in
    result := go [] !result
  done;
  !result

(* {2 Function extraction} *)

type cfunc = {
  c_name : string;
  is_camlprim : bool;
  ret : string;  (* return type tokens, space-joined, CAMLprim stripped *)
  params : string list;  (* per-parameter type tokens, space-joined *)
  def_line : int;
  body : token list;
}

let param_type tokens =
  (* drop the trailing identifier (the parameter name) and const qualifiers;
     "value *argv" keeps its star: ["value"; "*"] *)
  let tokens = List.filter (fun (t : token) -> t.t <> "const") tokens in
  let rec strip_name = function
    | [] -> []
    | [ last ] -> if is_id_start last.t.[0] then [] else [ last ]
    | x :: tl -> x :: strip_name tl
  in
  String.concat " " (List.map (fun (t : token) -> t.t) (strip_name tokens))

let extract_functions tokens =
  let funcs = ref [] in
  let arr = Array.of_list tokens in
  let n = Array.length arr in
  let i = ref 0 in
  let stmt_start = ref 0 in
  while !i < n do
    let tok = arr.(!i) in
    if tok.t = "(" && !i > 0 && is_id_start arr.(!i - 1).t.[0] then begin
      (* candidate: ident '(' ... ')' '{' at top level *)
      let j = ref (!i + 1) in
      let depth = ref 1 in
      while !j < n && !depth > 0 do
        (match arr.(!j).t with
        | "(" -> incr depth
        | ")" -> decr depth
        | _ -> ());
        incr j
      done;
      if !j < n && arr.(!j).t = "{" then begin
        let name_tok = arr.(!i - 1) in
        let quals =
          Array.to_list (Array.sub arr !stmt_start (!i - 1 - !stmt_start))
        in
        let is_camlprim =
          List.exists (fun (t : token) -> t.t = "CAMLprim") quals
        in
        let ret =
          quals
          |> List.filter (fun (t : token) ->
                 t.t <> "CAMLprim" && t.t <> "static" && t.t <> "inline")
          |> List.map (fun (t : token) -> t.t)
          |> String.concat " "
        in
        (* split parameters on top-level commas *)
        let ptokens = Array.to_list (Array.sub arr (!i + 1) (!j - !i - 2)) in
        let params =
          let rec split depth cur acc = function
            | ({ t = "("; _ } as x) :: tl -> split (depth + 1) (x :: cur) acc tl
            | ({ t = ")"; _ } as x) :: tl -> split (depth - 1) (x :: cur) acc tl
            | { t = ","; _ } :: tl when depth = 0 ->
                split depth [] (List.rev cur :: acc) tl
            | x :: tl -> split depth (x :: cur) acc tl
            | [] -> List.rev (List.rev cur :: acc)
          in
          match ptokens with
          | [] | [ { t = "void"; _ } ] -> []
          | _ -> split 0 [] [] ptokens |> List.map param_type
        in
        (* body: from '{' to its matching '}' *)
        let k = ref (!j + 1) in
        let bdepth = ref 1 in
        let body_start = !k in
        while !k < n && !bdepth > 0 do
          (match arr.(!k).t with
          | "{" -> incr bdepth
          | "}" -> decr bdepth
          | _ -> ());
          incr k
        done;
        let body =
          Array.to_list (Array.sub arr body_start (!k - 1 - body_start))
        in
        funcs :=
          {
            c_name = name_tok.t;
            is_camlprim;
            ret;
            params;
            def_line = name_tok.line;
            body;
          }
          :: !funcs;
        stmt_start := !k;
        i := !k
      end
      else incr i
    end
    else begin
      (match tok.t with
      | ";" | "}" -> stmt_start := !i + 1
      | "{" ->
          (* skip a top-level brace block that is not a function body
             (enum/struct/initializer): advance past it *)
          let k = ref (!i + 1) in
          let bdepth = ref 1 in
          while !k < n && !bdepth > 0 do
            (match arr.(!k).t with
            | "{" -> incr bdepth
            | "}" -> decr bdepth
            | _ -> ());
            incr k
          done;
          i := !k - 1;
          stmt_start := !k
      | _ -> ());
      incr i
    end
  done;
  List.rev !funcs

(* {2 OCaml externals} *)

type arg_kind = Untagged | Unboxed | Boxed

type ext = {
  ml_name : string;
  byte_name : string;
  native_name : string;
  args : arg_kind list;
  ret : arg_kind;
  ret_unit : bool;
  noalloc : bool;
  ml_line : int;
}

let has_attr name (attrs : Parsetree.attributes) =
  List.exists
    (fun (a : Parsetree.attribute) -> a.attr_name.Asttypes.txt = name)
    attrs

let core_type_name (t : Parsetree.core_type) =
  match t.ptyp_desc with
  | Ptyp_constr (l, _) -> (
      match Longident.flatten l.Location.txt with
      | [ n ] -> Some n
      | p -> Some (String.concat "." p))
  | _ -> None

let classify_arg ~decl_untagged ~decl_unboxed (t : Parsetree.core_type) =
  let name = core_type_name t in
  if has_attr "untagged" t.ptyp_attributes then Untagged
  else if has_attr "unboxed" t.ptyp_attributes then Unboxed
  else if decl_untagged && name = Some "int" then Untagged
  else if decl_unboxed && name = Some "float" then Unboxed
  else Boxed

let rec arrow_args (t : Parsetree.core_type) =
  match t.ptyp_desc with
  | Ptyp_arrow (_, a, b) ->
      let args, ret = arrow_args b in
      (a :: args, ret)
  | _ -> ([], t)

let externals_of (ml : Source.file) =
  let exts = ref [] in
  let of_vd (vd : Parsetree.value_description) line =
    match vd.pval_prim with
    | [] -> ()
    | names when List.exists (fun n -> n <> "" && n.[0] = '%') names -> ()
    | names ->
        let decl_untagged = has_attr "untagged" vd.pval_attributes in
        let decl_unboxed = has_attr "unboxed" vd.pval_attributes in
        let args, ret = arrow_args vd.pval_type in
        let byte_name, native_name =
          match names with
          | [ b; nat ] -> (b, nat)
          | [ single ] -> (single, single)
          | b :: nat :: _ -> (b, nat)
          | [] -> ("", "")
        in
        exts :=
          {
            ml_name = vd.pval_name.Asttypes.txt;
            byte_name;
            native_name;
            args = List.map (classify_arg ~decl_untagged ~decl_unboxed) args;
            ret = classify_arg ~decl_untagged ~decl_unboxed ret;
            ret_unit = core_type_name ret = Some "unit";
            noalloc = has_attr "noalloc" vd.pval_attributes;
            ml_line = line;
          }
          :: !exts
  in
  let open Ast_iterator in
  let it =
    {
      default_iterator with
      structure_item =
        (fun it si ->
          (match si.Parsetree.pstr_desc with
          | Pstr_primitive vd ->
              of_vd vd si.Parsetree.pstr_loc.Location.loc_start.Lexing.pos_lnum
          | _ -> ());
          default_iterator.structure_item it si);
    }
  in
  it.structure it ml.Source.structure;
  List.rev !exts

(* {2 Checks} *)

let expected_ctype = function
  | Untagged -> "intnat"
  | Unboxed -> "double"
  | Boxed -> "value"

(* tanh is Fmath's (fmath_stubs.c), defined by the source; exp and log
   still resolve to the host's libm. *)
let libm_allowlist = [ "exp"; "log"; "sqrt"; "fabs" ]

let libm_names =
  [
    "sin"; "cos"; "tan"; "asin"; "acos"; "atan"; "atan2"; "sinh"; "cosh"; "tanh";
    "asinh"; "acosh"; "atanh"; "exp2"; "expm1"; "log2"; "log10"; "log1p";
    "pow"; "cbrt"; "hypot"; "erf"; "erfc"; "tgamma"; "lgamma"; "fmod";
    "remainder"; "round"; "rint"; "nearbyint"; "trunc"; "floor"; "ceil";
    "copysign"; "fmin"; "fmax"; "fdim"; "ldexp"; "frexp"; "modf"; "scalbn";
    "ilogb"; "logb"; "nextafter";
  ]

let is_heap_ident s =
  has_prefix s "caml_alloc"
  || has_prefix s "caml_copy_"
  || has_prefix s "caml_callback"
  || has_prefix s "caml_raise"
  || has_prefix s "caml_failwith"
  || has_prefix s "caml_invalid_argument"
  || has_prefix s "CAMLparam"
  || has_prefix s "CAMLlocal"
  || has_prefix s "CAMLreturn"

(* Transitive heap-interaction search through locally-defined callees
   (static helpers and CAMLprims alike). *)
let find_heap_touch funcs name =
  let by_name n = List.find_opt (fun f -> f.c_name = n) funcs in
  let seen = Hashtbl.create 8 in
  let rec go n =
    if Hashtbl.mem seen n then None
    else begin
      Hashtbl.add seen n ();
      match by_name n with
      | None -> None
      | Some f ->
          let rec scan = function
            | [] -> None
            | (tok : token) :: tl ->
                if is_heap_ident tok.t then Some (tok.t, tok.line, f.c_name)
                else if
                  tok.t <> n && by_name tok.t <> None
                  && (match tl with { t = "("; _ } :: _ -> true | _ -> false)
                then
                  match go tok.t with None -> scan tl | hit -> hit
                else scan tl
          in
          scan f.body
    end
  in
  go name

(* A line holding both a binary [*] and a binary [+]/[-] is a potential
   contraction site; only reported when the dune contract is missing. *)
let muladd_lines tokens =
  let binary_prev (p : token option) =
    match p with
    | Some { t; _ } ->
        (t <> "" && (is_id_char t.[0] || t = ")" || t = "]"))
        || (t <> "" && is_digit t.[0])
    | None -> false
  in
  let tbl = Hashtbl.create 16 in
  let rec go prev = function
    | [] -> ()
    | (tok : token) :: tl ->
        (if (tok.t = "*" || tok.t = "+" || tok.t = "-") && binary_prev prev
         then
           let key = tok.line in
           let cur = try Hashtbl.find tbl key with Not_found -> [] in
           Hashtbl.replace tbl key (tok.t :: cur));
        go (Some tok) tl
  in
  go None tokens;
  Hashtbl.to_seq_keys tbl
  |> List.of_seq
  |> List.sort_uniq Int.compare
  |> List.filter (fun line ->
         let ops = try Hashtbl.find tbl line with Not_found -> [] in
         List.mem "*" ops && (List.mem "+" ops || List.mem "-" ops))

let analyze ~c_path ~c_file ~(ml : Source.file) ~dune_path ~dune_file () =
  let findings = ref [] in
  let add path line msg =
    findings := { Rules.rule = "R8"; path; line; msg } :: !findings
  in
  match (try Some (Source.read_all c_file) with Sys_error _ -> None) with
  | None ->
      ( [ { Rules.rule = "R8"; path = c_path; line = 0;
            msg = "cannot read C stub file" } ],
        [] )
  | Some text ->
      let lx = tokenize text in
      let macros = List.filter_map parse_define lx.directives in
      let tokens = expand_macros macros lx.tokens in
      let funcs = extract_functions tokens in
      let camlprims = List.filter (fun f -> f.is_camlprim) funcs in
      let exts = externals_of ml in
      (* -- per-external ABI cross-checks ------------------------------- *)
      List.iter
        (fun e ->
          let arity = List.length e.args in
          if e.byte_name = e.native_name then
            add ml.Source.path e.ml_line
              (Printf.sprintf
                 "external %s uses a single stub name %S; C stubs must use \
                  the two-name byte/native convention"
                 e.ml_name e.native_name)
          else if e.byte_name <> e.native_name ^ "_byte" then
            add ml.Source.path e.ml_line
              (Printf.sprintf
                 "external %s: byte stub %S breaks the twin convention \
                  (expected %S)"
                 e.ml_name e.byte_name (e.native_name ^ "_byte"));
          (match List.find_opt (fun f -> f.c_name = e.native_name) camlprims with
          | None ->
              add ml.Source.path e.ml_line
                (Printf.sprintf
                   "external %s: native stub %S has no CAMLprim definition \
                    in %s"
                   e.ml_name e.native_name c_path)
          | Some f ->
              let expected = List.map expected_ctype e.args in
              if List.length f.params <> arity then
                add ml.Source.path e.ml_line
                  (Printf.sprintf
                     "external %s: arity mismatch — OCaml declares %d \
                      argument(s), CAMLprim %s takes %d"
                     e.ml_name arity e.native_name (List.length f.params))
              else
                List.iteri
                  (fun k (want, got) ->
                    if want <> got then
                      add ml.Source.path e.ml_line
                        (Printf.sprintf
                           "external %s: argument %d is %s on the C side \
                            but the declaration implies %s (check \
                            [@untagged]/[@unboxed])"
                           e.ml_name (k + 1) got want))
                  (List.combine expected f.params);
              let want_ret =
                if e.ret_unit then "value" else expected_ctype e.ret
              in
              if f.ret <> want_ret then
                add ml.Source.path e.ml_line
                  (Printf.sprintf
                     "external %s: CAMLprim %s returns %s but the \
                      declaration implies %s"
                     e.ml_name e.native_name f.ret want_ret);
              if e.noalloc then
                match find_heap_touch funcs e.native_name with
                | Some (ident, line, inside) ->
                    add c_path line
                      (Printf.sprintf
                         "%s reaches %s (in %s) but its external %s is \
                          [@@noalloc]; drop the attribute or the heap \
                          interaction"
                         e.native_name ident inside e.ml_name)
                | None -> ());
          if e.byte_name <> e.native_name then
            match
              List.find_opt (fun f -> f.c_name = e.byte_name) camlprims
            with
            | None ->
                add ml.Source.path e.ml_line
                  (Printf.sprintf
                     "external %s: byte stub %S has no CAMLprim definition \
                      in %s"
                     e.ml_name e.byte_name c_path)
            | Some f ->
                if arity > 5 then begin
                  if f.params <> [ "value *"; "int" ] then
                    add c_path f.def_line
                      (Printf.sprintf
                         "byte stub %s: arity %d > 5 requires the (value \
                          *argv, int argn) form"
                         e.byte_name arity)
                end
                else if
                  List.length f.params <> arity
                  || List.exists (fun p -> p <> "value") f.params
                then
                  add c_path f.def_line
                    (Printf.sprintf
                       "byte stub %s must take exactly %d boxed value \
                        parameter(s)"
                       e.byte_name arity))
        exts;
      (* -- orphan CAMLprims ------------------------------------------- *)
      let bound =
        List.concat_map (fun e -> [ e.native_name; e.byte_name ]) exts
      in
      List.iter
        (fun f ->
          if not (List.mem f.c_name bound) then
            add c_path f.def_line
              (Printf.sprintf
                 "orphan CAMLprim %s: no external in %s binds it" f.c_name
                 ml.Source.path))
        camlprims;
      (* -- float contract --------------------------------------------- *)
      let rec scan_calls = function
        (* the attribute case must precede the generic call case:
           [__attribute__] is always followed by [(] and would otherwise be
           swallowed as an ordinary call head *)
        | { t = "__attribute__"; line } :: tl ->
            let rec scan_attr depth = function
              | ({ t = "("; _ } : token) :: tl -> scan_attr (depth + 1) tl
              | { t = ")"; _ } :: tl ->
                  if depth <= 1 then tl else scan_attr (depth - 1) tl
              | { t; _ } :: tl ->
                  if
                    Deps.find_substring t "optimize" <> None
                    || Deps.find_substring t "fast" <> None
                  then
                    add c_path line
                      (Printf.sprintf
                         "__attribute__((%s ...)) overrides the IEEE-strict \
                          compilation contract"
                         t);
                  scan_attr depth tl
              | [] -> []
            in
            scan_calls (scan_attr 0 tl)
        | (a : token) :: ({ t = "("; _ } :: _ as tl) ->
            (if a.t = "fma" || a.t = "fmaf" || a.t = "fmal" then
               add c_path a.line
                 "fma() forces fused multiply-add, defeating \
                  -ffp-contract=off; write the mul and add separately"
             else if
               List.mem a.t libm_names && not (List.mem a.t libm_allowlist)
             then
               add c_path a.line
                 (Printf.sprintf
                    "libm call %s() is outside the vetted allowlist (%s); \
                     its rounding is not fixed by the kernel contract"
                    a.t
                    (String.concat " " libm_allowlist)));
            scan_calls tl
        | _ :: tl -> scan_calls tl
        | [] -> ()
      in
      scan_calls tokens;
      List.iter
        (fun d ->
          let t = String.trim d.d_text in
          let t1 =
            if has_prefix t "#" then
              String.trim (String.sub t 1 (String.length t - 1))
            else t
          in
          if has_prefix t1 "pragma" then
            add c_path d.d_line
              "#pragma can override float semantics (STDC FP_CONTRACT, GCC \
               optimize); the stub contract allows none")
        lx.directives;
      (* -- dune compilation contract ---------------------------------- *)
      let dune_text =
        try Some (Source.read_all dune_file) with Sys_error _ -> None
      in
      let contract_ok =
        match dune_text with
        | None ->
            add dune_path 0 "cannot read the dune file pinning stub flags";
            false
        | Some dt ->
            let missing =
              List.filter
                (fun flag -> Deps.find_substring dt flag = None)
                [ "-fno-fast-math"; "-ffp-contract=off" ]
            in
            List.iter
              (fun flag ->
                add dune_path 1
                  (Printf.sprintf
                     "stub dune contract is missing %s; the C compiler may \
                      change IEEE results"
                     flag))
              missing;
            missing = []
      in
      if not contract_ok then
        List.iter
          (fun line ->
            add c_path line
              "multiply-add on this line may be contracted to FMA because \
               the dune contract does not pin -ffp-contract=off")
          (muladd_lines tokens);
      (List.rev !findings, lx.comments)
