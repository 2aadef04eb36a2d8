(* Source loading for pnnlint: parse .ml/.mli files with compiler-libs and
   extract comments (with line spans) from the raw text.

   The parser gives us a Parsetree without comments, so suppressions
   ([(* pnnlint:allow ... *)]) and justifications ([(* SAFETY: ... *)]) are
   recovered by a small hand-rolled scanner over the bytes.  The scanner
   understands nested comments, string literals (plain and {tag|quoted|tag}),
   and character literals, which is enough to never misread real OCaml. *)

type comment = { text : string; start_line : int; end_line : int }

type kind = Ml | Mli

type file = {
  path : string;
  kind : kind;
  structure : Parsetree.structure;  (* empty for .mli or on parse error *)
  signature : Parsetree.signature;  (* empty for .ml or on parse error *)
  comments : comment list;
  parse_error : (int * string) option;  (* line, message *)
}

let read_all path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let b = really_input_string ic n in
  close_in ic;
  b

let contains text needle =
  let m = String.length needle and n = String.length text in
  let rec at i = i + m <= n && (String.sub text i m = needle || at (i + 1)) in
  at 0

(* {2 Comment scanner} *)

let scan_comments text =
  let n = String.length text in
  let comments = ref [] in
  let line = ref 1 in
  let i = ref 0 in
  let peek k = if !i + k < n then text.[!i + k] else '\000' in
  let bump_line c = if c = '\n' then incr line in
  let advance () =
    bump_line text.[!i];
    incr i
  in
  (* skip a string literal body starting after the opening quote *)
  let skip_string () =
    let fin = ref false in
    while (not !fin) && !i < n do
      (match text.[!i] with
      | '\\' when !i + 1 < n ->
          bump_line text.[!i];
          incr i (* skip the escaped char below *)
      | '"' -> fin := true
      | _ -> ());
      if !i < n then advance ()
    done
  in
  let skip_quoted_string () =
    (* at '{' of {tag|...|tag}; returns false if it is not a quoted string *)
    let j = ref (!i + 1) in
    while
      !j < n && (text.[!j] = '_' || (text.[!j] >= 'a' && text.[!j] <= 'z'))
    do
      incr j
    done;
    if !j < n && text.[!j] = '|' then begin
      let tag = String.sub text (!i + 1) (!j - !i - 1) in
      let close = "|" ^ tag ^ "}" in
      let m = String.length close in
      while !i < n
            && not (!i + m <= n && String.sub text !i m = close)
      do
        advance ()
      done;
      for _ = 1 to m do
        if !i < n then advance ()
      done;
      true
    end
    else false
  in
  while !i < n do
    match text.[!i] with
    | '(' when peek 1 = '*' ->
        (* comment: record span and text, handling nesting and strings *)
        let start_line = !line in
        let buf = Buffer.create 64 in
        advance ();
        advance ();
        let depth = ref 1 in
        while !depth > 0 && !i < n do
          if text.[!i] = '(' && peek 1 = '*' then begin
            incr depth;
            Buffer.add_string buf "(*";
            advance ();
            advance ()
          end
          else if text.[!i] = '*' && peek 1 = ')' then begin
            decr depth;
            if !depth > 0 then Buffer.add_string buf "*)";
            advance ();
            advance ()
          end
          else if text.[!i] = '"' then begin
            let s0 = !i in
            advance ();
            skip_string ();
            Buffer.add_string buf (String.sub text s0 (Stdlib.min !i n - s0))
          end
          else begin
            Buffer.add_char buf text.[!i];
            advance ()
          end
        done;
        comments :=
          { text = Buffer.contents buf; start_line; end_line = !line }
          :: !comments
    | '"' ->
        advance ();
        skip_string ()
    | '{' ->
        if not (skip_quoted_string ()) then advance ()
    | '\'' ->
        (* char literal vs type variable: a literal is 'c', '\..' or '\xNN' *)
        if peek 1 = '\\' then begin
          advance ();
          advance ();
          (* skip escape body up to the closing quote *)
          while !i < n && text.[!i] <> '\'' do
            advance ()
          done;
          if !i < n then advance ()
        end
        else if peek 2 = '\'' && peek 1 <> '\000' then begin
          advance ();
          advance ();
          advance ()
        end
        else advance ()
    | _ -> advance ()
  done;
  List.rev !comments

(* {2 Parsing} *)

let with_lexbuf path text f =
  let lexbuf = Lexing.from_string text in
  Lexing.set_filename lexbuf path;
  f lexbuf

let error_info path = function
  | Syntaxerr.Error e ->
      let loc = Syntaxerr.location_of_error e in
      Some (loc.Location.loc_start.Lexing.pos_lnum, "syntax error")
  | Lexer.Error (_, loc) ->
      Some (loc.Location.loc_start.Lexing.pos_lnum, "lexer error")
  | Sys_error m -> Some (0, m)
  | exn -> Some (0, "cannot parse " ^ path ^ ": " ^ Printexc.to_string exn)

let load path =
  let kind = if Filename.check_suffix path ".mli" then Mli else Ml in
  match read_all path with
  | exception (Sys_error _ as exn) ->
      {
        path;
        kind;
        structure = [];
        signature = [];
        comments = [];
        parse_error = error_info path exn;
      }
  | text ->
      let structure, signature, parse_error =
        match kind with
        | Ml -> (
            try (with_lexbuf path text Parse.implementation, [], None)
            with exn -> ([], [], error_info path exn))
        | Mli -> (
            try ([], with_lexbuf path text Parse.interface, None)
            with exn -> ([], [], error_info path exn))
      in
      { path; kind; structure; signature; comments = scan_comments text;
        parse_error }
