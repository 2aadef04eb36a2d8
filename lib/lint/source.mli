(** Parsing and comment extraction for pnnlint.

    Files are parsed with compiler-libs ([Parse.implementation] /
    [Parse.interface]); comments — which the parser drops — are recovered by
    a dedicated scanner so that rule suppressions and [(* SAFETY: ... *)]
    justifications keep their line spans. *)

type comment = {
  text : string;  (** comment body, without the outer [(*]/[*)] *)
  start_line : int;
  end_line : int;
}

type kind = Ml | Mli

type file = {
  path : string;
  kind : kind;
  structure : Parsetree.structure;  (** empty for .mli or on parse error *)
  signature : Parsetree.signature;  (** empty for .ml or on parse error *)
  comments : comment list;
  parse_error : (int * string) option;  (** line, message *)
}

val load : string -> file
(** Read and parse one source file.  Read and parse failures are reported
    through [parse_error] rather than raised: an unreadable or unparseable
    file must fail the lint gate with a diagnostic, not crash the tool. *)

val read_all : string -> string
(** Read a whole file as bytes. *)

val contains : string -> string -> bool
(** [contains text needle] is true when [needle] occurs in [text]. *)
