(** pnnlint driver: scan a source tree, run every rule, apply suppressions.

    The gate contract: a {!report} with a non-empty [findings] list, or one
    that scanned no file, fails the build ([lint_tool check]).  A waiver is
    a visible [(* pnnlint:allow Rn reason *)] comment at its site; the
    findings it absorbs are kept apart in [suppressed]. *)

type config = {
  scan_dirs : string list;  (** relative to the root *)
  exclude : string list;  (** path substrings to skip, e.g. fixture dirs *)
  r2_roots : string list;  (** units whose dependency closure R2 covers *)
  r7_seeds : string list;
      (** module names whose referencers seed the R7 domain closure *)
  cstub_pairs : (string * string * string) list;
      (** R8 stub pairs — C file, OCaml externals file, dune file — given
          relative to the scan root *)
}

val default_config : config
(** Scans [lib], [bin], [test]; excludes [lint_fixtures]; R2 roots
    are the cache-key and result-producing units (Cache, Serialize,
    Checkpoint, Evaluation, Training, the experiment tables and serving);
    R7 seeds are Domain/Parallel/Thread; the registered stub pairs are
    Kernels_c and Fmath with their C stubs. *)

type report = {
  findings : Rules.finding list;  (** unsuppressed: these fail the gate *)
  suppressed : Rules.finding list;  (** absorbed by a [pnnlint:allow] *)
  files_scanned : int;
}

val run : ?config:config -> root:string -> unit -> report

val render_report : report -> string
(** Each finding as ["path:line: [Rn] message"], then one summary line:
    ["pnnlint: F file(s), N finding(s), S suppressed"]. *)
