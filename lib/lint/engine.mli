(** pnnlint driver: scan a source tree, run every rule, apply suppressions.

    The gate contract: {!run} exits through {!report}; a report with a
    non-empty [findings] list must fail the build.  Suppressed findings and
    SAFETY justifications are carried alongside so `lint_tool allow-report`
    can show every waiver in force. *)

type config = {
  scan_dirs : string list;  (** relative to the root *)
  exclude : string list;  (** path substrings to skip, e.g. fixture dirs *)
  r2_roots : string list;  (** units whose dependency closure R2 covers *)
  r7_seeds : string list;
      (** module names whose referencers seed the R7 domain closure *)
  fork_allowed : string list;  (** units that may call [Unix.fork] (R7) *)
  cstub_pairs : (string * string * string) list;
      (** R8 stub pairs — C file, OCaml externals file, dune file — given
          relative to the scan root *)
}

val default_config : config
(** Scans [lib], [bin], [test]; excludes [lint_fixtures]; R2 roots
    are the cache-key and result-producing units (Cache, Serialize,
    Checkpoint, Evaluation, Training, the experiment tables); R7 seeds are
    Domain/Parallel/Coordinator/Thread with only Coordinator allowed to
    fork; the registered stub pair is Kernels_c and its C stubs. *)

type suppression = {
  sup_path : string;
  sup_line : int;
  rules : string list;
  reason : string;
  first_covered : int;
  last_covered : int;
}

type report = {
  findings : Rules.finding list;  (** unsuppressed: these fail the gate *)
  suppressed : (Rules.finding * suppression) list;
  suppressions : suppression list;
  safety : (string * int * string) list;
      (** SAFETY comments: path, line, text *)
  files_scanned : int;
}

val run : ?config:config -> root:string -> unit -> report

val render_finding : Rules.finding -> string
(** ["path:line: [Rn] message"]. *)

val render_report : report -> string

val render_allow_report : report -> string
(** Every suppression in force (with how many findings each absorbs) and
    every SAFETY justification. *)

val render_rules : unit -> string

val render_json : report -> string
(** The whole report as one line of JSON with a fixed key order
    (byte-stable, golden-testable): files scanned, findings, suppressed
    findings, suppressions in force, SAFETY count. *)

val render_stats : report -> string
(** Per-rule posture table: findings / suppressed / allow comments for
    R1..Rn plus S1 and P0, with totals. *)

val render_stats_json : report -> string
(** {!render_stats} as one line of JSON. *)
