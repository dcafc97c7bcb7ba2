(** Static analysis of [.dgmc] scenario scripts.

    The grammar has one implementation, {!Workload.Script.analyse}: it
    reports every malformed line, unresolvable reference and invalid
    [health] directive in a file, and the linter passes those
    diagnostics on as they are — so [dgmc_lint]'s first error is exactly
    what {!Workload.Script.parse} rejects a script with.  On top, the
    linter replays the resolved event timeline (churn expansions
    included) and adds the rules a run does not need:

    {b Errors} (legal to run, but not what the author meant):
    - a [leave] with no preceding [join] for that switch and MC;
    - two scripted events identical in resolved time and action.

    {b Warnings} (legal but suspicious):
    - event times that go backwards in file order;
    - [linkdown] on an already-down link / [linkup] on an already-up
      link at that point of the timeline;
    - an MC declared but never used by any event;
    - a [health] directive with no link events for the detectors to
      discover;
    - a fault plan that injects nothing.

    The parser's own warnings are for a duplicate [graph], [faults] or
    [health] directive (the later one wins). *)

type severity = Workload.Script.severity = Error | Warning

type diagnostic = Workload.Script.diagnostic = {
  line : int;
  severity : severity;
  message : string;
}
(** [line] is 1-based; [0] means the file as a whole. *)

val lint : string -> diagnostic list
(** Analyse script text; diagnostics sorted by line. *)

val lint_file : string -> (diagnostic list, string) result
(** [Error] is an I/O failure (unreadable file), not a lint finding. *)

val errors : diagnostic list -> int

val warnings : diagnostic list -> int

val render : ?file:string -> diagnostic -> string
(** ["file:line: error: message"] — the conventional compiler format. *)
