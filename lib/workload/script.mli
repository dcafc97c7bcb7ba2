(** Scenario scripts: drive a simulation from a plain-text description.

    The CLI's [script] subcommand runs files in this format; tests and
    bug reports can thus describe a reproducible scenario without
    writing OCaml.  Format, one directive per line ([#] comments and
    blank lines ignored):

    {v
    # network and regime
    graph waxman 30 seed=5        # or: grid R C | ring N | line N | star N
    config atm                    # or: wan

    # optional fault plan; its presence switches flooding to Reliable
    faults drop=0.3 dup=0.1 reorder=0.2 jitter=0.5 seed=7

    # connections: id and type
    mc 1 symmetric                # or: receiver-only | asymmetric

    # timed events; time is seconds, or rounds with an 'r' suffix
    at 0    join 3 mc=1           # role defaults by MC type
    at 0.1r join 5 mc=1 role=sender
    at 2r   leave 3 mc=1
    at 3r   linkdown 2 7
    at 4r   linkup 2 7

    # mobility churn: walkers whose attachment point roams, link-fade
    # waves that always heal ({!Churn}); expands into ordinary events
    churn mc=1 members=3 moves=4 period=1r waves=2 wave-links=1 wave-period=3r seed=9
    v}

    Times with the [r] suffix are multiples of the protocol round
    ([Tf + Tc]) of the scripted graph and regime; [churn]'s [period],
    [start] and [wave-period] take the same literals ([period] defaults
    to [1r], [wave-period] to [period]). *)

type t = {
  graph : Net.Graph.t;
  config : Dgmc.Config.t;
  mcs : Dgmc.Mc_id.t list;
  events : Events.t list;
  faults : Faults.Plan.spec option;
      (** When set, {!build} runs the network under this fault plan with
          [Reliable] flooding (overriding [config.flood_mode]). *)
  fault_seed : int;  (** Seed of the fault plan's random stream. *)
  health : Health.Config.t option;
      (** When set (a [health] directive), {!build} enables the
          link-health layer: scripted link events become ground truth
          the hello detectors must discover. *)
}

type severity = Error | Warning

type diagnostic = { line : int; severity : severity; message : string }
(** [line] is 1-based; [0] means the file as a whole. *)

type sourced = { from_line : int; event : Events.t; churned : bool }
(** A resolved event and the line that produced it; [churned] marks an
    event a [churn] directive expanded into. *)

type analysis = {
  script : t option;  (** [Some] exactly when no diagnostic is an error. *)
  diagnostics : diagnostic list;
      (** Every problem on every line, sorted by line: malformed
          directives, events, options and values; undeclared or
          twice-declared MCs; switches out of range; links the graph does
          not have; churn the graph cannot host; a [health] directive
          that fails [Health.Config.validate]; a missing [graph].  The
          only warnings are for a [graph], [faults] or [health] directive
          that overrides an earlier one. *)
  timeline : sourced list option;
      (** The events that resolved, in run order; [None] when there is
          no usable graph to resolve them against. *)
  declared : (int * Dgmc.Mc_id.t) list;
      (** Each declared MC with its line, in file order. *)
  referenced : int list;  (** MC ids named by some event or [churn]. *)
  faults_at : (int * Faults.Plan.spec) option;
      (** The [faults] directive in effect and its line. *)
  health_at : int option;  (** Line of the [health] directive in effect. *)
}

val analyse : string -> analysis
(** Parse and resolve a script in one pass that collects diagnostics
    instead of stopping at the first.  The linter ([Check.Scenario_lint])
    adds its timeline rules on top of this. *)

val parse : string -> (t, string) result
(** {!analyse}, keeping only the script; the error is the
    lowest-numbered error diagnostic, as ["line N: message"] (just the
    message for a missing [graph]). *)

val graph_of_args : line:int -> string list -> (Net.Graph.t, string) result
(** Build the graph a [graph] directive's arguments denote (e.g.
    [["ring"; "6"]]). *)

type health_directive = {
  h_period : float * bool;  (** (value, round-denominated?). *)
  h_grace : (float * bool) option;
  h_detector : Health.Detector.kind;
  h_reup : int option;
  h_damping : bool;
  h_damp_penalty : float;
  h_damp_suppress : float;
  h_damp_reuse : float;
  h_damp_half_life : (float * bool) option;  (** [None]: 4 rounds. *)
  h_pace : (float * bool) option;  (** Min-interval; presence enables pacing. *)
  h_pace_cap : int;
  h_horizon : (float * bool) option;  (** [None]: derived from the events. *)
}
(** A [health] directive as written — times unresolved. *)

val health_of_args :
  line:int -> string list -> (health_directive, string) result
(** Parse a [health] directive's [key=value] arguments (defaults:
    [period=0.5r], [detector=k:3], no damping, no pacing); the CLI's
    [--health] flag takes the same keys. *)

val last_event_time : Events.t list -> float
(** Time of the latest event, 0 when the list is empty — the anchor for
    {!health_config}'s derived horizon. *)

val health_config :
  graph:Net.Graph.t ->
  config:Dgmc.Config.t ->
  last_event:float ->
  health_directive ->
  Health.Config.t
(** Resolve round-denominated times against the graph and regime.  When
    no explicit horizon was given, it is placed past [last_event] by
    three detection bounds plus ten rounds of convergence slack. *)

val with_health : t -> health_directive -> (t, string) result
(** Resolve the directive against the script's graph, regime and events
    ({!health_config}) and validate it — the step {!parse} applies to a
    [health] directive. *)

val load : string -> (t, string) result
(** Read and parse a file. *)

val build :
  ?trace:Sim.Trace.t -> ?metrics:Metrics.Registry.t -> t -> Dgmc.Protocol.t
(** Create the protocol instance and schedule every event {e without}
    running — so callers can attach observers (e.g. [Check.Monitor])
    before the first transition, then [Dgmc.Protocol.run] it.
    [trace]/[metrics] are forwarded to {!Dgmc.Protocol.create}. *)

val run :
  ?trace:Sim.Trace.t -> ?metrics:Metrics.Registry.t -> t -> Dgmc.Protocol.t
(** Build the protocol instance, schedule every event, and run to
    quiescence. *)
