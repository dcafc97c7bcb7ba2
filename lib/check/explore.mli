(** Bounded interleaving model checker for D-GMC.

    Explores {e every} causally-possible ordering of LSA deliveries and
    computation completions that a {!Harness} scenario can produce,
    checking the {!Invariant} catalogue at each reached state:
    per-state laws and C-monotonicity on every transition, the terminal
    laws (agreement, ground truth, quiescence) at every terminal state.

    {b Exploration.}  One frontier loop ({!search}) serves both this
    module's breadth-first {!run} and {!Search.forward}'s best-first
    walk; the two differ only in pop order and in which violations count
    as a hit.  States are deduplicated by their canonical
    {!Harness.digest}; since {!Dgmc.Switch.t} is not cloneable, each
    state is reconstructed by replaying its action prefix from the
    initial state (sound because the harness is deterministic for a
    fixed action sequence).

    {b Scenario shape.}  [setup] events are injected and deterministically
    drained first ({!Harness.settle}) to reach a converged base state;
    [race] events are then injected {e simultaneously} and the resulting
    in-flight message multiset is explored exhaustively. *)

type scenario = {
  graph : Net.Graph.t;
  config : Dgmc.Config.t;
  setup : Harness.event list;  (** Injected and settled before the race. *)
  race : Harness.event list;  (** Injected concurrently, then explored. *)
}

type violation = {
  laws : string list;  (** The selected violated laws, sorted, deduped. *)
  message : string;  (** The selected violations, rendered. *)
  trace : string list;
      (** Human-readable action sequence from the post-race initial
          state to the violating state (minimal under BFS). *)
  depth : int;  (** Actions from the post-race initial state. *)
  state_digest : string;  (** {!Harness.digest} of the violating state. *)
}

type outcome = {
  states : int;  (** Distinct states visited. *)
  transitions : int;  (** Edges expanded. *)
  terminals : int;  (** Distinct terminal states reached. *)
  off_target : int;
      (** Violating edges and terminal states whose laws were not
          selected: counted but not expanded.  Always 0 from {!run}. *)
  complete : bool;
      (** Whole reachable space covered — no bound was hit and no
          violation cut the search short. *)
  violation : violation option;  (** First violation found, if any. *)
}

val build : scenario -> Harness.action list -> Harness.t * string list
(** Materialise the state reached by an action prefix: create the
    harness, inject and settle [setup], inject [race], then replay the
    prefix, collecting each action's {!Harness.describe} rendering.
    Deterministic — two builds of the same prefix are digest-identical —
    which is what lets the checker substitute replay for cloning.
    [Invalid_argument] if the setup itself cannot settle. *)

(** {1 The frontier loop} *)

type 'k order = {
  wave : int;  (** Frontier entries popped and expanded per round. *)
  rank : Harness.t -> depth:int -> digest:string -> 'k;
      (** Frontier key of a new non-terminal state. *)
  compare : 'k -> 'k -> int;
      (** Pop order; ties go to the entry pushed first, so a constant
          rank is first in, first out. *)
}

val search :
  ?domains:int ->
  order:'k order ->
  select:(Invariant.violation -> bool) ->
  max_states:int ->
  max_depth:int ->
  scenario ->
  outcome
(** Explore the scenario's post-race state graph in [order].  Every
    edge is replayed, applied, checked against the per-state and
    C-monotonicity laws, and digested; the enabled set, the terminal
    laws and the rank are computed only for a child whose digest had not
    been seen before its wave.  A violation is a hit when [select] keeps
    any of its laws (the hit reports only those); otherwise it counts as
    {!outcome.off_target} and the state is not expanded.  The search
    stops at the first hit.  Each wave's edges are computed as pure
    tasks over [domains] (default 1) and merged in wave order, so the
    outcome is identical at any domain count. *)

val run : ?max_states:int -> ?max_depth:int -> scenario -> outcome
(** Breadth-first {!search} for any violation, so the first one comes
    with a minimal-length trace.  Defaults: [max_states = 200_000],
    [max_depth = 10_000].

    No partial-order reduction is applied: the state space is covered in
    full, up to the interchangeability dedup of {!Harness.enabled} and
    the canonical-digest dedup of states (both of which only merge
    provably indistinguishable successors). *)

val pp_outcome : Format.formatter -> outcome -> unit
