(** The D-GMC invariant catalogue.

    D-GMC's correctness argument (paper §3.4) rests on its timestamp
    machinery: obsolete or incomplete proposals must be detected and
    withdrawn no matter how LSA floods interleave.  This module states
    the machine-checkable laws that argument needs, split into three
    groups:

    {b Per-state laws} — must hold at {e every} reachable state of every
    switch, mid-convergence included:
    - [C <= R]: the installed topology is based only on events the
      switch has actually counted (the member-snapshot merge on proposal
      acceptance maintains this).
    - [R <= E]: a switch never counts an event it was not promised.
    - [seen <= R]: the per-source membership cursor never runs ahead of
      the received-event count.
    - the installed topology is structurally a tree and spans its own
      terminal set.

    {b Transition laws} — relate consecutive states of one switch:
    - [C] never regresses: a topology based on state older than (or
      causally concurrent with) an already-installed one is never
      installed over it.

    {b Terminal laws} — must hold when no message or computation is in
    flight anywhere:
    - network-wide agreement on member list and topology;
    - agreement with the injected ground truth;
    - the agreed topology is a valid embedded tree spanning the member
      set;
    - [R = E] at every switch holding state (every promised LSA was
      delivered and accounted);
    - no abandoned proposal duty ([flag] set with [R >= E], [R > C]
      would mean the protocol stopped with a recomputation owed). *)

type violation = {
  switch : int option;  (** Offending switch, when attributable. *)
  mc : Dgmc.Mc_id.t option;
  law : string;  (** Short law name, e.g. ["C<=R"]. *)
  detail : string;
}

val to_string : violation -> string

val check_switch : ?boundary:bool -> id:int -> Dgmc.Switch.t -> violation list
(** All per-state laws over every MC snapshot of one switch.

    [boundary] (default [true]) states whether the switch is known to be
    between protocol actions.  [R <= E] only holds there: within one
    [ReceiveLSA] step, [R] is raised (and [on_change] observers run)
    before [E] is merged with the same stamp.  Observers sweeping
    mid-action must pass [~boundary:false], which skips that law; the
    other laws hold at every observation point. *)

val installed_stamps : Dgmc.Switch.t -> (Dgmc.Mc_id.t * Dgmc.Timestamp.t) list
(** The [C] stamp per MC — capture before a transition and feed to
    {!check_monotone} after it. *)

val check_monotone :
  id:int ->
  before:(Dgmc.Mc_id.t * Dgmc.Timestamp.t) list ->
  Dgmc.Switch.t ->
  violation list
(** Transition law: for every MC present in [before] and still present
    now, the new [C] must be [>=] the old one under the causal partial
    order.  (An MC deleted and recreated restarts its history; callers
    drop its [before] entry.) *)

val check_terminal :
  graph:Net.Graph.t ->
  truth:(Dgmc.Mc_id.t * Dgmc.Member.t) list ->
  Dgmc.Switch.t array ->
  violation list
(** All terminal laws over the whole network.  [graph] is the real
    (ground-truth) topology, [truth] the injected membership per MC. *)

val check_health_state :
  detect_rounds:int ->
  spurious:string list ->
  Harness.adjacency_view list ->
  violation list
(** Link-health per-state laws over the harness's abstract hello model:
    - [hello-false-positive] — a recorded down declaration contradicted
      ground truth (the abstract model loses no hellos, so there is no
      legitimate cause);
    - [hello-detect] — an adjacency truth-down for [detect_rounds]
      hello rounds with a live watcher is still believed up. *)

val check_health_terminal :
  suppressed:(int * int) list -> Dgmc.Switch.t array -> violation list
(** Terminal link-health law [suppress-install]: no installed topology
    at any switch contains a link under damping suppression.  Transient
    states may legally keep an old tree across a suppression — the law
    binds only once the network has quiesced. *)
