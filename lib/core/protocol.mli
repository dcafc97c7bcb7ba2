(** A D-GMC network: all switches, the shared flooding substrate, event
    injection, and the measurements the paper's evaluation reports.

    This is the top-level façade of the library.  Typical use:

    {[
      let rng = Sim.Rng.create 42 in
      let g = Net.Topo_gen.waxman rng ~n:40 () in
      let net = Protocol.create ~graph:g ~config:Config.default () in
      let mc = Mc_id.make Symmetric 1 in
      Protocol.schedule_join net ~at:0.0 ~switch:3 mc Member.Both;
      Protocol.schedule_join net ~at:0.0 ~switch:17 mc Member.Both;
      Protocol.run net;
      assert (Protocol.converged net mc)
    ]} *)

type payload =
  | Mc of Mc_lsa.t  (** An MC LSA ([F = mc]). *)
  | Link of Lsr.Lsdb.link_event  (** A non-MC LSA ([F = ¬mc]). *)
  | Resync of Resync.msg
      (** A crash-recovery resynchronisation message, unicast between
          neighbors via {!Lsr.Flooding.send} — never flooded (extension;
          see {!Switch.begin_resync}). *)

type totals = {
  events : int;  (** Local events injected (join/leave/link per MC). *)
  computations : int;  (** Topology computations completed, network-wide. *)
  computations_withdrawn : int;
  mc_floodings : int;  (** MC LSA flooding operations. *)
  link_floodings : int;  (** Non-MC (link event) flooding operations. *)
  proposals_flooded : int;
  proposals_accepted : int;
  messages : int;
      (** First-copy per-link LSA transmissions — comparable across
          flooding modes (see {!Lsr.Flooding.messages_sent}). *)
  acks : int;  (** Reliable flooding: acknowledgements sent. *)
  retransmissions : int;  (** Reliable flooding: data copies retransmitted. *)
}

type health_summary = {
  h_detections : int;
      (** Down verdicts that matched ground truth (link down or peer
          inside a crash window). *)
  h_recoveries : int;  (** Up re-declarations. *)
  h_false_positives : int;
      (** Down verdicts contradicting ground truth. *)
  h_latencies : float list;
      (** Detection latencies of the true down verdicts, sorted
          ascending. *)
  h_bound : float;  (** {!Health.Config.detect_bound} of the config. *)
  h_suppressed : int;  (** Adjacency directions suppressed right now. *)
  h_hellos : int;  (** Hellos put on the wire. *)
  h_flaps : int;  (** Down declarations across all agents. *)
  h_pacer_emitted : int;
  h_pacer_coalesced : int;
  h_pacer_forced : int;
}

type t

val create :
  graph:Net.Graph.t ->
  config:Config.t ->
  ?faults:Faults.Plan.t ->
  ?trace:Sim.Trace.t ->
  ?metrics:Metrics.Registry.t ->
  ?series:Metrics.Series.t ->
  unit ->
  t
(** Build a network of [Net.Graph.n_nodes graph] switches, each booted
    with a converged link-state image of [graph].

    [faults] subjects every per-link LSA (and ack) transmission to the
    given fault plan — loss, duplication, reordering, jitter, crash and
    partition windows — in the engine's simulated time.  Pair it with
    [config.flood_mode = Reliable], or floods will silently lose LSAs
    and the network will not converge.

    An enabled [trace] captures the full causal story of a run: every
    flood starts with an [Lsa_originated] event (MC LSAs carry the MC
    id, advertised event and R stamp; link LSAs carry ["link-up"] /
    ["link-down"]), and the per-hop forwarding, delivery, protocol
    reaction and eventual [Topology_installed] it causes are chained to
    it through parent ids.  When a fault plan is present its scheduled
    crash windows additionally appear as [Crash]/[Recover] marks (and
    partitions as ["partition"] notes) — these extra trace entries are
    only scheduled when tracing is on, so untraced runs stay
    byte-for-byte deterministic.  [metrics] mirrors the counters of
    {!totals} (and the per-switch/flooding/fault internals) into a
    {!Metrics.Registry} under [protocol.*], [switch.*], [flood.*] and
    [faults.*] names.

    An enabled [series] turns on the flight recorder: an engine probe
    samples [engine.events] (executed events per bucket) and
    [engine.queue_depth] after every event, [switch.lsdb_entries] per
    switch once per bucket boundary, and the flooding layer contributes
    [flood.lsas] and [flood.inflight_rtx] (see {!Lsr.Flooding.create}).
    The probe only observes — the event calendar, protocol state and
    figure output are byte-identical with recording on or off — and a
    disabled series leaves the engine probe uninstalled entirely. *)

val engine : t -> Sim.Engine.t

val faults : t -> Faults.Plan.t option
(** The fault plan delivery runs under, if any. *)

val add_observer : t -> (unit -> unit) -> unit
(** Register a callback invoked after every protocol state change at any
    switch (member list or topology installed, state deleted).  Used by
    layers built on the protocol's complete-knowledge model, e.g.
    {!Election.Leader} monitors.  Observers must not inject events
    synchronously; schedule through the engine instead. *)

val graph : t -> Net.Graph.t
(** The real (ground-truth) topology. *)

val config : t -> Config.t

val n_switches : t -> int

val switch : t -> int -> Switch.t

(** {1 Event injection} *)

val join : t -> switch:int -> Mc_id.t -> Member.role -> unit
(** Host join at the given ingress switch, {e now} (at the engine's
    current time). *)

val leave : t -> switch:int -> Mc_id.t -> unit

val link_down : t -> int -> int -> unit
(** Take a live link down now: the real graph changes, both endpoint
    switches detect it, flood a non-MC LSA each, and run [EventHandler]
    for the MCs whose local topology used the link.

    With [Config.health] set, the change touches {e ground truth only}:
    no switch is notified and nothing is flooded here — the hello agents
    must discover the silence, and the declaring endpoints originate the
    link LSAs themselves. *)

val link_up : t -> int -> int -> unit
(** Restore a link; endpoints flood non-MC LSAs (no MC LSAs: an MC
    topology is never improved reactively by a link recovery).  Under
    [Config.health], ground truth only — see {!link_down}. *)

val schedule_join :
  t -> at:float -> switch:int -> Mc_id.t -> Member.role -> unit

val schedule_leave : t -> at:float -> switch:int -> Mc_id.t -> unit

val schedule_link_down : t -> at:float -> int -> int -> unit

val schedule_link_up : t -> at:float -> int -> int -> unit

(** {1 Running} *)

val run : ?until:float -> ?max_events:int -> t -> unit
(** Advance the simulation until quiescence (or the given bounds). *)

(** {1 Measurements} *)

val totals : t -> totals
(** Aggregated counters since creation (or the last {!reset_counters}). *)

val reset_counters : t -> unit
(** Zero all counters and the activity clock, and set the measurement
    epoch to the current simulated time.  Call between workload phases. *)

val first_event_time : t -> float option
(** Time of the first injected event since the last reset. *)

val last_change_time : t -> float option
(** Time of the last member-list or topology change at any switch since
    the last reset. *)

val convergence_rounds : t -> float option
(** [(last_change - first_event) / round_length] — the paper's
    convergence time in rounds (Figure 6(c)).  [None] until an event and
    a change have happened. *)

val health_summary : t -> health_summary option
(** Aggregated link-health statistics; [None] when [Config.health] is
    unset. *)

val health_views : t -> (int * (int * bool * bool) list) list
(** Per switch, the hello agent's [(peer, believed up, suppressed)]
    adjacency beliefs — empty when the health layer is off. *)

(** {1 Agreement} *)

val converged : t -> Mc_id.t -> bool
(** Every switch holding state for the MC agrees on the member list and
    the topology, every such topology is valid for the real graph and
    the real member set, and no mailbox or computation is pending.
    Vacuously true when no switch holds state. *)

val divergence : t -> Mc_id.t -> string list
(** Human-readable reasons why {!converged} is false (empty when true) —
    for tests and debugging. *)

val agreed_topology : t -> Mc_id.t -> Mctree.Tree.t option
(** The common topology when {!converged} holds and at least one switch
    has state. *)

val converged_among : t -> Mc_id.t -> int list -> bool
(** Mutual agreement (member lists, topologies, quiescence) restricted
    to the given switches, without the ground-truth and validity checks.
    This is the meaningful property when the network has partitioned —
    global agreement is unattainable then (the paper leaves partitions
    to future work), but every switch {e within} one partition side must
    still agree. *)
