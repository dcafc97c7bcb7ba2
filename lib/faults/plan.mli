(** Deterministic fault injection for message delivery.

    A fault plan sits between a sender and the simulation calendar: every
    per-link transmission is submitted to {!transmit}, which decides —
    from the plan's own seeded {!Sim.Rng} stream — whether the message is
    dropped, duplicated, delayed (jitter), or delayed far enough to be
    overtaken (reordering), and whether a scheduled switch crash or
    partition window currently severs the (src, dst) pair.  The caller
    schedules one delivery per returned delay; an empty list means the
    message is lost.

    Everything is deterministic: a plan built from the same seed and
    subjected to the same sequence of {!transmit} calls (which a seeded
    simulation guarantees) makes identical decisions and records an
    identical fault trace.  That is what makes a fuzz failure replayable
    from its printed seed.

    Probabilistic faults (drop/duplicate/reorder/jitter) are memoryless
    and never end; scheduled faults (crashes, partitions) are windows in
    simulated time, and {!quiescent_after} reports when the last one
    closes — the moment after which convergence may be demanded. *)

(** {1 Fault specification} *)

type spec = {
  drop : float;  (** Per-transmission loss probability, in [[0, 1]]. *)
  duplicate : float;
      (** Probability that a transmission is delivered twice, in
          [[0, 1]].  The copy draws its own jitter/reorder delay. *)
  reorder : float;
      (** Probability that a copy is held back by an extra delay of up
          to [reorder_span × base_delay], letting later transmissions
          overtake it.  In [[0, 1]]. *)
  reorder_span : float;
      (** Maximum reordering delay, as a multiple of the base per-hop
          delay.  Non-negative; default [4.0]. *)
  jitter : float;
      (** Every copy gets a uniform extra delay in
          [[0, jitter × base_delay]].  Non-negative. *)
}

val spec_default : spec
(** The transparent spec: all probabilities and delays zero. *)

val spec_of_string : string -> (spec, string) result
(** Parse ["drop=0.3,dup=0.1,reorder=0.2,jitter=0.5,span=4"] — comma- or
    semicolon-separated [key=value] pairs over {!spec_default}.  Keys:
    [drop], [dup], [reorder], [jitter], [span].  Probabilities must lie
    in [[0, 1]], delays must be non-negative and finite. *)

val spec_to_string : spec -> string
(** Canonical rendering, re-parseable by {!spec_of_string} — used in
    fuzz reproduction lines. *)

val spec_is_transparent : spec -> bool
(** No probabilistic fault can fire under this spec. *)

(** {1 Plans} *)

type t

val create : ?spec:spec -> seed:int -> unit -> t
(** A fresh plan applying [spec] (default {!spec_default}) to every
    link, drawing from a private generator seeded with [seed]. *)

val seed : t -> int

val instrument :
  t -> ?trace:Sim.Trace.t -> ?metrics:Metrics.Registry.t -> unit -> unit
(** Attach observability sinks (only the arguments given are replaced).
    With a trace, every injected fault additionally emits a
    [Fault_injected] event; with a registry, the counters are mirrored
    into [faults.*] metrics.  {!Protocol.create} calls this on the plan
    it is handed. *)

val set_link_spec : t -> int -> int -> spec -> unit
(** Override the spec for one undirected link (both directions). *)

val crash_switch : t -> switch:int -> from_:float -> until:float -> unit
(** The switch is fail-silent during [[from_, until)): every transmission
    to or from it is blocked.  Protocol state survives (the model is a
    forwarding-plane outage, equivalent to all incident links being
    dead), so recovery needs no reboot.  [from_ <= until] required. *)

val partition : t -> side:int list -> from_:float -> until:float -> unit
(** During [[from_, until)), transmissions between a switch in [side]
    and a switch outside it are blocked in both directions. *)

val quiescent_after : t -> float
(** The close of the last scheduled crash/partition window ([0.] when
    none are scheduled).  Probabilistic faults are memoryless and have
    no quiescence time. *)

val crash_windows : t -> (int * (float * float)) list
(** Scheduled crashes as [(switch, (from, until))], in scheduling order —
    lets a traced run mark [Crash]/[Recover] events on the timeline. *)

val partition_windows : t -> (int list * (float * float)) list
(** Scheduled partitions as [(side, (from, until))], in scheduling
    order. *)

(** {1 Mediating transmissions} *)

val transmit :
  t -> src:int -> dst:int -> now:float -> base_delay:float -> float list
(** Decide the fate of one [src → dst] transmission submitted at [now]
    with fault-free delivery delay [base_delay] ([> 0]).  Returns the
    delay of every copy to deliver: [[]] when lost or blocked, one
    element normally, two when duplicated.  Delays are [>= base_delay].
    Counters and the fault trace are updated as a side effect. *)

(** {1 Accounting} *)

type counters = {
  transmissions : int;  (** {!transmit} calls. *)
  delivered : int;  (** Copies actually scheduled for delivery. *)
  dropped : int;
  duplicated : int;
  reordered : int;
  blocked_crash : int;
  blocked_partition : int;
}

val counters : t -> counters

type link_counters = {
  l_transmissions : int;
  l_dropped : int;
  l_duplicated : int;
  l_reordered : int;
  l_blocked : int;  (** Crash- plus partition-blocked transmissions. *)
}

val link_counters : t -> ((int * int) * link_counters) list
(** Exact per-directed-link fault accounting as [((src, dst), counts)],
    sorted by [(src, dst)] — every pair that ever transmitted appears.
    Unlike {!trace}, never capped. *)

type fault_kind =
  | Drop
  | Duplicate
  | Reorder of float  (** Extra delay added. *)
  | Crash_block of int  (** The crashed endpoint. *)
  | Partition_block

type event = { time : float; src : int; dst : int; fault : fault_kind }

val trace : t -> event list
(** Every injected fault in injection order (clean deliveries are not
    recorded).  Capped at 100_000 entries; {!counters} keeps exact
    totals regardless. *)
