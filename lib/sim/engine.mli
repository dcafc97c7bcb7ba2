(** Discrete-event simulation engine.

    The engine advances a virtual clock by executing scheduled thunks in
    time order (FIFO among equal times).  It replaces the CSIM package the
    paper's study used: protocol entities are modelled as callbacks that
    schedule further work, rather than as coroutines, which is sufficient
    because D-GMC switches only react to message arrivals, local events and
    computation completions.

    Typical use:
    {[
      let eng = Engine.create () in
      ignore (Engine.schedule eng ~delay:1.0 (fun () -> ...));
      Engine.run eng
    ]} *)

type t

type handle = Event_queue.handle

val create : unit -> t
(** A fresh engine with clock at [0.0]. *)

val now : t -> float
(** Current virtual time. *)

val schedule : t -> delay:float -> (unit -> unit) -> handle
(** [schedule t ~delay f] runs [f] at [now t +. delay].  [delay] must be
    non-negative and finite. *)

val schedule_at : t -> time:float -> (unit -> unit) -> handle
(** [schedule_at t ~time f] runs [f] at absolute [time], which must not be
    in the engine's past. *)

val cancel : handle -> unit
(** Cancel a pending action.  No-op if it already ran. *)

val pending : t -> int
(** Number of actions still scheduled. *)

val events_executed : t -> int
(** Total number of actions executed since creation. *)

val run : ?until:float -> ?max_events:int -> t -> unit
(** Execute scheduled actions in order until the calendar drains, the
    clock would pass [until], or [max_events] actions have run.  When
    stopped by [until], the clock is left at [until] and later events
    remain pending. *)

val step : t -> bool
(** Execute the single next action.  Returns [false] if none was pending. *)

val set_probe : t -> (unit -> unit) -> unit
(** Install a telemetry probe invoked after every executed event, with
    the clock still at that event's time.  At most one probe is
    installed (a second call replaces the first); with none installed
    the per-event cost is a single pattern-match branch.  The probe
    observes — it must not schedule or cancel events, and a probe that
    raises aborts the run. *)

val stop : t -> unit
(** Request that [run] return after the action currently executing. *)

val reset : t -> unit
(** Drop all pending events and reset the clock to [0.0].  Counters are
    preserved so long-lived harnesses can keep global totals. *)
