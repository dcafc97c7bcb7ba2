(* One simulation cell: a fresh protocol instance, a pre-generated event
   schedule injected open-loop at its simulated times, and a run to
   quiescence in slices of simulated time with a calibration slice
   between them.  The cell then checks agreement on every MC and adds
   its exact counts to the pass's tally. *)

type faults = {
  spec : Faults.Plan.spec;
  seed : int;
  crashes : (int * float * float) list;  (** Switch, from, until. *)
}

type t = {
  label : string;
  graph : Net.Graph.t;
  config : Dgmc.Config.t;
  faults : faults option;
  events : Workload.Events.t list;
  mcs : Dgmc.Mc_id.t list;
  slice : float;  (** Simulated seconds per run slice. *)
  gap : float;  (** Window sessionization gap, simulated seconds. *)
}

(* Fault plans are stateful (their own random stream and counters), so
   every run builds a fresh one from the cell's description. *)
let plan f =
  let p = Faults.Plan.create ~spec:f.spec ~seed:f.seed () in
  List.iter
    (fun (switch, from_, until) -> Faults.Plan.crash_switch p ~switch ~from_ ~until)
    f.crashes;
  p

let anchors c =
  List.map (fun (e : Workload.Events.t) -> e.time) c.events
  @ List.concat_map
      (fun f -> List.concat_map (fun (_, a, b) -> [ a; b ]) f.crashes)
      (Option.to_list c.faults)

let run ctx tally c =
  Ctx.cell ctx c.label (fun () ->
      let changes = ref [] in
      let net =
        Ctx.work ctx "core.create" (fun () ->
            (* The protocol applies link events to the graph it is given. *)
            let net =
              Dgmc.Protocol.create ~graph:(Net.Graph.copy c.graph) ~config:c.config
                ?faults:(Option.map plan c.faults) ?metrics:(Ctx.registry ctx) ()
            in
            let engine = Dgmc.Protocol.engine net in
            Dgmc.Protocol.add_observer net (fun () ->
                changes := Sim.Engine.now engine :: !changes);
            Workload.Events.apply_dgmc net c.events;
            net)
      in
      let engine = Dgmc.Protocol.engine net in
      (* [run ~until] leaves the clock at [until] only when later events
         remain; a clock short of it means the calendar drained. *)
      let rec go until =
        Ctx.work ctx "sim.run" (fun () -> Dgmc.Protocol.run ~until net);
        if Sim.Engine.now engine >= until then go (until +. c.slice)
      in
      go c.slice;
      let ok =
        List.for_all
          (fun mc ->
            Dgmc.Protocol.converged net mc
            && Option.is_some (Dgmc.Protocol.agreed_topology net mc))
          c.mcs
      in
      let t = Dgmc.Protocol.totals net in
      Tally.add tally "events" t.events;
      Tally.add tally "computations" t.computations;
      Tally.add tally "computations_withdrawn" t.computations_withdrawn;
      Tally.add tally "mc_floodings" t.mc_floodings;
      Tally.add tally "link_floodings" t.link_floodings;
      Tally.add tally "proposals_flooded" t.proposals_flooded;
      Tally.add tally "proposals_accepted" t.proposals_accepted;
      Tally.add tally "messages" t.messages;
      Tally.add tally "acks" t.acks;
      Tally.add tally "retransmissions" t.retransmissions;
      Tally.add tally "sim_events" (Sim.Engine.events_executed engine);
      Option.iter
        (fun (h : Dgmc.Protocol.health_summary) ->
          Tally.add tally "hellos" h.h_hellos;
          Tally.add tally "detections" h.h_detections;
          Tally.add tally "false_positives" h.h_false_positives)
        (Dgmc.Protocol.health_summary net);
      Option.iter
        (fun p ->
          let k = Faults.Plan.counters p in
          Tally.add tally "faults_dropped" k.dropped;
          Tally.add tally "faults_duplicated" k.duplicated;
          Tally.add tally "faults_reordered" k.reordered)
        (Dgmc.Protocol.faults net);
      let w =
        Windows.of_times ~gap:c.gap
          ~round:(Dgmc.Config.round_length c.config ~graph:c.graph)
          ~anchors:(anchors c) ~changes:!changes
      in
      tally.latencies <- w.latencies @ tally.latencies;
      Tally.add tally "windows" (List.length w.latencies);
      Tally.add tally "quiet_windows" w.quiet;
      Tally.outcome tally ~label:c.label ok)
