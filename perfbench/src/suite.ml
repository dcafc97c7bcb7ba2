(* The workloads, and the metrics the benchmark reports for them. *)

type cell = { label : string; run : Ctx.t -> Tally.t -> unit }

type inputs = {
  cells : cell list;
  build_samples : (Ctx.t -> float * int) option;
      (** Traced run only: calibrated seconds and actions replayed by
          sampled [Check.Explore.build] calls. *)
}

let sim_cell (c : Sim_cell.t) = { label = c.label; run = (fun ctx t -> Sim_cell.run ctx t c) }

let workloads =
  [
    ( "burst_lan",
      fun ~seed ->
        { cells = List.map sim_cell (Burst_lan.prepare ~seed); build_samples = None } );
    ( "churn_lossy",
      fun ~seed ->
        { cells = List.map sim_cell (Churn_lossy.prepare ~seed); build_samples = None } );
    ( "explore_race",
      fun ~seed ->
        let cells = Explore_race.prepare ~seed in
        {
          cells =
            List.map
              (fun (c : Explore_race.cell) ->
                { label = c.race.name; run = (fun ctx t -> Explore_race.run ctx t c) })
              cells;
          build_samples = Some (fun ctx -> Explore_race.build_samples ~seed ctx cells);
        } );
  ]

(* Run one cell; an exception is a failed operation, not a crash.  Each
   cell starts from a collected heap (untimed), so the heap peak is the
   largest cell's own and not the garbage its predecessors left: without
   this the peak spread 9% between seeds on burst_lan, with it 5%. *)
let run_cell ctx tally c =
  Gc.full_major ();
  match c.run ctx tally with
  | () -> ()
  | exception e ->
    Tally.outcome tally ~label:(c.label ^ ": " ^ Printexc.to_string e) false

type metric = { name : string; value : float; unit_ : string; exact : bool }

let m ?(exact = true) name unit_ value = { name; value; unit_; exact }

(* The named counts summed, per injected event. *)
let per_event t names =
  let events = Tally.get t "events" in
  if events = 0.0 then 0.0
  else List.fold_left (fun a n -> a +. Tally.get t n) 0.0 names /. events

(* End-to-end metrics; times in calibrated seconds. *)
let end_to_end ~setup_s ~wall_s ~peak_heap_mb t =
  [
    m ~exact:false "setup_s" "s" setup_s;
    m ~exact:false "wall_s" "s" wall_s;
    m ~exact:false "peak_heap_mb" "MB" peak_heap_mb;
    m "msgs_per_event" "msg/event" (per_event t [ "messages" ]);
    m "floodings_per_event" "flood/event" (per_event t [ "mc_floodings" ]);
    m "computations_per_event" "comp/event" (per_event t [ "computations" ]);
    m "convergence_rounds_p50" "rounds" (Stat.median t.latencies);
    m "wire_msgs_per_event" "msg/event"
      (per_event t [ "messages"; "acks"; "retransmissions"; "hellos" ]);
  ]

let sum_layers ctx names f =
  List.fold_left
    (fun a n -> match Ctx.layer ctx n with Some l -> a +. f l | None -> a)
    0.0 names

let registry_total ctx name =
  match Ctx.registry ctx with
  | None -> 0
  | Some r ->
    List.fold_left
      (fun acc ((k : Metrics.Registry.key), v) -> if k.name = name then acc + v else acc)
      0 (Metrics.Registry.snapshot r).counters

(* Per-layer metrics of the traced pass [ctx], whose tally is [t];
   [wall_s] and [words] come from the untraced passes. *)
let per_layer ~wall_s ~words ~traced_s ~build ctx t =
  let self names = sum_layers ctx names (fun l -> l.Ctx.self_s) in
  let calls names = sum_layers ctx names (fun l -> float_of_int l.Ctx.calls) in
  let alloc names = sum_layers ctx names (fun l -> l.Ctx.words) in
  let share s = if traced_s > 0.0 then s /. traced_s else 0.0 in
  let dijkstra = [ "net.dijkstra" ] and steiner = [ "mctree.kmb"; "mctree.sph" ] in
  let compute = [ "dgmc.compute" ] in
  let per_s name = if wall_s > 0.0 then Tally.get t name /. wall_s else 0.0 in
  let build_s, build_actions = build in
  [
    m "sim.events" "count" (Tally.get t "sim_events");
    m "core.windows" "count" (float_of_int (List.length t.latencies));
    m "core.convergence_rounds_mean" "rounds" (Stat.mean t.latencies);
    m "core.convergence_rounds_max" "rounds" (Stat.maximum t.latencies);
    m ~exact:false "sim.events_per_s" "1/s" (per_s "sim_events");
    m ~exact:false "sim.run_self_s" "s" (self [ "sim.run" ]);
    m ~exact:false "sim.run_share" "ratio" (share (self [ "sim.run" ]));
    m "net.dijkstra_calls" "count" (calls dijkstra);
    m "net.dijkstra_per_compute"  "ratio"
      (let c = calls compute in if c = 0.0 then 0.0 else calls dijkstra /. c);
    m ~exact:false "net.dijkstra_self_s" "s" (self dijkstra);
    m ~exact:false "net.dijkstra_share" "ratio" (share (self dijkstra));
    m ~exact:false "net.dijkstra_words" "words" (alloc dijkstra);
    m "mctree.steiner_calls" "count" (calls steiner);
    m ~exact:false "mctree.steiner_self_s" "s" (self steiner);
    m ~exact:false "mctree.steiner_words" "words" (alloc steiner);
    m ~exact:false "core.compute_self_s" "s" (self compute);
    m ~exact:false "core.compute_words" "words" (alloc compute);
    m ~exact:false "core.resync_self_s" "s" (self [ "dgmc.resync" ]);
    m "core.proposal_accept_ratio" "ratio"
      (Tally.ratio t "proposals_accepted" "proposals_flooded");
    m "core.withdrawn_ratio" "ratio" (Tally.ratio t "computations_withdrawn" "computations");
    m ~exact:false "lsr.dispatch_self_s" "s" (self [ "flood.dispatch" ]);
    m "lsr.acks" "count" (Tally.get t "acks");
    m "lsr.retransmissions" "count" (Tally.get t "retransmissions");
    m "lsr.retransmit_ratio" "ratio" (Tally.ratio t "retransmissions" "messages");
    m "lsr.abandoned" "count" (float_of_int (registry_total ctx "flood.abandoned"));
    m "faults.dropped" "count" (Tally.get t "faults_dropped");
    m "faults.duplicated" "count" (Tally.get t "faults_duplicated");
    m "faults.reordered" "count" (Tally.get t "faults_reordered");
    m "health.hellos_sent" "count" (Tally.get t "hellos");
    m "health.detections" "count" (Tally.get t "detections");
    m "health.false_positives" "count" (Tally.get t "false_positives");
    m "check.states" "count" (Tally.get t "check_states");
    m "check.transitions" "count" (Tally.get t "check_transitions");
    m "check.terminals" "count" (Tally.get t "check_terminals");
    m ~exact:false "check.states_per_s" "1/s" (per_s "check_states");
    m ~exact:false "check.explore_self_s" "s" (self [ "check.explore" ]);
    m ~exact:false "check.explore_share" "ratio" (share (self [ "check.explore" ]));
    m ~exact:false "check.build_us_per_action" "us"
      (if build_actions = 0 then 0.0 else build_s *. 1e6 /. float_of_int build_actions);
    m "gc.minor_mw" "Mwords" (words /. 1e6);
    m ~exact:false "trace.overhead_ratio" "ratio" (if wall_s > 0.0 then traced_s /. wall_s else 0.0);
  ]
