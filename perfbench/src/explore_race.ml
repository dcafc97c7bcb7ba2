(* explore_race: exhaustive interleaving search over small races.

   [Check.Explore.run] covers every causally possible delivery and
   completion order of each race and must finish complete, with no
   violation and the terminal-state count recorded below.  Every state
   is rebuilt by replaying its action prefix, flooding and the engine are
   bypassed, and each computation is small, so the time goes to replay
   inside the checker.

   The seed picks a rotation or reflection of the ring that keeps every
   race's state space the same size; relabellings outside that class
   change the overlapping-crash race from 2,505 to 2,976 states.  The
   join-versus-link-down race runs on a 3-ring: its smallest 4-ring form
   visits 7,066 states or more, several seconds per race.

   Each race is also run once through the simulator on a timed schedule
   (setup joins at time 0, the race ten rounds later, crashes as fault
   plan windows), which supplies the per-event counts and convergence
   windows the other workloads report. *)

let config = Dgmc.Config.atm_lan

let mc = Dgmc.Mc_id.make Dgmc.Mc_id.Symmetric 1

let join switch = Check.Harness.Join { switch; mc; role = Dgmc.Member.Both }

type race = {
  name : string;
  ring : int;
  setup : Check.Harness.event list;
  race : Check.Harness.event list;
  terminals : int;  (** Distinct terminal states the search must reach. *)
}

let races =
  [
    { name = "joins"; ring = 4; setup = []; race = [ join 0; join 2 ]; terminals = 1 };
    {
      name = "join-linkdown";
      ring = 3;
      setup = [ join 0 ];
      race = [ join 1; Check.Harness.Link_down (0, 1) ];
      terminals = 3;
    };
    {
      name = "crash";
      ring = 4;
      setup = [ join 0; join 2 ];
      race = [ Check.Harness.Crash 1; join 3; Check.Harness.Recover 1 ];
      terminals = 1;
    };
    {
      name = "overlap";
      ring = 4;
      setup = [ join 0; join 2 ];
      race =
        Check.Harness.
          [ Crash 1; Crash 2; join 3; Recover 1; Recover 2 ];
      terminals = 1;
    };
  ]

(* Rotations by r with reflection for r = 1, 2: the labellings under
   which every race above keeps its state count. *)
let relabel ~seed ~ring s =
  let r = seed land 3 in
  if r = 1 || r = 2 then (((r - s) mod ring) + ring) mod ring else (s + r) mod ring

let map_event f = function
  | Check.Harness.Join j -> Check.Harness.Join { j with switch = f j.switch }
  | Check.Harness.Leave l -> Check.Harness.Leave { l with switch = f l.switch }
  | Check.Harness.Link_down (u, v) -> Check.Harness.Link_down (f u, f v)
  | Check.Harness.Link_up (u, v) -> Check.Harness.Link_up (f u, f v)
  | Check.Harness.Crash s -> Check.Harness.Crash (f s)
  | Check.Harness.Recover s -> Check.Harness.Recover (f s)
  | Check.Harness.Hello_round -> Check.Harness.Hello_round

let scenario ~seed r =
  let f = relabel ~seed ~ring:r.ring in
  {
    Check.Explore.graph = Net.Topo_gen.ring r.ring;
    config;
    setup = List.map (map_event f) r.setup;
    race = List.map (map_event f) r.race;
  }

(* The race on the simulator's clock.  Crashes open together at the race
   instant; the k-th recovery closes its window 3 + 2k rounds later. *)
let companion (r : race) (s : Check.Explore.scenario) =
  let graph = s.graph in
  let round = Dgmc.Config.round_length config ~graph in
  let t0 = 10.0 *. round in
  let to_event time = function
    | Check.Harness.Join { switch; mc; role } ->
      Some { Workload.Events.time; action = Workload.Events.Join { switch; mc; role } }
    | Check.Harness.Link_down (u, v) ->
      Some { Workload.Events.time; action = Workload.Events.Link_down (u, v) }
    | _ -> None
  in
  let crashed =
    List.filter_map (function Check.Harness.Crash s -> Some s | _ -> None) s.race
  in
  let crashes =
    List.mapi (fun k sw -> (sw, t0, t0 +. ((3.0 +. (2.0 *. float_of_int k)) *. round))) crashed
  in
  {
    Sim_cell.label = "sim-" ^ r.name;
    graph;
    config;
    faults =
      (if crashes = [] then None
       else Some { Sim_cell.spec = Faults.Plan.spec_default; seed = 1; crashes });
    events =
      List.filter_map (to_event 0.0) s.setup
      @ List.filter_map (to_event (t0 +. (0.1 *. round))) s.race;
    mcs = [ mc ];
    slice = 1000.0 *. round;
    gap = 2.0 *. round;
  }

type cell = { race : race; scenario : Check.Explore.scenario; sim : Sim_cell.t }

let prepare ~seed =
  List.map
    (fun r ->
      let scenario = scenario ~seed r in
      { race = r; scenario; sim = companion r scenario })
    races

let run ctx tally c =
  Ctx.cell ctx c.race.name (fun () ->
      let o = Ctx.work ctx "check.explore" (fun () -> Check.Explore.run c.scenario) in
      Tally.add tally "check_states" o.states;
      Tally.add tally "check_transitions" o.transitions;
      Tally.add tally "check_terminals" o.terminals;
      Tally.outcome tally ~label:c.race.name
        (o.complete && o.violation = None && o.terminals = c.race.terminals));
  Sim_cell.run ctx tally c.sim

(* Replay cost: random walks from each race's initial state to a terminal
   state, each prefix then rebuilt by [Check.Explore.build] under the
   meter.  Returns calibrated seconds and actions replayed. *)
let build_samples ~seed ctx cells =
  let rng = Sim.Rng.derive ~master:seed ~index:7 in
  List.fold_left
    (fun (secs, actions) c ->
      let walks = 4 in
      let rec walk h acc =
        match Check.Harness.enabled h with
        | [] -> List.rev acc
        | enabled ->
          let a = Sim.Rng.pick rng enabled in
          Check.Harness.apply h a;
          walk h (a :: acc)
      in
      let rec go k (secs, actions) =
        if k = 0 then (secs, actions)
        else begin
          let h, _ = Check.Explore.build c.scenario [] in
          let prefix = walk h [] in
          let before = ctx.Ctx.meter.calibrated_s in
          ignore (Ctx.work ctx "check.build" (fun () -> Check.Explore.build c.scenario prefix));
          go (k - 1)
            (secs +. (ctx.Ctx.meter.calibrated_s -. before), actions + List.length prefix)
        end
      in
      go walks (secs, actions))
    (0.0, 0) cells
