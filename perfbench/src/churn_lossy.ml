(* churn_lossy: communication-bound churn under loss.

   Reliable (ack + retransmit) flooding runs under a seeded fault plan —
   duplication, reordering, jitter and a small drop rate — with the
   link-health layer on: hellos, a k-missed detector, flap damping and
   LSA pacing.  Three MCs (one of each kind) hand their walkers over
   between adjacent switches, link-fade waves take links down and back,
   and one switch crashes and recovers mid-schedule.  Every wave changes
   the topology image: the write (invalidate) side of any per-image
   shortest-path-tree cache.  Moves of the three MCs are staggered by a
   third of a period so that reconfiguration windows stay separate.

   As in burst_lan the graphs are a fixed testbed, one per cell; the
   seed draws the walkers, waves, fault stream and crashed switch. *)

let n = 60

let cells = 16

let base = { Dgmc.Config.atm_lan with flood_mode = Lsr.Flooding.Reliable }

let kinds = [ Dgmc.Mc_id.Symmetric; Dgmc.Mc_id.Receiver_only; Dgmc.Mc_id.Asymmetric ]

let fault_spec =
  { Faults.Plan.spec_default with drop = 0.01; duplicate = 0.03; reorder = 0.05;
    jitter = 0.5 }

let period_rounds = 36.0

let moves = 6

let prepare ~seed =
  List.init cells (fun i ->
      let cell_seed = Sim.Rng.int (Sim.Rng.derive ~master:seed ~index:i) 0x3fffffff in
      let graph = Experiments.Harness.graph_for ~seed:(i + 1) ~n in
      let round = Dgmc.Config.round_length base ~graph in
      let period = period_rounds *. round in
      let mcs = List.mapi (fun k kind -> Dgmc.Mc_id.make kind (k + 1)) kinds in
      let events =
        List.concat
          (List.mapi
             (fun k mc ->
               Workload.Churn.generate
                 (Sim.Rng.derive ~master:cell_seed ~index:(k + 1))
                 ~graph
                 {
                   Workload.Churn.mc;
                   members = 4;
                   moves;
                   period;
                   start = round +. (float_of_int k *. period /. 3.0);
                   waves = (if k = 0 then 3 else 0);
                   wave_links = 2;
                   wave_period = 2.0 *. period +. (period /. 6.0);
                 })
             mcs)
        |> Workload.Events.sort
      in
      let last =
        List.fold_left (fun a (e : Workload.Events.t) -> Float.max a e.time) 0.0 events
      in
      let crash_rng = Sim.Rng.derive ~master:cell_seed ~index:0 in
      let crashed = Sim.Rng.int crash_rng n in
      let crash_from = (last /. 2.0) +. (period /. 6.0) in
      let hello =
        Health.Config.make ~period:(0.5 *. round)
          ~detector:(Health.Detector.K_missed 3)
          ~damping:
            { Health.Config.d_penalty = 1.0; d_suppress = 1.8; d_reuse = 0.75;
              d_half_life = 4.0 *. round }
          ~pacing:{ Health.Config.p_min_interval = 0.5 *. round; p_cap = 16 }
          ~horizon:1.0 ()
      in
      let bound = Health.Config.detect_bound hello in
      let hello =
        { hello with horizon = last +. (3.0 *. bound) +. (10.0 *. round) }
      in
      {
        Sim_cell.label = Printf.sprintf "churn-%02d" i;
        graph;
        config = { base with health = Some hello };
        faults =
          Some
            {
              Sim_cell.spec = fault_spec;
              seed = cell_seed;
              crashes = [ (crashed, crash_from, crash_from +. (4.0 *. round)) ];
            };
        events;
        mcs;
        slice = 25.0 *. round;
        gap = bound +. (2.0 *. round);
      })
