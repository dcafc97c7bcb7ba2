(* burst_lan: the Figure 6 regime.

   Computation dominates communication ([Config.atm_lan], lossless
   hop-by-hop flooding).  Each cell is a fresh Waxman network on which a
   burst of joins hits a new symmetric MC within one flooding diameter,
   so every switch keeps recomputing on one unchanged topology image:
   the read side of any per-image shortest-path-tree cache.

   The graphs are a fixed testbed, one per cell (sizes cycle through
   [sizes]); the seed draws the joiners and their times.  Drawing the
   graphs from the seed too spread messages per event by 6% and wall
   time by 10% between seeds, wider than the bounds can absorb. *)

let config = Dgmc.Config.atm_lan

let sizes = [| 100; 125; 150; 175; 200 |]

let cells = 10

let members = 20

let prepare ~seed =
  List.init cells (fun i ->
      let n = sizes.(i mod Array.length sizes) in
      let cell_seed = Sim.Rng.int (Sim.Rng.derive ~master:seed ~index:i) 0x3fffffff in
      let graph = Experiments.Harness.graph_for ~seed:(i + 1) ~n in
      let mc = Dgmc.Mc_id.make Dgmc.Mc_id.Symmetric 1 in
      let window =
        Float.max config.tc
          (Lsr.Flooding.flood_diameter ~graph ~t_hop:config.t_hop)
      in
      let events =
        Workload.Bursty.joins
          (Sim.Rng.derive ~master:cell_seed ~index:1)
          ~n ~mc ~members ~window ()
      in
      let round = Dgmc.Config.round_length config ~graph in
      {
        Sim_cell.label = Printf.sprintf "burst-%02d" i;
        graph;
        config;
        faults = None;
        events;
        mcs = [ mc ];
        slice = 1000.0 *. round;
        gap = 2.0 *. round;
      })
