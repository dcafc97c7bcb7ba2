(* dgmc_sim — command-line driver for the D-GMC simulation study.

   Subcommands mirror the paper's evaluation artifacts (fig6/fig7/fig8,
   compare, cbt) and add single-run and topology-inspection utilities.
   `dgmc_sim <cmd> --help` documents each. *)

open Cmdliner

(* ------------------------------------------------------------------ *)
(* Shared options *)

let sizes_arg =
  let doc = "Comma-separated network sizes to sweep." in
  Arg.(value & opt (list int) Experiments.Figures.default_sizes & info [ "sizes" ] ~doc)

let seeds_arg =
  let doc = "Number of random graphs (seeds 1..N) per size." in
  Arg.(value & opt int 10 & info [ "graphs" ] ~doc)

let members_arg =
  let doc = "Members joining in each burst." in
  Arg.(value & opt int 10 & info [ "members" ] ~doc)

let seeds_of count = List.init count (fun i -> i + 1)

let ci (s : Metrics.Stats.summary) = Metrics.Table.cell_ci ~mean:s.mean ~ci:s.ci95

let csv_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "csv" ] ~docv:"FILE" ~doc:"Also write the table as CSV to $(docv).")

let maybe_csv path ~headers rows =
  match path with
  | Some path -> Metrics.Csv.write ~path ~headers rows
  | None -> ()

(* ------------------------------------------------------------------ *)
(* Structured tracing (shared by run / script / fuzz) *)

let trace_file_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Capture a structured causal trace of the run — LSA provenance \
           (origination, per-link forwards, deliveries, drops), topology \
           computations and installs, fault injections — and write it as \
           JSON Lines (schema dgmc-trace/1) to $(docv), ready for \
           $(b,dgmc_trace).  '-' prints the human-readable timeline to \
           stdout instead.")

let trace_cats_arg =
  Arg.(
    value
    & opt (some (list string)) None
    & info [ "trace-cats" ] ~docv:"CATS"
        ~doc:
          "Comma-separated trace categories to retain (flood, forward, \
           deliver, drop, compute, proposal, install, fault, crash, \
           recover, resync, ...).  Default: all.  Filtering affects \
           retention only; event ids stay globally consistent, so causal \
           parents in a filtered trace still refer to real events.")

let make_trace ?cap file cats =
  match file with
  | None -> Sim.Trace.disabled
  | Some _ -> Sim.Trace.create ?cap ?cats ()

let finish_trace trace file =
  match file with
  | None -> ()
  | Some "-" ->
    List.iter
      (fun e -> Format.printf "%a@." Sim.Trace.pp_entry e)
      (Sim.Trace.entries trace)
  | Some path ->
    Sim.Trace.write_jsonl trace ~path;
    Printf.eprintf "trace: %d event(s) written to %s%s\n%!"
      (Sim.Trace.count trace) path
      (match Sim.Trace.dropped trace with
      | 0 -> ""
      | d -> Printf.sprintf " (%d evicted by the ring buffer)" d)

(* ------------------------------------------------------------------ *)
(* fig6 / fig7 *)

let print_bursty csv (r : Experiments.Figures.bursty_result) =
  let headers =
    [ "switches"; "proposals/event"; "floodings/event"; "convergence (rounds)" ]
  in
  let rows =
    List.map
      (fun (n, p) ->
        [
          string_of_int n;
          ci p;
          ci (List.assoc n r.floodings.points);
          ci (List.assoc n r.convergence.points);
        ])
      r.proposals.points
  in
  Metrics.Table.print ~headers rows;
  maybe_csv csv ~headers rows;
  Printf.printf "all runs converged: %b\n" r.all_converged

let fig6_cmd =
  let run sizes graphs members csv =
    print_bursty csv
      (Experiments.Figures.fig6 ~sizes ~seeds:(seeds_of graphs) ~members ())
  in
  Cmd.v
    (Cmd.info "fig6" ~doc:"Experiment 1: bursty events, computation dominates.")
    Term.(const run $ sizes_arg $ seeds_arg $ members_arg $ csv_arg)

let fig7_cmd =
  let run sizes graphs members csv =
    print_bursty csv
      (Experiments.Figures.fig7 ~sizes ~seeds:(seeds_of graphs) ~members ())
  in
  Cmd.v
    (Cmd.info "fig7" ~doc:"Experiment 2: bursty events, communication dominates.")
    Term.(const run $ sizes_arg $ seeds_arg $ members_arg $ csv_arg)

(* ------------------------------------------------------------------ *)
(* fig8 *)

let fig8_cmd =
  let events_arg =
    Arg.(value & opt int 40 & info [ "events" ] ~doc:"Membership events per run.")
  in
  let gap_arg =
    Arg.(
      value & opt float 50.0
      & info [ "gap" ] ~doc:"Mean inter-event gap, in protocol rounds.")
  in
  let run sizes graphs events gap_rounds csv =
    let r =
      Experiments.Figures.fig8 ~sizes ~seeds:(seeds_of graphs) ~events ~gap_rounds ()
    in
    let headers = [ "switches"; "proposals/event"; "floodings/event" ] in
    let rows =
      List.map
        (fun (n, p) ->
          [ string_of_int n; ci p; ci (List.assoc n r.n_floodings.points) ])
        r.n_proposals.points
    in
    Metrics.Table.print ~headers rows;
    maybe_csv csv ~headers rows;
    Printf.printf "all runs converged: %b\n" r.n_all_converged
  in
  Cmd.v
    (Cmd.info "fig8" ~doc:"Experiment 3: normal (sparse) traffic periods.")
    Term.(const run $ sizes_arg $ seeds_arg $ events_arg $ gap_arg $ csv_arg)

(* ------------------------------------------------------------------ *)
(* compare *)

let compare_cmd =
  let sources_arg =
    Arg.(value & opt int 3 & info [ "sources" ] ~doc:"Active MOSPF sources.")
  in
  let run sizes graphs members sources =
    let c =
      Experiments.Figures.compare_protocols ~sizes ~seeds:(seeds_of graphs)
        ~members ~sources ()
    in
    Metrics.Table.print
      ~headers:
        [ "switches"; "dgmc comp/ev"; "brute comp/ev"; "mospf comp/ev" ]
      (List.map
         (fun n ->
           let get (s : Experiments.Figures.series) = ci (List.assoc n s.points) in
           [
             string_of_int n;
             get c.dgmc_computations;
             get c.brute_computations;
             get c.mospf_computations;
           ])
         c.c_sizes)
  in
  Cmd.v
    (Cmd.info "compare"
       ~doc:"Per-event cost: D-GMC vs brute-force LSR vs MOSPF.")
    Term.(const run $ sizes_arg $ seeds_arg $ members_arg $ sources_arg)

(* ------------------------------------------------------------------ *)
(* cbt *)

let cbt_cmd =
  let n_arg = Arg.(value & opt int 60 & info [ "n" ] ~doc:"Network size.") in
  let receivers_arg =
    Arg.(value & opt int 12 & info [ "receivers" ] ~doc:"Receiver count.")
  in
  let senders_arg =
    Arg.(value & opt int 6 & info [ "senders" ] ~doc:"Off-tree sender count.")
  in
  let seed_arg = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Graph seed.") in
  let run n receivers senders seed =
    let rows = Experiments.Figures.cbt_comparison ~seed ~n ~receivers ~senders () in
    Metrics.Table.print
      ~align:[ Metrics.Table.Left ]
      ~headers:
        [
          "configuration"; "tree cost"; "max load"; "mean load"; "links";
          "mean delay"; "ctrl msgs";
        ]
      (List.map
         (fun (r : Experiments.Figures.cbt_row) ->
           [
             r.strategy;
             Metrics.Table.cell_f r.tree_cost;
             string_of_int r.max_link_load;
             Metrics.Table.cell_f r.mean_link_load;
             string_of_int r.links_used;
             Metrics.Table.cell_f r.mean_delay;
             string_of_int r.control_messages;
           ])
         rows)
  in
  Cmd.v
    (Cmd.info "cbt" ~doc:"CBT trade-off: shared-tree traffic concentration.")
    Term.(const run $ n_arg $ receivers_arg $ senders_arg $ seed_arg)

(* ------------------------------------------------------------------ *)
(* hierarchy *)

let hierarchy_cmd =
  let areas_arg = Arg.(value & opt int 10 & info [ "areas" ] ~doc:"Number of areas.") in
  let per_area_arg =
    Arg.(value & opt int 20 & info [ "per-area" ] ~doc:"Switches per area.")
  in
  let events_arg =
    Arg.(value & opt int 20 & info [ "events" ] ~doc:"Membership events.")
  in
  let run areas per_area events graphs =
    let rows =
      Experiments.Scale.hier_vs_flat ~seeds:(seeds_of graphs) ~areas ~per_area
        ~events ()
    in
    Metrics.Table.print
      ~align:[ Metrics.Table.Left ]
      ~headers:
        [ "protocol"; "switches"; "floodings/ev"; "messages/ev"; "reach/ev"; "ok" ]
      (List.map
         (fun (r : Experiments.Scale.row) ->
           [
             r.protocol;
             string_of_int r.n;
             Metrics.Table.cell_f r.floodings_per_event;
             Metrics.Table.cell_f r.messages_per_event;
             Metrics.Table.cell_f r.reach_per_event;
             string_of_bool r.converged;
           ])
         rows)
  in
  Cmd.v
    (Cmd.info "hierarchy"
       ~doc:"Hierarchical vs flat D-GMC signaling scope on clustered topologies.")
    Term.(const run $ areas_arg $ per_area_arg $ events_arg $ seeds_arg)

(* ------------------------------------------------------------------ *)
(* run: one scenario, verbose *)

let run_cmd =
  let n_arg = Arg.(value & opt int 40 & info [ "n" ] ~doc:"Network size.") in
  let seed_arg = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Random seed.") in
  let members_arg =
    Arg.(value & opt int 10 & info [ "members" ] ~doc:"Burst size.")
  in
  let regime_arg =
    Arg.(
      value
      & opt (enum [ ("atm", `Atm); ("wan", `Wan) ]) `Atm
      & info [ "regime" ] ~doc:"Timing regime: atm (Tc >> t_hop) or wan.")
  in
  let workload_arg =
    Arg.(
      value
      & opt (enum [ ("bursty", `Bursty); ("normal", `Normal) ]) `Bursty
      & info [ "workload" ] ~doc:"Event pattern.")
  in
  let run n seed members regime workload trace_file trace_cats =
    let config =
      match regime with `Atm -> Dgmc.Config.atm_lan | `Wan -> Dgmc.Config.wan
    in
    let trace = make_trace trace_file trace_cats in
    let r =
      match workload with
      | `Bursty ->
        Experiments.Harness.bursty_run ~trace ~seed ~n ~config ~members ()
      | `Normal ->
        Experiments.Harness.poisson_run ~trace ~seed ~n ~config ~events:40
          ~gap_rounds:50.0 ()
    in
    Printf.printf "switches:            %d\n" r.n;
    Printf.printf "events:              %d\n" r.events;
    Printf.printf "computations/event:  %.3f\n" r.computations_per_event;
    Printf.printf "floodings/event:     %.3f\n" r.floodings_per_event;
    Printf.printf "messages/event:      %.1f\n" r.messages_per_event;
    (match r.convergence_rounds with
    | Some c -> Printf.printf "convergence:         %.2f rounds\n" c
    | None -> Printf.printf "convergence:         n/a\n");
    Printf.printf "network-wide agreement: %b\n" r.converged;
    finish_trace trace trace_file;
    if not r.converged then exit 1
  in
  Cmd.v
    (Cmd.info "run" ~doc:"One D-GMC simulation run, reported in detail.")
    Term.(
      const run $ n_arg $ seed_arg $ members_arg $ regime_arg $ workload_arg
      $ trace_file_arg $ trace_cats_arg)

(* ------------------------------------------------------------------ *)
(* script: run a scenario file *)

let script_cmd =
  let file_arg =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"Scenario script.")
  in
  let dot_arg =
    Arg.(
      value & flag
      & info [ "dot" ] ~doc:"Emit the final topology of the first MC as DOT.")
  in
  let check_arg =
    Arg.(
      value & flag
      & info [ "check" ]
          ~doc:
            "Attach the runtime invariant monitor (Check.Monitor) and fail \
             if any D-GMC invariant is violated during the run.")
  in
  let faults_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "faults" ] ~docv:"SPEC"
          ~doc:
            "Run under a fault plan, e.g. 'drop=0.3,dup=0.1,jitter=0.5' \
             (keys: drop, dup, reorder, jitter, span).  Overrides the \
             script's own 'faults' directive and switches flooding to the \
             reliable (ack + retransmit) mode.")
  in
  let fault_seed_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "fault-seed" ]
          ~doc:"Seed of the fault plan's random stream (default 1).")
  in
  let health_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "health" ] ~docv:"SPEC"
          ~doc:
            "Enable the link-health layer, e.g. \
             'period=0.5r,detector=k:3,damp=on' (keys as in the script \
             'health' directive; pass '' for all defaults).  Overrides the \
             script's own 'health' directive; scripted link events then \
             become ground truth the hello detectors must discover.")
  in
  let run file trace_file trace_cats dot check faults_spec fault_seed
      health_spec =
    match Workload.Script.load file with
    | Error msg ->
      Printf.eprintf "%s: %s\n" file msg;
      exit 2
    | Ok script ->
      let script =
        let faults =
          match faults_spec with
          | None -> script.Workload.Script.faults
          | Some s -> (
            match Faults.Plan.spec_of_string s with
            | Ok spec -> Some spec
            | Error msg ->
              Printf.eprintf "--faults: %s\n" msg;
              exit 2)
        in
        let fault_seed =
          Option.value ~default:script.Workload.Script.fault_seed fault_seed
        in
        { script with Workload.Script.faults; fault_seed }
      in
      let script =
        match health_spec with
        | None -> script
        | Some s -> (
          let args =
            String.split_on_char ',' s
            |> List.concat_map (String.split_on_char ' ')
            |> List.filter (fun t -> t <> "")
          in
          match
            Result.bind
              (Workload.Script.health_of_args ~line:0 args)
              (Workload.Script.with_health script)
          with
          | Ok script -> script
          | Error msg ->
            Printf.eprintf "--health: %s\n" msg;
            exit 2)
      in
      let trace = make_trace trace_file trace_cats in
      let net = Workload.Script.build ~trace script in
      let monitor =
        if check then Some (Check.Monitor.attach ~trace net) else None
      in
      Dgmc.Protocol.run net;
      Option.iter Check.Monitor.check_terminal monitor;
      finish_trace trace trace_file;
      List.iter
        (fun mc ->
          Format.printf "%a: %s@." Dgmc.Mc_id.pp mc
            (match Dgmc.Protocol.divergence net mc with
            | [] -> "converged"
            | reasons -> "DIVERGED: " ^ String.concat "; " reasons);
          match Dgmc.Protocol.agreed_topology net mc with
          | Some tree ->
            Format.printf "  topology: %a@." Mctree.Tree.pp tree;
            if dot then
              print_string
                (Net.Dot.graph
                   ~highlight:(Mctree.Tree.edges tree)
                   ~mark:
                     (Mctree.Tree.Int_set.elements (Mctree.Tree.terminals tree))
                   (Dgmc.Protocol.graph net))
          | None -> Format.printf "  (no agreed topology)@.")
        script.mcs;
      let t = Dgmc.Protocol.totals net in
      Format.printf
        "events %d, computations %d (%d withdrawn), MC floodings %d, link          floodings %d, messages %d@."
        t.events t.computations t.computations_withdrawn t.mc_floodings
        t.link_floodings t.messages;
      (match Dgmc.Protocol.faults net with
      | None -> ()
      | Some plan ->
        let c = Faults.Plan.counters plan in
        Format.printf "reliable flooding: %d acks, %d retransmissions@."
          t.acks t.retransmissions;
        Format.printf
          "faults: %d transmissions, %d delivered, %d dropped, %d duplicated, \
           %d reordered, %d blocked@."
          c.transmissions c.delivered c.dropped c.duplicated c.reordered
          (c.blocked_crash + c.blocked_partition));
      (match Dgmc.Protocol.health_summary net with
      | None -> ()
      | Some h ->
        let p99 =
          match h.Dgmc.Protocol.h_latencies with
          | [] -> 0.0
          | ls ->
            let n = List.length ls in
            let idx =
              min (n - 1)
                (max 0 (int_of_float (ceil (0.99 *. float_of_int n)) - 1))
            in
            List.nth ls idx
        in
        Format.printf
          "health: hellos=%d detections=%d recoveries=%d false-positives=%d \
           flaps=%d suppressed-now=%d@."
          h.h_hellos h.h_detections h.h_recoveries h.h_false_positives
          h.h_flaps h.h_suppressed;
        (* dgmc-analyze: allow float-format — human-readable summary the CI
           gate greps for within-bound, not a schema *)
        Format.printf
          "health: p99-detection=%.6f bound=%.6f within-bound=%b@." p99
          h.h_bound
          (p99 <= h.h_bound);
        if h.h_pacer_emitted + h.h_pacer_coalesced + h.h_pacer_forced > 0 then
          Format.printf
            "health: pacer emitted=%d coalesced=%d forced=%d@."
            h.h_pacer_emitted h.h_pacer_coalesced h.h_pacer_forced);
      (match monitor with
      | Some m ->
        (match Check.Monitor.violations m with
        | [] ->
          Format.printf "invariant monitor: %d sweeps, no violations@."
            (Check.Monitor.sweeps m)
        | vs ->
          Format.printf "invariant monitor: %d violation(s):@."
            (List.length vs);
          List.iter (fun v -> Format.printf "  %s@." v) vs)
      | None -> ());
      if
        List.exists
          (fun mc -> Dgmc.Protocol.divergence net mc <> [])
          script.mcs
        || not (Option.fold ~none:true ~some:Check.Monitor.ok monitor)
      then exit 1
  in
  Cmd.v
    (Cmd.info "script"
       ~doc:"Run a scenario file (see lib/workload/script.mli for the format).")
    Term.(
      const run $ file_arg $ trace_file_arg $ trace_cats_arg $ dot_arg
      $ check_arg $ faults_arg $ fault_seed_arg $ health_arg)

(* ------------------------------------------------------------------ *)
(* topo: inspect generated topologies *)

let topo_cmd =
  let n_arg = Arg.(value & opt int 40 & info [ "n" ] ~doc:"Network size.") in
  let seed_arg = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Random seed.") in
  let dump_arg =
    Arg.(value & flag & info [ "edges" ] ~doc:"Also dump the edge list.")
  in
  let dot_arg =
    Arg.(value & flag & info [ "dot" ] ~doc:"Emit Graphviz DOT instead of stats.")
  in
  let run n seed dump dot =
    let g = Experiments.Harness.graph_for ~seed ~n in
    if dot then print_string (Net.Dot.graph g)
    else begin
      Printf.printf "switches:     %d\n" (Net.Graph.n_nodes g);
      Printf.printf "links:        %d\n" (Net.Graph.n_edges g);
      (* dgmc-analyze: allow float-format — human-readable topology stats *)
      Printf.printf "mean degree:  %.2f\n"
        (2.0 *. float_of_int (Net.Graph.n_edges g) /. float_of_int n);
      Printf.printf "hop diameter: %d\n" (Net.Bfs.hop_diameter g);
      Printf.printf "connected:    %b\n" (Net.Bfs.is_connected g);
      if dump then Format.printf "%a@." Net.Graph.pp g
    end
  in
  Cmd.v
    (Cmd.info "topo" ~doc:"Inspect the experiment topology for a seed/size.")
    Term.(const run $ n_arg $ seed_arg $ dump_arg $ dot_arg)

(* ------------------------------------------------------------------ *)
(* fuzz: the default term, so `dgmc_sim --fuzz --seed N` works without a
   subcommand — that literal spelling is what failure reports print. *)

(* Trace capture re-runs one case with full observability: the seed
   regenerates the identical case, so the captured trace is exactly the
   failing (or passing) run.  Shrinking is skipped — the trace records
   the unshrunk case the repro line names. *)
let fuzz_traced ~seed ~iterations ~n_max ~mcs_max ~events_max ~health
    ~trace_file ~trace_cats =
  if iterations <> 1 then begin
    prerr_endline
      "dgmc_sim --fuzz --trace: tracing captures a single case; pass \
       --iterations 1 (and --seed N for the case to capture).";
    exit 2
  end;
  let trace = make_trace ~cap:200_000 (Some trace_file) trace_cats in
  let case = Check.Fuzz.case_of_seed ~n_max ~mcs_max ~events_max ~health seed in
  let outcome = Check.Fuzz.run_case ~trace case in
  finish_trace trace (Some trace_file);
  match outcome with
  | Ok _ -> Printf.printf "fuzz: seed %d passed (1 case)\n" seed
  | Error problems ->
    Printf.printf "fuzz: seed %d FAILED:\n" seed;
    List.iter (fun p -> Printf.printf "  %s\n" p) problems;
    exit 1

let fuzz_run ~seed ~iterations ~n_max ~mcs_max ~events_max ~health ~domains
    ~verbose =
  let progress s =
    if verbose then
      Format.printf "%a@."
        Check.Fuzz.pp_case
        (Check.Fuzz.case_of_seed ~n_max ~mcs_max ~events_max ~health s)
  in
  let o =
    Check.Fuzz.run ~n_max ~mcs_max ~events_max ~health ~domains ~progress
      ~seed ~iterations ()
  in
  let agg f = List.fold_left (fun a s -> a + f s) 0 o.Check.Fuzz.o_stats in
  Printf.printf "fuzz: %d/%d cases passed (seeds %d..%d)\n"
    (List.length o.o_stats) iterations seed
    (seed + iterations - 1);
  Printf.printf
    "  protocol: %d events, %d computations (%d withdrawn), %d messages, %d \
     acks, %d retransmissions\n"
    (agg (fun s -> s.Check.Fuzz.s_totals.events))
    (agg (fun s -> s.Check.Fuzz.s_totals.computations))
    (agg (fun s -> s.Check.Fuzz.s_totals.computations_withdrawn))
    (agg (fun s -> s.Check.Fuzz.s_totals.messages))
    (agg (fun s -> s.Check.Fuzz.s_totals.acks))
    (agg (fun s -> s.Check.Fuzz.s_totals.retransmissions));
  Printf.printf
    "  faults:   %d transmissions, %d dropped, %d duplicated, %d reordered, \
     %d blocked\n"
    (agg (fun s -> s.Check.Fuzz.s_faults.transmissions))
    (agg (fun s -> s.Check.Fuzz.s_faults.dropped))
    (agg (fun s -> s.Check.Fuzz.s_faults.duplicated))
    (agg (fun s -> s.Check.Fuzz.s_faults.reordered))
    (agg (fun s ->
         s.Check.Fuzz.s_faults.blocked_crash
         + s.Check.Fuzz.s_faults.blocked_partition));
  Printf.printf "  monitor:  %d invariant sweeps\n"
    (agg (fun s -> s.Check.Fuzz.s_sweeps));
  match o.o_failures with
  | [] -> ()
  | failures ->
    List.iter
      (fun f -> Format.printf "%a@." Check.Fuzz.pp_failure f)
      failures;
    exit 1

(* ------------------------------------------------------------------ *)
(* search: guided fault-scenario search (Check.Search), spelled
   `dgmc_sim --search forward|backward` — the spelling repro lines
   print, so it lives on the default term next to --fuzz. *)

let search_usage m =
  prerr_endline ("dgmc_sim --search: " ^ m);
  exit 2

(* An event list in the syntax --race/--setup accept
   (Check.Search.events_of_string), for composing repro lines. *)
let search_event_arg (ev : Check.Harness.event) =
  match ev with
  | Check.Harness.Join { switch; mc; role } ->
    Printf.sprintf "join %d mc=%d role=%s" switch mc.Dgmc.Mc_id.id
      (Dgmc.Member.role_to_string role)
  | Check.Harness.Leave { switch; mc } ->
    Printf.sprintf "leave %d mc=%d" switch mc.Dgmc.Mc_id.id
  | Check.Harness.Link_down (u, v) -> Printf.sprintf "down %d %d" u v
  | Check.Harness.Link_up (u, v) -> Printf.sprintf "up %d %d" u v
  | Check.Harness.Crash i -> Printf.sprintf "crash %d" i
  | Check.Harness.Recover i -> Printf.sprintf "recover %d" i
  | Check.Harness.Hello_round -> "hello"

let search_main ~mode ~graph_spec ~regime ~mcs_spec ~race ~setup ~target_spec
    ~max_states ~max_depth ~max_len ~inject_bug ~domains =
  let graph =
    let toks =
      String.split_on_char ' ' graph_spec |> List.filter (fun s -> s <> "")
    in
    match Workload.Script.graph_of_args ~line:0 toks with
    | Ok g -> g
    | Error m -> search_usage m
  in
  let base =
    match regime with
    | "atm" -> Dgmc.Config.atm_lan
    | "wan" -> Dgmc.Config.wan
    | r -> search_usage (Printf.sprintf "unknown regime %S (atm or wan)" r)
  in
  let config =
    match inject_bug with
    | None -> base
    | Some "stale-senders" ->
      { base with Dgmc.Config.flag_stale_senders = false }
    | Some "asymmetric-tree" ->
      { base with Dgmc.Config.span_secondary_senders = false }
    | Some b ->
      search_usage
        (Printf.sprintf
           "unknown bug %S (stale-senders or asymmetric-tree)" b)
  in
  let mcs =
    String.split_on_char ',' mcs_spec
    |> List.map String.trim
    |> List.filter (fun s -> s <> "")
    |> List.mapi (fun i kind ->
           match kind with
           | "symmetric" -> Dgmc.Mc_id.make Symmetric (i + 1)
           | "receiver-only" -> Dgmc.Mc_id.make Receiver_only (i + 1)
           | "asymmetric" -> Dgmc.Mc_id.make Asymmetric (i + 1)
           | k -> search_usage (Printf.sprintf "unknown MC kind %S" k))
  in
  if mcs = [] then search_usage "--mcs needs at least one MC kind";
  let target =
    match Check.Search.target_of_string target_spec with
    | Ok t -> t
    | Error m -> search_usage m
  in
  let parse_events what s =
    match Check.Search.events_of_string ~mcs s with
    | Ok evs -> evs
    | Error m -> search_usage (what ^ ": " ^ m)
  in
  let setup =
    match setup with None -> [] | Some s -> parse_events "--setup" s
  in
  (* A forward repro of [events] under exactly this configuration. *)
  let repro events =
    String.concat ""
      [
        Printf.sprintf "dgmc_sim --search forward --graph %S --regime %s"
          graph_spec regime;
        (match inject_bug with
        | Some bug -> " --inject-bug " ^ bug
        | None -> "");
        Printf.sprintf " --mcs %s" mcs_spec;
        (match setup with
        | [] -> ""
        | evs ->
          Printf.sprintf " --setup %S"
            (String.concat "; " (List.map search_event_arg evs)));
        Printf.sprintf " --race %S"
          (String.concat "; " (List.map search_event_arg events));
        (match target_spec with
        | "any" -> ""
        | t -> " --target-invariant " ^ t);
      ]
  in
  match mode with
  | "forward" ->
    let race =
      match race with
      | None -> search_usage "forward search needs --race \"<events>\""
      | Some s -> parse_events "--race" s
    in
    let scenario = { Check.Explore.graph; config; setup; race } in
    let o =
      Check.Search.forward ~target ~max_states ~max_depth ~domains scenario
    in
    Format.printf "%a@." Check.Search.pp_forward o;
    (match o.f_found with
    | None -> ()
    | Some _ ->
      Printf.printf "reproduce: %s\n" (repro race);
      exit 1)
  | "backward" ->
    let o =
      Check.Search.backward ~target ~max_len ~per_candidate_states:max_states
        ~domains ~graph ~config ~setup ~mcs ()
    in
    Format.printf "%a@." Check.Search.pp_backward o;
    (match o.b_found with
    | Some (events, _) -> Printf.printf "reproduce: %s\n" (repro events)
    | None ->
      Printf.printf
        "no fault sequence up to length %d reproduces the target\n" max_len;
      exit 1)
  | m -> search_usage (Printf.sprintf "unknown mode %S (forward or backward)" m)

let default_term =
  let fuzz_arg =
    Arg.(
      value & flag
      & info [ "fuzz" ]
          ~doc:
            "Run the deterministic protocol fuzzer: random topologies, \
             workloads and fault plans from $(b,--seed), full protocol + \
             invariant monitor per case, shrinking and a replayable repro \
             line on failure.")
  in
  let seed_arg =
    Arg.(
      value & opt int 1
      & info [ "seed" ] ~doc:"Base seed; iteration $(i,i) fuzzes seed + i.")
  in
  let iterations_arg =
    Arg.(value & opt int 25 & info [ "iterations" ] ~doc:"Fuzz cases to run.")
  in
  let n_max_arg =
    Arg.(
      value & opt int 20
      & info [ "n-max" ] ~doc:"Upper bound on switches per case (min 4).")
  in
  let mcs_max_arg =
    Arg.(
      value & opt int 3 & info [ "mcs-max" ] ~doc:"Upper bound on MCs per case.")
  in
  let events_max_arg =
    Arg.(
      value & opt int 20
      & info [ "events-max" ] ~doc:"Upper bound on workload events per case.")
  in
  let domains_arg =
    Arg.(
      value & opt int 1
      & info [ "domains" ]
          ~doc:
            "Run fuzz cases on this many OCaml domains (Runner.Pool).  \
             Each case is a pure function of its seed, so the outcome — \
             pass/fail counts, counters, shrunk workloads, repro lines — \
             is byte-identical for any value.")
  in
  let verbose_arg =
    Arg.(
      value & flag
      & info [ "verbose" ] ~doc:"Print each generated case before running it.")
  in
  let health_band_arg =
    Arg.(
      value & flag
      & info [ "health-band" ]
          ~doc:
            "Fuzz with the opt-in link-health layer enabled (default \
             hello/detector parameters): detectors must discover every \
             scripted link change.  Same seed, same topology and \
             workload as the default band; message drops and \
             crash/partition windows are stripped so the terminal \
             ground-truth oracle stays sound.")
  in
  let search_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "search" ]
          ~doc:
            "Guided fault-scenario search.  $(b,forward): best-first from \
             $(b,--race) toward a $(b,--target-invariant) violation.  \
             $(b,backward): find a minimal fault sequence reproducing the \
             target, emitting a replayable repro line.  Byte-identical at \
             any $(b,--domains).")
  in
  let graph_arg =
    Arg.(
      value & opt string "ring 4"
      & info [ "graph" ]
          ~doc:
            "Topology for --search, in script-directive syntax (e.g. \
             $(b,\"ring 6\"), $(b,\"grid 3 3\"), $(b,\"waxman 12 seed=5\")).")
  in
  let regime_arg =
    Arg.(
      value & opt string "atm"
      & info [ "regime" ] ~doc:"Parameter regime for --search: atm or wan.")
  in
  let search_mcs_arg =
    Arg.(
      value & opt string "symmetric"
      & info [ "mcs" ]
          ~doc:
            "Comma-separated MC kinds for --search (symmetric, \
             receiver-only, asymmetric); kind $(i,i) gets id $(i,i+1).")
  in
  let race_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "race" ]
          ~doc:
            "Concurrent events for --search forward, e.g. $(b,\"join 0 \
             mc=1; join 2 mc=1\") (verbs: join, leave, down, up, crash, \
             recover).")
  in
  let setup_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "setup" ]
          ~doc:"Events injected and settled before the race (same syntax).")
  in
  let target_arg =
    Arg.(
      value & opt string "any"
      & info [ "target-invariant" ]
          ~doc:
            "Invariant to hunt: a law-name prefix, optionally \
             $(b,law\\@kind) (e.g. $(b,agreement), \
             $(b,terminals-match\\@asymmetric)); $(b,any) matches all.")
  in
  let max_states_arg =
    Arg.(
      value & opt int 50_000
      & info [ "max-states" ]
          ~doc:
            "State bound per forward search (per candidate in backward \
             mode).")
  in
  let max_depth_arg =
    Arg.(
      value & opt int 10_000
      & info [ "max-depth" ] ~doc:"Depth bound for forward search.")
  in
  let max_len_arg =
    Arg.(
      value & opt int 4
      & info [ "max-len" ]
          ~doc:"Longest fault sequence backward search considers.")
  in
  let inject_bug_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "inject-bug" ]
          ~doc:
            "Re-inject a historical bug for --search to rediscover: \
             $(b,stale-senders) (no recompute flag on stale senders) or \
             $(b,asymmetric-tree) (secondary senders left off the span).")
  in
  let run fuzz search seed iterations n_max mcs_max events_max domains verbose
      health_band graph_spec regime mcs_spec race setup target_spec max_states
      max_depth max_len inject_bug trace_file trace_cats =
    match search with
    | Some mode ->
      search_main ~mode ~graph_spec ~regime ~mcs_spec ~race ~setup
        ~target_spec ~max_states ~max_depth ~max_len ~inject_bug ~domains;
      `Ok ()
    | None ->
      if not fuzz then `Help (`Pager, None)
      else begin
        (match trace_file with
        | Some trace_file ->
          fuzz_traced ~seed ~iterations ~n_max ~mcs_max ~events_max
            ~health:health_band ~trace_file ~trace_cats
        | None ->
          fuzz_run ~seed ~iterations ~n_max ~mcs_max ~events_max
            ~health:health_band ~domains ~verbose);
        `Ok ()
      end
  in
  Term.(
    ret
      (const run $ fuzz_arg $ search_arg $ seed_arg $ iterations_arg
     $ n_max_arg $ mcs_max_arg $ events_max_arg $ domains_arg $ verbose_arg
     $ health_band_arg $ graph_arg $ regime_arg $ search_mcs_arg $ race_arg $ setup_arg
     $ target_arg $ max_states_arg $ max_depth_arg $ max_len_arg
     $ inject_bug_arg $ trace_file_arg $ trace_cats_arg))

let () =
  let doc = "D-GMC multipoint-connection protocol simulation study" in
  let info = Cmd.info "dgmc_sim" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group ~default:default_term info
          [
            fig6_cmd; fig7_cmd; fig8_cmd; compare_cmd; cbt_cmd; hierarchy_cmd;
            run_cmd; script_cmd; topo_cmd;
          ]))
