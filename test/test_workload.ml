(* Tests for the workload generators (lib/workload). *)

let check = Alcotest.check

let mc_sym = Dgmc.Mc_id.make Dgmc.Mc_id.Symmetric 1

let mc_recv = Dgmc.Mc_id.make Dgmc.Mc_id.Receiver_only 2

let mc_asym = Dgmc.Mc_id.make Dgmc.Mc_id.Asymmetric 3

let joined_switches events =
  List.filter_map
    (fun (e : Workload.Events.t) ->
      match e.action with
      | Workload.Events.Join { switch; _ } -> Some switch
      | _ -> None)
    events

(* ------------------------------------------------------------------ *)
(* Events utilities *)

let test_events_sort_stable () =
  let mk time tag =
    {
      Workload.Events.time;
      action = Workload.Events.Join { switch = tag; mc = mc_sym; role = Dgmc.Member.Both };
    }
  in
  let sorted = Workload.Events.sort [ mk 2.0 0; mk 1.0 1; mk 2.0 2 ] in
  check Alcotest.(list int) "stable time sort" [ 1; 0; 2 ] (joined_switches sorted)

let test_events_counts_and_span () =
  let events =
    [
      { Workload.Events.time = 1.0; action = Workload.Events.Link_down (0, 1) };
      {
        Workload.Events.time = 3.0;
        action = Workload.Events.Join { switch = 2; mc = mc_sym; role = Dgmc.Member.Both };
      };
      { Workload.Events.time = 6.0; action = Workload.Events.Leave { switch = 2; mc = mc_sym } };
    ]
  in
  check Alcotest.int "count" 3 (Workload.Events.count events);
  check Alcotest.int "membership count" 2 (Workload.Events.membership_count events);
  check Alcotest.(float 1e-9) "span" 5.0 (Workload.Events.span events)

let test_events_mcs () =
  let events =
    [
      {
        Workload.Events.time = 0.0;
        action = Workload.Events.Join { switch = 0; mc = mc_sym; role = Dgmc.Member.Both };
      };
      {
        Workload.Events.time = 0.0;
        action = Workload.Events.Join { switch = 1; mc = mc_recv; role = Dgmc.Member.Receiver };
      };
      { Workload.Events.time = 1.0; action = Workload.Events.Leave { switch = 0; mc = mc_sym } };
    ]
  in
  check Alcotest.int "distinct mcs" 2 (List.length (Workload.Events.mcs events))

let test_events_apply_dgmc () =
  let graph = Net.Topo_gen.grid ~rows:3 ~cols:3 () in
  let net = Dgmc.Protocol.create ~graph ~config:Dgmc.Config.atm_lan () in
  let events =
    [
      {
        Workload.Events.time = 0.0;
        action = Workload.Events.Join { switch = 0; mc = mc_sym; role = Dgmc.Member.Both };
      };
      {
        Workload.Events.time = 1.0;
        action = Workload.Events.Join { switch = 8; mc = mc_sym; role = Dgmc.Member.Both };
      };
    ]
  in
  Workload.Events.apply_dgmc net events;
  Dgmc.Protocol.run net;
  check Alcotest.bool "scenario converges" true (Dgmc.Protocol.converged net mc_sym);
  let m = Option.get (Dgmc.Switch.members (Dgmc.Protocol.switch net 4) mc_sym) in
  check Alcotest.(list int) "both joined" [ 0; 8 ] (Dgmc.Member.ids m)

(* ------------------------------------------------------------------ *)
(* Bursty *)

let test_bursty_joins_shape () =
  let rng = Sim.Rng.create 1 in
  let events = Workload.Bursty.joins rng ~n:30 ~mc:mc_sym ~members:10 ~window:5.0 () in
  check Alcotest.int "event count" 10 (List.length events);
  let switches = joined_switches events in
  check Alcotest.int "distinct switches" 10
    (List.length (List.sort_uniq compare switches));
  List.iter
    (fun (e : Workload.Events.t) ->
      if e.time < 0.0 || e.time >= 5.0 then Alcotest.failf "outside window: %f" e.time)
    events;
  (* Sorted by time. *)
  let times = List.map (fun (e : Workload.Events.t) -> e.time) events in
  check Alcotest.bool "sorted" true (List.sort compare times = times)

let test_bursty_roles_by_kind () =
  let roles mc =
    let rng = Sim.Rng.create 2 in
    Workload.Bursty.joins rng ~n:20 ~mc ~members:5 ~window:1.0 ()
    |> List.filter_map (fun (e : Workload.Events.t) ->
           match e.action with
           | Workload.Events.Join { role; _ } -> Some role
           | _ -> None)
  in
  check Alcotest.bool "symmetric all Both" true
    (List.for_all (fun r -> r = Dgmc.Member.Both) (roles mc_sym));
  check Alcotest.bool "receiver-only all Receiver" true
    (List.for_all (fun r -> r = Dgmc.Member.Receiver) (roles mc_recv));
  let asym = roles mc_asym in
  check Alcotest.int "asymmetric has one sender" 1
    (List.length (List.filter (fun r -> r = Dgmc.Member.Sender) asym))

let test_bursty_custom_role () =
  let rng = Sim.Rng.create 3 in
  let events =
    Workload.Bursty.joins rng ~n:10 ~mc:mc_sym ~members:3 ~window:1.0
      ~role:(fun _ -> Dgmc.Member.Sender)
      ()
  in
  List.iter
    (fun (e : Workload.Events.t) ->
      match e.action with
      | Workload.Events.Join { role; _ } ->
        check Alcotest.bool "custom role" true (role = Dgmc.Member.Sender)
      | _ -> ())
    events

let test_bursty_start_offset () =
  let rng = Sim.Rng.create 4 in
  let events =
    Workload.Bursty.joins rng ~n:10 ~mc:mc_sym ~members:3 ~window:1.0 ~start:100.0 ()
  in
  List.iter
    (fun (e : Workload.Events.t) ->
      if e.time < 100.0 || e.time >= 101.0 then Alcotest.failf "bad time %f" e.time)
    events

let test_bursty_validation () =
  let rng = Sim.Rng.create 5 in
  Alcotest.check_raises "too many members"
    (Invalid_argument "Bursty.joins: bad member count") (fun () ->
      ignore (Workload.Bursty.joins rng ~n:5 ~mc:mc_sym ~members:6 ~window:1.0 ()))

let test_bursty_churn () =
  let rng = Sim.Rng.create 6 in
  let current = [ 0; 1; 2; 3 ] in
  let events =
    Workload.Bursty.churn rng ~current ~n:20 ~mc:mc_sym ~joins:3 ~leaves:2
      ~window:1.0 ()
  in
  check Alcotest.int "total events" 5 (List.length events);
  let leavers =
    List.filter_map
      (fun (e : Workload.Events.t) ->
        match e.action with
        | Workload.Events.Leave { switch; _ } -> Some switch
        | _ -> None)
      events
  in
  check Alcotest.int "leaves" 2 (List.length leavers);
  List.iter
    (fun l -> check Alcotest.bool "leaver was a member" true (List.mem l current))
    leavers;
  let joiners = joined_switches events in
  check Alcotest.int "joins" 3 (List.length joiners);
  List.iter
    (fun j ->
      check Alcotest.bool "joiner was not a member" true (not (List.mem j current)))
    joiners

let test_bursty_churn_validation () =
  let rng = Sim.Rng.create 7 in
  Alcotest.check_raises "too many leaves"
    (Invalid_argument "Bursty.churn: more leaves than members") (fun () ->
      ignore
        (Workload.Bursty.churn rng ~current:[ 0 ] ~n:5 ~mc:mc_sym ~joins:0
           ~leaves:2 ~window:1.0 ()))

(* ------------------------------------------------------------------ *)
(* Poisson *)

let test_poisson_count_and_order () =
  let rng = Sim.Rng.create 8 in
  let events =
    Workload.Poisson.membership rng ~n:20 ~mc:mc_sym ~events:30 ~mean_gap:5.0 ()
  in
  check Alcotest.int "requested count" 30 (List.length events);
  let times = List.map (fun (e : Workload.Events.t) -> e.time) events in
  check Alcotest.bool "monotone times" true (List.sort compare times = times)

let test_poisson_membership_never_dies () =
  let rng = Sim.Rng.create 9 in
  let events =
    Workload.Poisson.membership rng ~n:10 ~mc:mc_sym ~events:200 ~mean_gap:1.0 ()
  in
  (* Replay: the member set must never become empty after the first join. *)
  let members = ref [] in
  let died = ref false in
  List.iter
    (fun (e : Workload.Events.t) ->
      (match e.action with
      | Workload.Events.Join { switch; _ } ->
        members := List.sort_uniq compare (switch :: !members)
      | Workload.Events.Leave { switch; _ } ->
        members := List.filter (fun x -> x <> switch) !members
      | _ -> ());
      if !members = [] then died := true)
    events;
  check Alcotest.bool "never empty" false !died

let test_poisson_leaves_only_members () =
  let rng = Sim.Rng.create 10 in
  let events =
    Workload.Poisson.membership rng ~n:8 ~mc:mc_sym ~events:100 ~mean_gap:1.0 ()
  in
  let members = ref [] in
  List.iter
    (fun (e : Workload.Events.t) ->
      match e.action with
      | Workload.Events.Join { switch; _ } ->
        if List.mem switch !members then Alcotest.fail "double join";
        members := switch :: !members
      | Workload.Events.Leave { switch; _ } ->
        if not (List.mem switch !members) then Alcotest.fail "phantom leave";
        members := List.filter (fun x -> x <> switch) !members
      | _ -> ())
    events

let test_poisson_initial_seeds () =
  let rng = Sim.Rng.create 11 in
  let events =
    Workload.Poisson.membership rng ~n:10 ~mc:mc_sym ~events:5 ~mean_gap:1.0
      ~initial:[ 2; 5 ] ~start:7.0 ()
  in
  (* Two seed joins at exactly t = 7. *)
  let seeds = List.filter (fun (e : Workload.Events.t) -> e.time = 7.0) events in
  check Alcotest.int "seed events" 2 (List.length seeds);
  check Alcotest.int "total" 7 (List.length events)

let test_poisson_gap_scale () =
  let rng = Sim.Rng.create 12 in
  let events =
    Workload.Poisson.membership rng ~n:20 ~mc:mc_sym ~events:300 ~mean_gap:10.0 ()
  in
  let span = Workload.Events.span events in
  let mean_gap = span /. 299.0 in
  if mean_gap < 7.0 || mean_gap > 13.0 then
    Alcotest.failf "mean gap off: %f" mean_gap

(* ------------------------------------------------------------------ *)
(* Session *)

let test_session_phases () =
  let rng = Sim.Rng.create 13 in
  let phases =
    Workload.Session.lifecycle rng ~n:30 ~mc:mc_sym ~participants:8
      ~arrival_window:1.0 ~churn_events:10 ~churn_mean_gap:2.0
      ~departure_window:1.0 ()
  in
  check Alcotest.int "arrivals" 8 (List.length phases.arrivals);
  check Alcotest.int "churn" 10 (List.length phases.churn);
  (* Departures drain exactly the members alive after churn. *)
  let alive = Workload.Session.members_after (phases.arrivals @ phases.churn) in
  check Alcotest.int "departures = survivors" (List.length alive)
    (List.length phases.departures);
  (* Whole lifecycle ends with nobody. *)
  check Alcotest.(list int) "empty at the end" []
    (Workload.Session.members_after (Workload.Session.all phases))

let test_session_phase_ordering () =
  let rng = Sim.Rng.create 14 in
  let phases =
    Workload.Session.lifecycle rng ~n:30 ~mc:mc_sym ~participants:5
      ~arrival_window:1.0 ~churn_events:5 ~churn_mean_gap:2.0
      ~departure_window:1.0 ()
  in
  let max_time es =
    List.fold_left (fun a (e : Workload.Events.t) -> Float.max a e.time) 0.0 es
  in
  let min_time es =
    List.fold_left (fun a (e : Workload.Events.t) -> Float.min a e.time) infinity es
  in
  check Alcotest.bool "arrivals before churn" true
    (max_time phases.arrivals <= min_time phases.churn);
  check Alcotest.bool "churn before departures" true
    (max_time phases.churn <= min_time phases.departures)

let test_session_members_after () =
  let mk time action = { Workload.Events.time; action } in
  let events =
    [
      mk 0.0 (Workload.Events.Join { switch = 1; mc = mc_sym; role = Dgmc.Member.Both });
      mk 1.0 (Workload.Events.Join { switch = 2; mc = mc_sym; role = Dgmc.Member.Both });
      mk 2.0 (Workload.Events.Leave { switch = 1; mc = mc_sym });
    ]
  in
  check Alcotest.(list int) "replay" [ 2 ] (Workload.Session.members_after events)

let test_session_runs_to_convergence () =
  let graph = Experiments.Harness.graph_for ~seed:3 ~n:25 in
  let net = Dgmc.Protocol.create ~graph ~config:Dgmc.Config.atm_lan () in
  let rng = Sim.Rng.create 15 in
  let round = Dgmc.Config.round_length Dgmc.Config.atm_lan ~graph in
  let phases =
    Workload.Session.lifecycle rng ~n:25 ~mc:mc_sym ~participants:6
      ~arrival_window:round ~churn_events:8 ~churn_mean_gap:(10.0 *. round)
      ~departure_window:round ()
  in
  Workload.Events.apply_dgmc net (Workload.Session.all phases);
  Dgmc.Protocol.run net;
  check Alcotest.bool "full lifecycle converges" true
    (Dgmc.Protocol.converged net mc_sym)

(* ------------------------------------------------------------------ *)
(* Scenario scripts *)

let sample_script = {|
# demo
graph ring 6
config wan
mc 1 symmetric
mc 2 receiver-only

at 0    join 0 mc=1
at 0.5r join 3 mc=1
at 1r   join 2 mc=2
at 2r   linkdown 0 1
at 3r   leave 0 mc=1
|}

let test_script_parses () =
  match Workload.Script.parse sample_script with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok s ->
    check Alcotest.int "graph size" 6 (Net.Graph.n_nodes s.graph);
    check Alcotest.bool "wan config" true
      (s.config.Dgmc.Config.t_hop = Dgmc.Config.wan.Dgmc.Config.t_hop);
    check Alcotest.int "two mcs" 2 (List.length s.mcs);
    check Alcotest.int "five events" 5 (List.length s.events);
    (* Round-suffixed times scale with the round length. *)
    let round = Dgmc.Config.round_length s.config ~graph:s.graph in
    let times = List.map (fun (e : Workload.Events.t) -> e.time) s.events in
    check Alcotest.bool "round times resolved" true
      (List.mem (0.5 *. round) times && List.mem (3.0 *. round) times)

let test_script_runs_to_convergence () =
  match Workload.Script.parse sample_script with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok s ->
    let net = Workload.Script.run s in
    List.iter
      (fun mc ->
        if Dgmc.Protocol.divergence net mc <> [] then
          Alcotest.failf "script scenario diverged for %s"
            (Format.asprintf "%a" Dgmc.Mc_id.pp mc))
      s.mcs

let test_script_roles () =
  let text = {|
graph line 4
mc 1 asymmetric
at 0 join 0 mc=1 role=sender
at 0 join 3 mc=1
|} in
  match Workload.Script.parse text with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok s ->
    let roles =
      List.filter_map
        (fun (e : Workload.Events.t) ->
          match e.action with
          | Workload.Events.Join { role; _ } -> Some role
          | _ -> None)
        s.events
    in
    check Alcotest.bool "explicit sender honoured" true
      (List.mem Dgmc.Member.Sender roles);
    check Alcotest.bool "asymmetric default is receiver" true
      (List.mem Dgmc.Member.Receiver roles)

let test_script_errors () =
  let expect_error text fragment =
    match Workload.Script.parse text with
    | Ok _ -> Alcotest.failf "expected a parse error mentioning %S" fragment
    | Error msg ->
      let contains =
        let nh = String.length msg and nn = String.length fragment in
        let rec go i = i + nn <= nh && (String.sub msg i nn = fragment || go (i + 1)) in
        nn = 0 || go 0
      in
      if not contains then Alcotest.failf "error %S does not mention %S" msg fragment
  in
  expect_error "mc 1 symmetric\nat 0 join 1 mc=1" "missing 'graph'";
  expect_error "graph ring 6\nat 0 join 1 mc=9" "not declared";
  expect_error "graph ring 6\nmc 1 symmetric\nat 0 join 99 mc=1" "out of range";
  expect_error "graph ring 6\nmc 1 symmetric\nat 0 linkdown 0 3" "no link";
  expect_error "graph ring 6\nmc 1 symmetric\nat 0 linkdown 0 7" "no link";
  expect_error "graph ring 2" "line 1: Topo_gen.ring: need at least 3 nodes";
  expect_error "graph ring 6\nmc 1 symmetric\nat -1 join 0 mc=1" "non-negative";
  expect_error "graph ring 6\nfrobnicate" "unknown directive";
  expect_error "graph ring 6\nmc 1 teapot" "unknown MC type";
  (* Malformed key=value payloads and stray tokens. *)
  expect_error "graph ring 6\nmc 1 symmetric\nat 0 join 0 mc=banana"
    "expected an integer";
  expect_error "graph ring 6\nmc 1 symmetric\nat 0 join 0" "mc=";
  expect_error "graph ring 6\nmc 1 symmetric\nat 0 join 0 role=captain mc=1"
    "unknown role";
  expect_error "graph ring 6\nmc 1 symmetric\nat 0 join 0 mc=1 banana"
    "unexpected";
  expect_error "graph ring 6\nmc 1 symmetric\nat 0 linkdown 0" "linkdown";
  expect_error "graph ring 6\nmc 1 symmetric\nat 0 linkdown 0"
    "expected two switch ids";
  expect_error "graph ring 6\nmc 1 symmetric\nat zero join 0 mc=1" "time";
  (* Every diagnostic carries the offending line number. *)
  expect_error "graph ring 6\nmc 1 symmetric\nat 0 join 99 mc=1" "line 3:";
  expect_error "graph ring 6\nfrobnicate" "line 2:";
  expect_error "graph ring 6\nmc 1 symmetric\nat 0 join 0 mc=1\nat 1 linkdown 0 3"
    "line 4:";
  (* A health directive that resolves to an invalid configuration is a
     parse error, not an exception when the protocol is built. *)
  let with_health h =
    String.concat "\n" [ "graph line 3"; "mc 1 symmetric"; "at 0 join 0 mc=1"; h ]
  in
  expect_error
    (with_health "health damp-suppress=0.1 damp-reuse=0.5")
    "line 4: health damping suppress threshold";
  expect_error (with_health "health period=0") "line 4: health hello period"

let test_script_health_directive () =
  let text =
    {|
graph grid 3 3
mc 1 symmetric
health period=0.5r detector=phi:8:4 reup=3 damp-penalty=1 damp-suppress=2 damp-reuse=0.5 pace=1r pace-cap=4
at 0 join 0 mc=1
at 0 join 8 mc=1
at 2r linkdown 4 5
at 5r linkup 4 5
|}
  in
  match Workload.Script.parse text with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok s -> (
    match s.health with
    | None -> Alcotest.fail "health directive not picked up"
    | Some hc ->
      let round = Dgmc.Config.round_length s.config ~graph:s.graph in
      check (Alcotest.float 1e-9) "period resolved in rounds" (0.5 *. round)
        hc.Health.Config.period;
      (match hc.Health.Config.detector with
      | Health.Detector.Phi { window = 8; threshold } ->
        check (Alcotest.float 1e-9) "phi threshold" 4.0 threshold
      | _ -> Alcotest.fail "detector spec not honoured");
      check Alcotest.int "reup" 3 hc.Health.Config.reup;
      (match hc.Health.Config.damping with
      | Some d ->
        check (Alcotest.float 1e-9) "suppress" 2.0 d.Health.Config.d_suppress
      | None -> Alcotest.fail "damp-* keys must enable damping");
      (match hc.Health.Config.pacing with
      | Some p ->
        check (Alcotest.float 1e-9) "pace interval" round
          p.Health.Config.p_min_interval;
        check Alcotest.int "pace cap" 4 p.Health.Config.p_cap
      | None -> Alcotest.fail "pace= must enable pacing");
      check Alcotest.bool "derived horizon past the last event" true
        (hc.Health.Config.horizon > 5.0 *. round);
      (* The layer is actually engaged and the run converges. *)
      let net = Workload.Script.run s in
      (match Dgmc.Protocol.health_summary net with
      | None -> Alcotest.fail "built protocol has no health layer"
      | Some h ->
        check Alcotest.int "no false positive" 0
          h.Dgmc.Protocol.h_false_positives;
        check Alcotest.bool "failure detected" true
          (h.Dgmc.Protocol.h_detections > 0));
      List.iter
        (fun mc ->
          if Dgmc.Protocol.divergence net mc <> [] then
            Alcotest.failf "health scenario diverged for %s"
              (Format.asprintf "%a" Dgmc.Mc_id.pp mc))
        s.mcs)

(* The acceptance gate the CI health job scripts: the two churny shipped
   scenarios still converge when the harness withholds scripted link
   notifications and the detectors must discover everything — under the
   runtime invariant monitor, with zero false positives and every
   detection inside the configured bound. *)
let test_shipped_scenarios_with_detectors () =
  let scenario_dir =
    List.find Sys.file_exists [ "../scenarios"; "scenarios" ]
  in
  List.iter
    (fun file ->
      let path = Filename.concat scenario_dir file in
      match Workload.Script.load path with
      | Error e -> Alcotest.failf "%s: %s" file e
      | Ok s ->
        let d =
          match
            Workload.Script.health_of_args ~line:0
              [ "period=0.5r"; "detector=k:3" ]
          with
          | Ok d -> d
          | Error e -> Alcotest.failf "health args: %s" e
        in
        let hc =
          Workload.Script.health_config ~graph:s.graph ~config:s.config
            ~last_event:(Workload.Script.last_event_time s.events)
            d
        in
        let s = { s with Workload.Script.health = Some hc } in
        let net = Workload.Script.build s in
        let monitor = Check.Monitor.attach net in
        Dgmc.Protocol.run net;
        Check.Monitor.check_terminal monitor;
        (match Check.Monitor.violations monitor with
        | [] -> ()
        | vs ->
          Alcotest.failf "%s: monitor violations under detectors:\n%s" file
            (String.concat "\n" vs));
        (match Dgmc.Protocol.health_summary net with
        | None -> Alcotest.failf "%s: health layer not engaged" file
        | Some h ->
          check Alcotest.int
            (file ^ ": zero false positives")
            0 h.Dgmc.Protocol.h_false_positives;
          List.iter
            (fun l ->
              check Alcotest.bool
                (file ^ ": detection within bound")
                true
                (l <= h.Dgmc.Protocol.h_bound))
            h.Dgmc.Protocol.h_latencies);
        List.iter
          (fun mc ->
            if Dgmc.Protocol.divergence net mc <> [] then
              Alcotest.failf "%s: diverged for %s under detectors" file
                (Format.asprintf "%a" Dgmc.Mc_id.pp mc))
          s.mcs)
    [ "failure_recovery.dgmc"; "churn_storm.dgmc" ]

let () =
  Alcotest.run "workload"
    [
      ( "events",
        [
          Alcotest.test_case "stable sort" `Quick test_events_sort_stable;
          Alcotest.test_case "counts and span" `Quick test_events_counts_and_span;
          Alcotest.test_case "mcs listing" `Quick test_events_mcs;
          Alcotest.test_case "apply to dgmc" `Quick test_events_apply_dgmc;
        ] );
      ( "bursty",
        [
          Alcotest.test_case "join burst shape" `Quick test_bursty_joins_shape;
          Alcotest.test_case "roles by MC kind" `Quick test_bursty_roles_by_kind;
          Alcotest.test_case "custom roles" `Quick test_bursty_custom_role;
          Alcotest.test_case "start offset" `Quick test_bursty_start_offset;
          Alcotest.test_case "validation" `Quick test_bursty_validation;
          Alcotest.test_case "churn" `Quick test_bursty_churn;
          Alcotest.test_case "churn validation" `Quick test_bursty_churn_validation;
        ] );
      ( "poisson",
        [
          Alcotest.test_case "count and order" `Quick test_poisson_count_and_order;
          Alcotest.test_case "membership never dies" `Quick
            test_poisson_membership_never_dies;
          Alcotest.test_case "leaves only members" `Quick
            test_poisson_leaves_only_members;
          Alcotest.test_case "initial seeds" `Quick test_poisson_initial_seeds;
          Alcotest.test_case "gap scale" `Quick test_poisson_gap_scale;
        ] );
      ( "session",
        [
          Alcotest.test_case "phases" `Quick test_session_phases;
          Alcotest.test_case "phase ordering" `Quick test_session_phase_ordering;
          Alcotest.test_case "members_after" `Quick test_session_members_after;
          Alcotest.test_case "lifecycle converges" `Quick
            test_session_runs_to_convergence;
        ] );
      ( "script",
        [
          Alcotest.test_case "parses" `Quick test_script_parses;
          Alcotest.test_case "runs to convergence" `Quick
            test_script_runs_to_convergence;
          Alcotest.test_case "roles" `Quick test_script_roles;
          Alcotest.test_case "errors" `Quick test_script_errors;
          Alcotest.test_case "health directive" `Quick
            test_script_health_directive;
          Alcotest.test_case "shipped scenarios under detectors" `Quick
            test_shipped_scenarios_with_detectors;
        ] );
    ]
