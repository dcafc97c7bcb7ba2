(* The D-GMC checker suite: model checker, runtime monitor, linter.

   The exploration tests are the heart: they drive real Switch.t
   instances through EVERY causally-possible LSA delivery order of a
   race and check the invariant catalogue at each state — a much
   stronger guarantee than the single schedule a simulation run picks.
   The broken-variant test proves the checker has teeth: disabling
   stale-proposal withdrawal (the paper's central mechanism) must
   produce a counterexample. *)

let mc1 = Dgmc.Mc_id.make Symmetric 1

let join switch = Check.Harness.Join { switch; mc = mc1; role = Dgmc.Member.Both }

let base_scenario ?(config = Dgmc.Config.atm_lan) ~setup ~race () =
  { Check.Explore.graph = Net.Topo_gen.ring 4; config; setup; race }

(* --- exhaustive exploration of the correct protocol --- *)

let test_two_concurrent_joins () =
  let scenario = base_scenario ~setup:[] ~race:[ join 0; join 2 ] () in
  let o = Check.Explore.run scenario in
  Format.printf "two-joins: %a@." Check.Explore.pp_outcome o;
  (match o.violation with
  | Some v ->
    Alcotest.failf "unexpected violation: %s\ntrace:\n%s" v.message
      (String.concat "\n" v.trace)
  | None -> ());
  Alcotest.(check bool) "exploration complete" true o.complete;
  Alcotest.(check bool) "reached terminal states" true (o.terminals > 0);
  Alcotest.(check bool) "exploration covers many interleavings" true
    (o.states > 10)

let test_join_vs_link_failure () =
  (* Settle two members first, find a link their agreed tree uses, then
     race a third join against that link's failure. *)
  let graph = Net.Topo_gen.ring 4 in
  let probe =
    Check.Harness.create ~graph ~config:Dgmc.Config.atm_lan ()
  in
  Check.Harness.inject probe (join 0);
  Check.Harness.inject probe (join 2);
  Check.Harness.settle probe;
  let tree =
    match Dgmc.Switch.topology (Check.Harness.switches probe).(0) mc1 with
    | Some t -> t
    | None -> Alcotest.fail "no settled topology to fail a link of"
  in
  let u, v =
    match Mctree.Tree.edges tree with
    | e :: _ -> e
    | [] -> Alcotest.fail "settled topology has no edges"
  in
  let scenario =
    base_scenario
      ~setup:[ join 0; join 2 ]
      ~race:[ join 1; Check.Harness.Link_down (u, v) ]
      ()
  in
  let o = Check.Explore.run scenario in
  Format.printf "join-vs-linkdown (%d,%d): %a@." u v Check.Explore.pp_outcome o;
  (match o.violation with
  | Some v ->
    Alcotest.failf "unexpected violation: %s\ntrace:\n%s" v.message
      (String.concat "\n" v.trace)
  | None -> ());
  Alcotest.(check bool) "exploration complete" true o.complete;
  Alcotest.(check bool) "reached terminal states" true (o.terminals > 0)

(* --- the checker catches a broken protocol variant --- *)

let test_broken_variant_caught () =
  (* Disable Figure 5's flag-on-stale-stamp step: when concurrent events
     collide, no switch any longer realises its proposal was computed in
     ignorance, so the network settles into permanent disagreement. *)
  let config = { Dgmc.Config.atm_lan with flag_stale_senders = false } in
  let o =
    Check.Explore.run (base_scenario ~config ~setup:[] ~race:[ join 0; join 2 ] ())
  in
  match o.violation with
  | None ->
    Alcotest.fail
      "disabling the stale-sender recompute flag was not caught by the checker"
  | Some v ->
    (* The acceptance criterion: a minimal counterexample, printed. *)
    Format.printf
      "broken variant caught (no recompute flag on stale senders):@.%s@.\
       minimal trace (%d steps):@."
      v.message (List.length v.trace);
    List.iteri (fun i d -> Format.printf "  %2d. %s@." (i + 1) d) v.trace;
    Alcotest.(check bool) "counterexample has a trace" true (v.trace <> [])

let test_no_withdrawal_self_heals () =
  (* The other fault knob: skipping Figure 4's stale-proposal withdrawal
     floods proposals whose basis is already outdated.  The exhaustive
     search proves this implementation ABSORBS that fault on this
     configuration: acceptance is gated on [stamp >= E], so a stale
     proposal is rejected wherever it could mislead, and its stale stamp
     arms the receiver's recompute flag.  A genuinely useful
     model-checking result — and the reason the checker must also carry
     a variant it does catch (above). *)
  let config =
    { Dgmc.Config.atm_lan with withdraw_stale_proposals = false }
  in
  let o =
    Check.Explore.run (base_scenario ~config ~setup:[] ~race:[ join 0; join 2 ] ())
  in
  Format.printf "no-withdrawal (2 joins): %a@." Check.Explore.pp_outcome o;
  (match o.violation with
  | Some v ->
    Alcotest.failf
      "expected self-healing, got: %s\ntrace:\n%s" v.message
      (String.concat "\n" v.trace)
  | None -> ());
  Alcotest.(check bool) "exploration complete" true o.complete

(* --- crash-recovery resynchronisation, exhaustively --- *)

let test_crash_recover_interleavings () =
  (* The acceptance scenario for the RESYNCING extension: on a 4-ring
     with members settled at 0 and 2, switch 1 suffers a forwarding
     outage that swallows the flood of a concurrent join at 3, then
     recovers.  Every interleaving of the recovery exchange (summaries,
     deltas, deferred replays, the session deadline) against the live
     join's floods and computations must end in network-wide agreement —
     exactly what the fuzzer's crash seeds (1113 et al.) sample one
     schedule of. *)
  let scenario =
    base_scenario
      ~setup:[ join 0; join 2 ]
      ~race:[ Check.Harness.Crash 1; join 3; Check.Harness.Recover 1 ]
      ()
  in
  let o = Check.Explore.run scenario in
  Format.printf "crash-recover vs join: %a@." Check.Explore.pp_outcome o;
  (match o.violation with
  | Some v ->
    Alcotest.failf "unexpected violation: %s\ntrace:\n%s" v.message
      (String.concat "\n" v.trace)
  | None -> ());
  Alcotest.(check bool) "exploration complete" true o.complete;
  Alcotest.(check bool) "reached terminal states" true (o.terminals > 0);
  Alcotest.(check bool) "exploration covers many interleavings" true
    (o.states > 10)

let test_crash_overlapping_crash () =
  (* Two overlapping outages: when 1 recovers, its neighbor 2 is still
     down, so one summary resolves to a synchronous transport giveup and
     the quorum must be met by switch 0 alone; 2 then recovers into a
     network where 1's own exchange may still be in flight. *)
  let scenario =
    base_scenario
      ~setup:[ join 0; join 2 ]
      ~race:
        [
          Check.Harness.Crash 1;
          Check.Harness.Crash 2;
          join 3;
          Check.Harness.Recover 1;
          Check.Harness.Recover 2;
        ]
      ()
  in
  let o = Check.Explore.run scenario in
  Format.printf "overlapping crashes: %a@." Check.Explore.pp_outcome o;
  (match o.violation with
  | Some v ->
    Alcotest.failf "unexpected violation: %s\ntrace:\n%s" v.message
      (String.concat "\n" v.trace)
  | None -> ());
  Alcotest.(check bool) "exploration complete" true o.complete;
  Alcotest.(check bool) "reached terminal states" true (o.terminals > 0)

(* --- resynchronisation message codec --- *)

let tree_of_fp fp =
  match Mctree.Tree.of_fingerprint fp with
  | Some t -> t
  | None -> Alcotest.failf "bad tree fingerprint %S" fp

let sample_summary =
  Dgmc.Resync.Summary
    {
      session = 3;
      origin = 1;
      links =
        [
          { Lsr.Lsdb.u = 0; v = 1; up = false; version = 2 };
          { Lsr.Lsdb.u = 1; v = 2; up = true; version = 5 };
        ];
      mcs =
        [
          {
            Dgmc.Resync.sum_mc = mc1;
            sum_r = Dgmc.Timestamp.of_array [| 2; 0; 1; 0 |];
            sum_e = Dgmc.Timestamp.of_array [| 2; 0; 1; 0 |];
            sum_c = Dgmc.Timestamp.of_array [| 1; 0; 1; 0 |];
            sum_tree_fp = "T{0-1,1-2|0,2}";
          };
          {
            Dgmc.Resync.sum_mc = Dgmc.Mc_id.make Receiver_only 7;
            sum_r = Dgmc.Timestamp.of_array [| 0; 0; 0; 0 |];
            sum_e = Dgmc.Timestamp.of_array [| 0; 1; 0; 0 |];
            sum_c = Dgmc.Timestamp.of_array [| 0; 0; 0; 0 |];
            sum_tree_fp = "T{|}";
          };
        ];
    }

let sample_delta =
  Dgmc.Resync.Delta
    {
      session = 3;
      origin = 2;
      links = [ { Lsr.Lsdb.u = 2; v = 3; up = true; version = 4 } ];
      mcs =
        [
          {
            Dgmc.Resync.exp_mc = mc1;
            exp_r = Dgmc.Timestamp.of_array [| 2; 0; 2; 0 |];
            exp_e = Dgmc.Timestamp.of_array [| 2; 0; 2; 0 |];
            exp_c = Dgmc.Timestamp.of_array [| 2; 0; 2; 0 |];
            exp_members =
              Dgmc.Member.of_list
                [ (0, Dgmc.Member.Both); (2, Dgmc.Member.Receiver) ];
            exp_membership_seen = [| 2; 0; 2; 0 |];
            exp_topology = tree_of_fp "T{0-1,1-2|0,2}";
          };
          (* A tombstone export: accounting survives, no members/tree. *)
          {
            Dgmc.Resync.exp_mc = Dgmc.Mc_id.make Asymmetric 9;
            exp_r = Dgmc.Timestamp.of_array [| 0; 2; 0; 0 |];
            exp_e = Dgmc.Timestamp.of_array [| 0; 2; 0; 0 |];
            exp_c = Dgmc.Timestamp.of_array [| 0; 0; 0; 0 |];
            exp_members = Dgmc.Member.empty;
            exp_membership_seen = [| 0; 2; 0; 0 |];
            exp_topology = Mctree.Tree.empty;
          };
        ];
    }

let test_resync_codec_round_trip () =
  List.iter
    (fun msg ->
      match Dgmc.Resync.of_string (Dgmc.Resync.to_string msg) with
      | Ok decoded ->
        Alcotest.(check bool)
          (Printf.sprintf "round-trip (session %d, origin %d)"
             (Dgmc.Resync.session msg) (Dgmc.Resync.origin msg))
          true
          (Dgmc.Resync.equal msg decoded)
      | Error reason -> Alcotest.failf "decode failed: %s" reason)
    [ sample_summary; sample_delta ]

let test_resync_codec_rejects_malformed () =
  List.iter
    (fun text ->
      match Dgmc.Resync.of_string text with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted malformed input %S" text)
    [
      "";
      "hello 1 2";
      "summary 1";
      "summary 1 2\nlink 0 1 sideways 3";
      "summary 1 2\nmc symmetric x 1 1 1 T{|}";
      "delta 1 2\nexport symmetric 1 1,0 1,0 1,0 0,0 0:captain T{|}";
      "delta 1 2\nexport symmetric 1 1,0 1,0 1,0 0,0 - T{0-1|";
    ]

let test_tree_fingerprint_matches_check () =
  (* Mctree.Tree.fingerprint (the wire form) and Check.Fingerprint.tree
     (the model checker's state-hash form) must never drift apart: resync
     summaries compare trees by the former, exploration dedups states by
     the latter. *)
  List.iter
    (fun fp ->
      let t = tree_of_fp fp in
      Alcotest.(check string)
        (Printf.sprintf "fingerprint forms agree on %s" fp)
        (Check.Fingerprint.tree t)
        (Mctree.Tree.fingerprint t))
    [ "T{|}"; "T{0-1|0,1}"; "T{0-1,1-2,2-5|0,2,5}" ]

(* --- runtime monitor on a full protocol run --- *)

let test_monitor_clean_run () =
  let graph = Net.Topo_gen.ring 6 in
  let net =
    Dgmc.Protocol.create ~graph ~config:Dgmc.Config.atm_lan ()
  in
  let m = Check.Monitor.attach net in
  Dgmc.Protocol.schedule_join net ~at:0.0 ~switch:0 mc1 Dgmc.Member.Both;
  Dgmc.Protocol.schedule_join net ~at:0.0 ~switch:3 mc1 Dgmc.Member.Both;
  Dgmc.Protocol.schedule_leave net ~at:5.0 ~switch:0 mc1;
  Dgmc.Protocol.run net;
  Check.Monitor.check_terminal m;
  Alcotest.(check bool) "monitor swept" true (Check.Monitor.sweeps m > 0);
  Check.Monitor.assert_ok m

let test_monitor_crash_resync () =
  (* Full protocol + fault plan: switch 1's outage swallows the flood of
     the join at 4; the scheduled recovery exchange (begin_resync at the
     window's close) must bring it back into agreement, under the
     invariant monitor throughout. *)
  let graph = Net.Topo_gen.ring 6 in
  let config =
    { Dgmc.Config.atm_lan with flood_mode = Lsr.Flooding.Reliable }
  in
  let plan = Faults.Plan.create ~seed:7 () in
  Faults.Plan.crash_switch plan ~switch:1 ~from_:1e-3 ~until:3e-3;
  let metrics = Metrics.Registry.create () in
  let net = Dgmc.Protocol.create ~graph ~config ~faults:plan ~metrics () in
  let m = Check.Monitor.attach net in
  Dgmc.Protocol.schedule_join net ~at:0.0 ~switch:0 mc1 Dgmc.Member.Both;
  Dgmc.Protocol.schedule_join net ~at:0.0 ~switch:3 mc1 Dgmc.Member.Both;
  Dgmc.Protocol.schedule_join net ~at:1.5e-3 ~switch:4 mc1 Dgmc.Member.Both;
  Dgmc.Protocol.run net;
  Check.Monitor.check_terminal m;
  Check.Monitor.assert_ok m;
  Alcotest.(check bool) "switch 1 ran a recovery exchange" true
    (Metrics.Registry.counter_value metrics ~switch:1 "switch.resyncs_started"
    > 0);
  Alcotest.(check bool) "the exchange completed with a delta" true
    (Metrics.Registry.counter_value metrics ~switch:1
       "switch.resync_deltas_applied"
    > 0);
  match Dgmc.Protocol.divergence net mc1 with
  | [] -> ()
  | reasons ->
    Alcotest.failf "diverged after crash recovery: %s"
      (String.concat "; " reasons)

(* --- fuzzer regression seeds --- *)

(* Pinned seeds whose generated cases exercise distinct fault machinery:
   - 43: heavy loss + reordering on a WAN; the case that exposed the
     missing-secondary-sender bug in asymmetric topology computation.
   - 46: both a switch-crash and a partition window actually block
     traffic mid-run.
   - 47: 20 switches under a long partition window (thousands of
     blocked transmissions bridged by retransmission).
   - 65: heavy proposal-withdrawal activity (stale computations under
     churn).
   - 411: the acceptance case — 20 switches, 3 MCs, ~34% drop + 18%
     duplication + 26% reordering on every link.
   Each case is regenerated from its seed and must still pass; a
   deliberately perturbed case must still FAIL deterministically (the
   fuzzer's value is zero if run_case cannot distinguish). *)

let fuzz_regression_seeds = [ 43; 46; 47; 65; 411 ]

let test_fuzz_regression_seeds () =
  List.iter
    (fun seed ->
      let case = Check.Fuzz.case_of_seed seed in
      match Check.Fuzz.run_case case with
      | Ok stats ->
        Alcotest.(check bool)
          (Printf.sprintf "seed %d injected faults" seed)
          true
          (stats.s_faults.Faults.Plan.dropped > 0
          && stats.s_totals.Dgmc.Protocol.retransmissions > 0)
      | Error problems ->
        Alcotest.failf "fuzz seed %d regressed:\n%s" seed
          (String.concat "\n" problems))
    fuzz_regression_seeds

let test_fuzz_case_generation_is_deterministic () =
  let seed = 411 in
  let render c = Format.asprintf "%a" Check.Fuzz.pp_case c in
  Alcotest.(check string)
    "same seed renders the same case"
    (render (Check.Fuzz.case_of_seed seed))
    (render (Check.Fuzz.case_of_seed seed));
  let stats () =
    match Check.Fuzz.run_case (Check.Fuzz.case_of_seed seed) with
    | Ok s -> (s.s_totals, s.s_faults, s.s_sweeps)
    | Error ps -> Alcotest.failf "seed %d failed: %s" seed (String.concat "; " ps)
  in
  Alcotest.(check bool) "same seed runs identically" true (stats () = stats ())

let test_fuzz_acceptance_case () =
  (* The tentpole's acceptance criterion, pinned: a 20-switch, 3-MC run
     under ~30% loss + duplication + reordering on every link converges
     with zero monitor violations. *)
  let case = Check.Fuzz.case_of_seed 411 in
  Alcotest.(check int) "20 switches" 20 (Net.Graph.n_nodes case.graph);
  Alcotest.(check int) "3 MCs" 3 (List.length case.mcs);
  Alcotest.(check bool) "at least 30% loss" true
    (case.fault_spec.Faults.Plan.drop >= 0.3);
  match Check.Fuzz.run_case case with
  | Ok _ -> ()
  | Error problems ->
    Alcotest.failf "acceptance case diverged:\n%s" (String.concat "\n" problems)

(* --- guided search: rediscovering the historical bugs --- *)

(* Lengths of the fuzzer's shrunk repros for the two re-injected
   historical bugs (pinned by the shrinker regressions below); the
   acceptance bar for backward search is sequences no longer than
   these. *)
let fuzzer_shrunk_stale_senders = 8 (* seed 1030, flag_stale_senders=false *)

let fuzzer_shrunk_asymmetric_tree = 2 (* seed 1027, span_secondary_senders=false *)

let stale_senders_config =
  { Dgmc.Config.atm_lan with flag_stale_senders = false }

let asymmetric_tree_config =
  { Dgmc.Config.atm_lan with span_secondary_senders = false }

let render_backward b = Format.asprintf "%a" Check.Search.pp_backward b

(* Backward search must rediscover a re-injected historical bug as a
   minimal fault sequence — pinned exactly, byte-identical at any
   domain count, and no longer than the fuzzer's shrunk repro. *)
let backward_rediscovery ~config ~mcs ~expected_lines ~fuzzer_len () =
  let search domains =
    Check.Search.backward ~max_len:2 ~domains ~graph:(Net.Topo_gen.ring 4)
      ~config ~mcs ()
  in
  let b = search 1 in
  (match b.Check.Search.b_found with
  | None -> Alcotest.fail "backward search did not rediscover the bug"
  | Some (events, found) ->
    Alcotest.(check (list string))
      "pinned minimal fault sequence" expected_lines
      (Check.Search.event_lines events);
    Alcotest.(check bool)
      "no longer than the fuzzer's shrunk repro" true
      (List.length events <= fuzzer_len);
    Alcotest.(check bool)
      "the violation names at least one law" true
      (found.Check.Search.laws <> []));
  let r1 = render_backward b in
  Alcotest.(check string) "domains 2 byte-identical" r1
    (render_backward (search 2));
  Alcotest.(check string) "domains 4 byte-identical" r1
    (render_backward (search 4))

let test_search_rediscovers_stale_senders () =
  backward_rediscovery ~config:stale_senders_config ~mcs:[ mc1 ]
    ~expected_lines:
      [
        "[0] join switch=0 mc#1(symmetric) (both)";
        "[1] join switch=1 mc#1(symmetric) (both)";
      ]
    ~fuzzer_len:fuzzer_shrunk_stale_senders ()

let test_search_rediscovers_asymmetric_tree () =
  backward_rediscovery ~config:asymmetric_tree_config
    ~mcs:[ Dgmc.Mc_id.make Asymmetric 1 ]
    ~expected_lines:
      [
        "[0] join switch=0 mc#1(asymmetric) (sender)";
        "[1] join switch=1 mc#1(asymmetric) (sender)";
      ]
    ~fuzzer_len:fuzzer_shrunk_asymmetric_tree ()

let test_search_forward_is_guided () =
  (* Best-first with the violation-distance heuristic reaches the
     stale-senders violation after visiting a fraction of the space the
     exhaustive checker covers on the fixed variant (1047 states). *)
  let scenario =
    base_scenario ~config:stale_senders_config ~setup:[]
      ~race:[ join 0; join 2 ] ()
  in
  let o = Check.Search.forward scenario in
  (match o.Check.Search.f_found with
  | None -> Alcotest.fail "guided forward search missed the violation"
  | Some f ->
    Alcotest.(check bool) "trace reaches the violating state" true
      (f.Check.Search.depth > 0));
  Alcotest.(check bool) "guided: well under the exhaustive state count" true
    (o.Check.Search.f_states < 200)

(* --- shrinker timing minimisation --- *)

let reinject config case =
  { case with Check.Fuzz.config =
      { case.Check.Fuzz.config with
        Dgmc.Config.flag_stale_senders =
          config.Dgmc.Config.flag_stale_senders;
        span_secondary_senders = config.Dgmc.Config.span_secondary_senders;
      } }

let shrink_regression ~seed ~config ~expected_len =
  let case = reinject config (Check.Fuzz.case_of_seed seed) in
  (match Check.Fuzz.run_case case with
  | Ok _ -> Alcotest.failf "seed %d no longer fails under the bug" seed
  | Error _ -> ());
  let shrunk, _runs = Check.Fuzz.shrink case in
  Alcotest.(check int)
    (Printf.sprintf "seed %d shrinks to its known minimal length" seed)
    expected_len (List.length shrunk);
  (* The timing pass: every surviving event collapses to tick 0 — the
     failure needs the events, not the gaps the generator drew. *)
  Alcotest.(check bool) "timing minimised to tick 0" true
    (List.for_all (fun (e : Workload.Events.t) -> e.time = 0.0) shrunk);
  let render evs =
    String.concat "\n"
      (List.map (fun e -> Format.asprintf "%a" Workload.Events.pp e) evs)
  in
  let again, _ = Check.Fuzz.shrink case in
  Alcotest.(check string) "shrinking is deterministic" (render shrunk)
    (render again)

let test_shrink_minimises_timing_stale_senders () =
  (* Seed 1026 stays green even under the bug — random fault schedules
     miss it, which is exactly why the guided search exists... *)
  (match
     Check.Fuzz.run_case (reinject stale_senders_config (Check.Fuzz.case_of_seed 1026))
   with
  | Ok _ -> ()
  | Error ps ->
    Alcotest.failf "seed 1026 unexpectedly fails: %s" (String.concat "; " ps));
  (* ...while 1030 trips it, and shrinks — placement and timing both. *)
  shrink_regression ~seed:1030 ~config:stale_senders_config
    ~expected_len:fuzzer_shrunk_stale_senders

let test_shrink_minimises_timing_asymmetric_tree () =
  shrink_regression ~seed:1027 ~config:asymmetric_tree_config
    ~expected_len:fuzzer_shrunk_asymmetric_tree

(* --- linter unit tests --- *)

let lint_lines text =
  List.map
    (fun (d : Check.Scenario_lint.diagnostic) ->
      (d.line, d.severity = Check.Scenario_lint.Error))
    (Check.Scenario_lint.lint text)

let test_lint_clean () =
  let text =
    "graph ring 6\nconfig atm\nmc 1 symmetric\nat 0 join 0 mc=1\n\
     at 1r leave 0 mc=1\n"
  in
  Alcotest.(check (list (pair int bool))) "no diagnostics" [] (lint_lines text)

let test_lint_catches_errors () =
  let text =
    String.concat "\n"
      [
        "graph ring 4";
        "mc 1 symmetric";
        "mc 1 symmetric";  (* 3: duplicate mc *)
        "at 0 join 9 mc=1";  (* 4: switch out of range *)
        "at 1 join 0 mc=7";  (* 5: undeclared mc *)
        "at 2 leave 2 mc=1";  (* 6: leave without join *)
        "at 3 linkdown 0 2";  (* 7: no such link on a ring *)
        "at 4 join 1 role=captain mc=1";  (* 8: bad role *)
        "at -1 join 1 mc=1";  (* 9: negative time *)
        "at 5 join 1 banana mc=1";  (* 10: stray token *)
      ]
  in
  let lines =
    List.filter_map (fun (l, is_err) -> if is_err then Some l else None)
      (lint_lines text)
  in
  Alcotest.(check (list int)) "one error per broken line"
    [ 3; 4; 5; 6; 7; 8; 9; 10 ]
    (List.sort_uniq compare lines)

let test_lint_warnings () =
  let text =
    String.concat "\n"
      [
        "graph ring 4";
        "mc 1 symmetric";
        "mc 2 symmetric";  (* unused -> warning *)
        "at 2 join 0 mc=1";
        "at 1 join 1 mc=1";  (* time moves backwards -> warning *)
        "at 3 linkup 0 1";  (* already up -> warning *)
      ]
  in
  let diags = Check.Scenario_lint.lint text in
  Alcotest.(check int) "no errors" 0 (Check.Scenario_lint.errors diags);
  Alcotest.(check int) "three warnings" 3 (Check.Scenario_lint.warnings diags)

let test_lint_missing_graph () =
  let diags = Check.Scenario_lint.lint "config atm\nmc 1 symmetric\n" in
  Alcotest.(check bool) "missing graph is an error" true
    (Check.Scenario_lint.errors diags > 0)

let test_lint_health_directive () =
  let lint lines = Check.Scenario_lint.lint (String.concat "\n" lines) in
  let base = [ "graph line 3"; "mc 1 symmetric"; "at 0 join 0 mc=1" ] in
  let clean =
    lint (base @ [ "health period=0.5r detector=k:3"; "at 1r linkdown 0 1" ])
  in
  Alcotest.(check int) "valid health directive lints clean" 0
    (Check.Scenario_lint.errors clean);
  let bad_key = lint (base @ [ "health perod=0.5r" ]) in
  Alcotest.(check bool) "unknown key is an error" true
    (Check.Scenario_lint.errors bad_key > 0);
  let bad_detector = lint (base @ [ "health detector=banana" ]) in
  Alcotest.(check bool) "unparseable detector is an error" true
    (Check.Scenario_lint.errors bad_detector > 0);
  let bad_damping =
    lint (base @ [ "health damp-suppress=0.1 damp-reuse=0.5" ])
  in
  Alcotest.(check bool) "suppress below reuse fails semantic validation" true
    (Check.Scenario_lint.errors bad_damping > 0);
  let no_links = lint (base @ [ "health period=0.5r" ]) in
  Alcotest.(check int) "health without link events is not an error" 0
    (Check.Scenario_lint.errors no_links);
  Alcotest.(check bool) "…but warns that there is nothing to detect" true
    (Check.Scenario_lint.warnings no_links > 0)

(* One grammar: for a script with a single defect in it, Script.parse
   reports exactly the linter's first error. *)
let test_lint_agrees_with_parser () =
  let script bad = String.concat "\n" [ "graph ring 4"; "mc 1 symmetric"; bad ] in
  List.iter
    (fun bad ->
      let text = script bad in
      let first =
        List.find
          (fun (d : Check.Scenario_lint.diagnostic) ->
            d.severity = Check.Scenario_lint.Error)
          (Check.Scenario_lint.lint text)
      in
      match Workload.Script.parse text with
      | Ok _ -> Alcotest.failf "%S: parsed, but the linter rejects it" bad
      | Error m ->
        Alcotest.(check string)
          bad
          (Printf.sprintf "line %d: %s" first.line first.message)
          m)
    [
      (* the grammar defects of test_lint_catches_errors *)
      "mc 1 symmetric";
      "at 0 join 9 mc=1";
      "at 1 join 0 mc=7";
      "at 3 linkdown 0 2";
      "at 4 join 1 role=captain mc=1";
      "at -1 join 1 mc=1";
      "at 5 join 1 banana mc=1";
      (* lines the two tools once described differently *)
      "at 0 linkdown 0";
      "at";
      "mc 2";
      (* health directives that fail validation *)
      "health damp-suppress=0.1 damp-reuse=0.5";
      "health period=0";
    ];
  (* The timeline rules are the linter's alone: the runner needs neither,
     so the parser accepts these scripts. *)
  List.iter
    (fun bad ->
      let text = script bad in
      Alcotest.(check bool) (bad ^ " parses") true
        (Result.is_ok (Workload.Script.parse text));
      Alcotest.(check bool) (bad ^ " lints with an error") true
        (Check.Scenario_lint.errors (Check.Scenario_lint.lint text) > 0))
    [ "at 2 leave 2 mc=1"; "at 0 join 0 mc=1\nat 0 join 0 mc=1" ]

(* --- the abstract hello model, exhaustively explored --- *)

(* K_missed 2 → detection proven by round 3; damping (when on) suppresses
   at the first flap and readmits after one calm round. *)
let hello_config ?damping () =
  let damping =
    if Option.value damping ~default:false then
      Some
        {
          Health.Config.d_penalty = 1.0;
          d_suppress = 1.0;
          d_reuse = 0.5;
          d_half_life = 0.001;
        }
    else None
  in
  Health.Config.make ~period:0.001 ~detector:(Health.Detector.K_missed 2)
    ?damping ~horizon:1.0 ()

let health_atm ?damping () =
  { Dgmc.Config.atm_lan with Dgmc.Config.health = Some (hello_config ?damping ()) }

(* Ring 3 keeps the members connected when one link (or the middle
   switch) fails, so the terminal agreement laws stay applicable. *)
let hello_scenario ?damping ~setup ~race () =
  {
    Check.Explore.graph = Net.Topo_gen.ring 3;
    config = health_atm ?damping ();
    setup;
    race;
  }

let test_hello_fault_free_no_false_positive () =
  (* Law "hello-false-positive", proven over every interleaving: with
     every link up and nobody crashed, no hello round — wherever it
     lands relative to a racing join — may produce a down declaration. *)
  let scenario =
    hello_scenario ~setup:[ join 0 ]
      ~race:
        [
          join 2;
          Check.Harness.Hello_round;
          Check.Harness.Hello_round;
          Check.Harness.Hello_round;
          Check.Harness.Hello_round;
        ]
      ()
  in
  let o = Check.Explore.run scenario in
  Format.printf "hello fault-free: %a@." Check.Explore.pp_outcome o;
  (match o.violation with
  | Some v ->
    Alcotest.failf "unexpected violation: %s\ntrace:\n%s" v.message
      (String.concat "\n" v.trace)
  | None -> ());
  Alcotest.(check bool) "exploration complete" true o.complete;
  Alcotest.(check bool) "reached terminal states" true (o.terminals > 0)

let test_hello_detection_proven () =
  (* Law "hello-detect": in every interleaving of a link failure with
     enough hello rounds, any adjacency whose truth has been down for
     a_detect_rounds observed rounds must be believed down.  Completing
     with no violation proves the abstract detectors never sleep through
     a failure. *)
  let rounds =
    match
      Check.Harness.health_detect_rounds
        (Check.Harness.create ~graph:(Net.Topo_gen.ring 3)
           ~config:(health_atm ()) ())
    with
    | Some r -> r
    | None -> Alcotest.fail "health layer not engaged in the harness"
  in
  let scenario =
    hello_scenario ~setup:[ join 0; join 2 ]
      ~race:
        (Check.Harness.Link_down (0, 1)
        :: List.init (rounds + 1) (fun _ -> Check.Harness.Hello_round))
      ()
  in
  let o = Check.Explore.run scenario in
  Format.printf "hello detect: %a@." Check.Explore.pp_outcome o;
  (match o.violation with
  | Some v ->
    Alcotest.failf "unexpected violation: %s\ntrace:\n%s" v.message
      (String.concat "\n" v.trace)
  | None -> ());
  Alcotest.(check bool) "exploration complete" true o.complete;
  (* And concretely, on the deterministic schedule: silence for
     a_detect_rounds flips both endpoint beliefs, with zero spurious
     declarations. *)
  let h =
    Check.Harness.create ~graph:(Net.Topo_gen.ring 3) ~config:(health_atm ())
      ()
  in
  Check.Harness.inject h (join 0);
  Check.Harness.inject h (join 2);
  Check.Harness.settle h;
  Check.Harness.inject h (Check.Harness.Link_down (0, 1));
  for _ = 1 to rounds do
    Check.Harness.inject h Check.Harness.Hello_round
  done;
  Check.Harness.settle h;
  let believed_down w p =
    List.exists
      (fun (a : Check.Harness.adjacency_view) ->
        a.av_watcher = w && a.av_peer = p && not a.av_up)
      (Check.Harness.health_adjacencies h)
  in
  Alcotest.(check bool) "0 believes its link to 1 down" true
    (believed_down 0 1);
  Alcotest.(check bool) "1 believes its link to 0 down" true
    (believed_down 1 0);
  Alcotest.(check (list string)) "no spurious declaration" []
    (Check.Harness.health_spurious h)

let test_hello_damping_suppress_and_readmit () =
  (* Damping lifecycle in the abstract model, plus the terminal
     "suppress-install" law: after the flap suppresses the link, no
     installed tree may use it; after readmission and recovery the
     network reconverges. *)
  let graph = Net.Topo_gen.line 3 in
  let h =
    Check.Harness.create ~graph ~config:(health_atm ~damping:true ()) ()
  in
  Check.Harness.inject h (join 0);
  Check.Harness.inject h (join 2);
  Check.Harness.settle h;
  Check.Harness.inject h (Check.Harness.Link_down (0, 1));
  for _ = 1 to 3 do
    Check.Harness.inject h Check.Harness.Hello_round
  done;
  Check.Harness.settle h;
  Alcotest.(check (list (pair int int))) "first flap suppresses the link"
    [ (0, 1) ]
    (Check.Harness.suppressed_links h);
  (* Terminal law while suppressed: no installed tree contains (0,1) —
     the members 0 and 2 cannot even form a tree without it on a line,
     so the checker must see the degraded state, not a violation. *)
  let violations =
    Check.Invariant.check_health_terminal
      ~suppressed:(Check.Harness.suppressed_links h)
      (Check.Harness.switches h)
  in
  Alcotest.(check int) "no tree uses the suppressed link" 0
    (List.length violations);
  (* Heal the link; one calm round readmits, two arrivals re-up. *)
  Check.Harness.inject h (Check.Harness.Link_up (0, 1));
  for _ = 1 to 4 do
    Check.Harness.inject h Check.Harness.Hello_round
  done;
  Check.Harness.settle h;
  Alcotest.(check (list (pair int int))) "readmitted after the calm" []
    (Check.Harness.suppressed_links h);
  Alcotest.(check bool) "all adjacencies believed up again" true
    (List.for_all
       (fun (a : Check.Harness.adjacency_view) -> a.av_up)
       (Check.Harness.health_adjacencies h));
  Alcotest.(check (list string)) "no spurious declaration" []
    (Check.Harness.health_spurious h)

let test_hello_crash_detection_legitimate () =
  (* A crashed peer goes silent exactly like a dead link; declaring it
     down is a legitimate detection, not a false positive — explored
     across every interleaving of the crash and the rounds. *)
  let scenario =
    hello_scenario ~setup:[ join 0; join 2 ]
      ~race:
        (Check.Harness.Crash 1
        :: List.init 4 (fun _ -> Check.Harness.Hello_round))
      ()
  in
  let o = Check.Explore.run scenario in
  Format.printf "hello crash: %a@." Check.Explore.pp_outcome o;
  (match o.violation with
  | Some v ->
    Alcotest.failf "unexpected violation: %s\ntrace:\n%s" v.message
      (String.concat "\n" v.trace)
  | None -> ());
  Alcotest.(check bool) "exploration complete" true o.complete

let () =
  Alcotest.run "check"
    [
      ( "explore",
        [
          Alcotest.test_case "two concurrent joins: exhaustive, no violations"
            `Slow test_two_concurrent_joins;
          Alcotest.test_case "join vs link failure: exhaustive, no violations"
            `Slow test_join_vs_link_failure;
          Alcotest.test_case "broken variant (no stale-sender flag) is caught"
            `Quick test_broken_variant_caught;
          Alcotest.test_case "no-withdrawal variant provably self-heals" `Slow
            test_no_withdrawal_self_heals;
          Alcotest.test_case "crash + recover vs live join: exhaustive" `Slow
            test_crash_recover_interleavings;
          Alcotest.test_case "overlapping crash windows: exhaustive" `Slow
            test_crash_overlapping_crash;
        ] );
      ( "resync",
        [
          Alcotest.test_case "codec round-trips" `Quick
            test_resync_codec_round_trip;
          Alcotest.test_case "codec rejects malformed input" `Quick
            test_resync_codec_rejects_malformed;
          Alcotest.test_case "tree fingerprint forms agree" `Quick
            test_tree_fingerprint_matches_check;
        ] );
      ( "monitor",
        [
          Alcotest.test_case "clean lifecycle run" `Quick test_monitor_clean_run;
          Alcotest.test_case "crash-window run resynchronises" `Quick
            test_monitor_crash_resync;
        ] );
      ( "fuzz",
        [
          Alcotest.test_case "pinned regression seeds still pass" `Slow
            test_fuzz_regression_seeds;
          Alcotest.test_case "case generation and runs are deterministic"
            `Slow test_fuzz_case_generation_is_deterministic;
          Alcotest.test_case "acceptance: 20 switches, 3 MCs, 30% loss" `Slow
            test_fuzz_acceptance_case;
        ] );
      ( "search",
        [
          Alcotest.test_case
            "backward rediscovers the stale-senders bug (domains 1/2/4)"
            `Slow test_search_rediscovers_stale_senders;
          Alcotest.test_case
            "backward rediscovers the asymmetric-tree bug (domains 1/2/4)"
            `Slow test_search_rediscovers_asymmetric_tree;
          Alcotest.test_case "forward search is guided, not exhaustive"
            `Quick test_search_forward_is_guided;
          Alcotest.test_case "shrinker minimises timing (stale-senders)"
            `Slow test_shrink_minimises_timing_stale_senders;
          Alcotest.test_case "shrinker minimises timing (asymmetric-tree)"
            `Slow test_shrink_minimises_timing_asymmetric_tree;
        ] );
      ( "lint",
        [
          Alcotest.test_case "clean scenario" `Quick test_lint_clean;
          Alcotest.test_case "errors with line numbers" `Quick
            test_lint_catches_errors;
          Alcotest.test_case "warnings" `Quick test_lint_warnings;
          Alcotest.test_case "missing graph" `Quick test_lint_missing_graph;
          Alcotest.test_case "health directive" `Quick
            test_lint_health_directive;
          Alcotest.test_case "parser agrees" `Quick test_lint_agrees_with_parser;
        ] );
      ( "hello-model",
        [
          Alcotest.test_case "fault-free rounds: no false positive, proven"
            `Quick test_hello_fault_free_no_false_positive;
          Alcotest.test_case "link failure is detected in every interleaving"
            `Quick test_hello_detection_proven;
          Alcotest.test_case "damping suppresses, terminal law holds, readmits"
            `Quick test_hello_damping_suppress_and_readmit;
          Alcotest.test_case "crashed peer detection is legitimate" `Quick
            test_hello_crash_detection_legitimate;
        ] );
    ]
