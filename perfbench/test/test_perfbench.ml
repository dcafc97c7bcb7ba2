(* Unit tests for the benchmark's own helpers: percentiles, span self
   time, window sessionization, metric-name validity, tally comparison,
   and agreement between BENCHMARK.json and the metrics printed. *)

open Perfbench

let failures = ref 0

let check name ok =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL %s\n" name
  end

let close a b = Float.abs (a -. b) < 1e-9

let test_percentiles () =
  check "median of odd sample" (close (Stat.median [ 3.0; 1.0; 2.0 ]) 2.0);
  check "median of even sample interpolates" (close (Stat.median [ 4.0; 1.0; 3.0; 2.0 ]) 2.5);
  check "p0 is the minimum" (close (Stat.percentile [ 5.0; 7.0; 9.0 ] 0.0) 5.0);
  check "p100 is the maximum" (close (Stat.percentile [ 5.0; 7.0; 9.0 ] 100.0) 9.0);
  check "p25 interpolates between ranks"
    (close (Stat.percentile [ 10.0; 20.0; 30.0; 40.0; 50.0 ] 25.0) 20.0);
  check "p90 of 1..10" (close (Stat.percentile (List.init 10 (fun i -> float_of_int (i + 1))) 90.0) 9.1);
  check "single sample" (close (Stat.percentile [ 4.0 ] 75.0) 4.0);
  check "empty sample is nan" (Float.is_nan (Stat.median []));
  check "maximum" (close (Stat.maximum [ 1.0; 8.0; 3.0 ]) 8.0)

let test_self_time () =
  let t = Spans.create () in
  let root = Spans.enter t ~now:0.0 "cell" in
  let a = Spans.enter t ~now:1.0 "sim.run" in
  a.inner <- 0.5;
  Spans.leave t ~now:3.0;
  let b = Spans.enter t ~now:4.0 "core.create" in
  let c = Spans.enter t ~now:4.5 "nested" in
  Spans.leave t ~now:5.0;
  Spans.leave t ~now:6.0;
  Spans.leave t ~now:10.0;
  let selfs = Spans.self_times (Spans.spans t) in
  let self_of (s : Spans.span) =
    List.assq s (List.map (fun ((sp : Spans.span), v) -> (sp, v)) selfs)
  in
  check "root self excludes direct children only" (close (self_of root) 6.0);
  check "inner time is subtracted" (close (self_of a) 1.5);
  check "parent of a nested span" (close (self_of b) 1.5);
  check "leaf self is its duration" (close (self_of c) 0.5);
  check "parents recorded" (c.parent = b.id && b.parent = root.id && root.parent = -1);
  let over = Spans.create () in
  let s = Spans.enter over ~now:0.0 "x" in
  s.inner <- 5.0;
  Spans.leave over ~now:1.0;
  check "self time clamps at zero"
    (close (snd (List.hd (Spans.self_times (Spans.spans over)))) 0.0);
  check "leave without enter raises"
    (match Spans.leave (Spans.create ()) ~now:0.0 with
    | () -> false
    | exception Invalid_argument _ -> true)

let test_windows () =
  (* Two reconfigurations 10 s apart with gap 3: anchors at 0 and 10,
     changes at 1 and 2 (first), 11 (second); a lone anchor at 20 that
     changes nothing is quiet. *)
  let w =
    Windows.of_times ~gap:3.0 ~round:0.5 ~anchors:[ 0.0; 10.0; 20.0 ]
      ~changes:[ 2.0; 1.0; 11.0 ]
  in
  check "one latency per converged window" (List.length w.latencies = 2);
  check "latencies in rounds, first anchor to last change"
    (List.sort compare w.latencies = [ 2.0; 4.0 ]);
  check "anchor without change is quiet" (w.quiet = 1);
  let merged =
    Windows.of_times ~gap:3.0 ~round:1.0 ~anchors:[ 0.0; 2.0 ] ~changes:[ 1.0; 4.0 ]
  in
  check "observations within the gap share one window" (merged.latencies = [ 4.0 ]);
  let orphan = Windows.of_times ~gap:1.0 ~round:1.0 ~anchors:[ 0.0 ] ~changes:[ 5.0 ] in
  check "changes with no anchor open no window"
    (orphan.latencies = [] && orphan.quiet = 1)

let test_names () =
  List.iter
    (fun n -> check ("valid name " ^ n) (Names.valid_name n))
    [ "wall_s"; "net.dijkstra_self_s"; "gc.minor_mw"; "3d-layer"; "A.b_c-d" ];
  List.iter
    (fun n -> check ("invalid name " ^ n) (not (Names.valid_name n)))
    [ ""; "_x"; ".x"; "a b"; "a/b"; "a\"b"; "né"; String.make 65 'a' ];
  check "64 letters is the longest name" (Names.valid_name (String.make 64 'a'));
  List.iter
    (fun u -> check ("valid unit " ^ u) (Names.valid_unit u))
    [ "s"; "ms"; "1/s"; "%"; "msg/event"; "count" ];
  List.iter
    (fun u -> check ("invalid unit " ^ u) (not (Names.valid_unit u)))
    [ ""; "a b"; String.make 17 'x' ]

let test_suite_names () =
  (* Every metric the benchmark prints is a valid name with a valid unit,
     and no name is printed twice. *)
  let t = Tally.create () in
  let ctx = Ctx.traced (Calib.meter ()) in
  let ms =
    Suite.end_to_end ~setup_s:1.0 ~wall_s:1.0 ~peak_heap_mb:1.0 t
    @ Suite.per_layer ~wall_s:1.0 ~words:1.0 ~traced_s:1.0 ~build:(0.0, 0) ctx t
  in
  List.iter
    (fun (m : Suite.metric) ->
      check ("metric name " ^ m.name) (Names.valid_name m.name && Names.valid_unit m.unit_))
    ms;
  let names = List.map (fun (m : Suite.metric) -> m.name) ms in
  check "metric names are unique"
    (List.length (List.sort_uniq String.compare names) = List.length names)

(* ["name": "x", "unit": "y"] pairs of one section of BENCHMARK.json. *)
let record_metrics text section =
  let start = Str.search_forward (Str.regexp_string ("\"" ^ section ^ "\"")) text 0 in
  let stop = try String.index_from text start ']' with Not_found -> String.length text in
  let body = String.sub text start (stop - start) in
  let re = Str.regexp "\"name\": \"\\([^\"]*\\)\", \"unit\": \"\\([^\"]*\\)\"" in
  let rec scan pos acc =
    match Str.search_forward re body pos with
    | i -> scan (i + 1) ((Str.matched_group 1 body, Str.matched_group 2 body) :: acc)
    | exception Not_found -> List.rev acc
  in
  scan 0 []

let test_record_matches () =
  (* The record lists exactly the metrics the command prints, with the
     same units. *)
  let text = In_channel.with_open_text "../../BENCHMARK.json" In_channel.input_all in
  let t = Tally.create () in
  let pairs ms = List.map (fun (m : Suite.metric) -> (m.name, m.unit_)) ms in
  check "end_to_end section matches the printed metrics"
    (record_metrics text "end_to_end"
    = pairs (Suite.end_to_end ~setup_s:1.0 ~wall_s:1.0 ~peak_heap_mb:1.0 t));
  check "per_layer section matches the printed metrics"
    (record_metrics text "per_layer"
    = pairs
        (Suite.per_layer ~wall_s:1.0 ~words:1.0 ~traced_s:1.0 ~build:(0.0, 0)
           (Ctx.traced (Calib.meter ())) t))

let test_tally_diff () =
  let a = Tally.create () and b = Tally.create () in
  Tally.add a "events" 3;
  Tally.add b "events" 3;
  a.latencies <- [ 1.0; 2.0 ];
  b.latencies <- [ 2.0; 1.0 ];
  check "equal tallies agree" (Tally.diff a b = []);
  Tally.add b "messages" 1;
  b.latencies <- [ 2.0 ];
  check "a differing count and the latencies are named"
    (Tally.diff a b = [ "messages"; "window_latencies" ])

let () =
  test_percentiles ();
  test_self_time ();
  test_windows ();
  test_names ();
  test_suite_names ();
  test_tally_diff ();
  test_record_matches ();
  if !failures > 0 then exit 1;
  print_endline "perfbench helpers: all checks passed"
