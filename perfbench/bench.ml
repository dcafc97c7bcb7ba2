(* The benchmark: one workload, one seed, one process, one domain.

     bench.exe --workload NAME --seed N --seconds S --trace 0|1

   Set-up (input generation plus one warm-up cell) runs [setups] times
   and reports its median.  The measured phase then runs closed-loop
   passes over the workload's cells until [--seconds] have elapsed and
   reports a pass with every cell at its median time.  Every exact count must repeat in every
   pass.  With [--trace 1] one more pass runs under the tracer and the
   per-layer metrics are printed instead of the end-to-end ones; its
   exact counts must equal the untraced passes'.  Human-readable lines
   come first, the JSON record last; the exit code is 1 when any output
   was wrong. *)

open Perfbench

let setups = 3

let workload = ref ""
let seed = ref 1
let seconds = ref 10.0
let trace = ref 0

let spec =
  [
    ("--workload", Arg.Set_string workload, "NAME workload to run");
    ("--seed", Arg.Set_int seed, "N input seed");
    ("--seconds", Arg.Set_float seconds, "S length of the measured phase");
    ("--trace", Arg.Set_int trace, "0|1 run the traced pass, print per-layer metrics");
  ]

let fail fmt = Printf.ksprintf (fun m -> prerr_endline ("bench: " ^ m); exit 2) fmt

let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

let print_metric (mt : Suite.metric) extra =
  Printf.printf "  %-28s %22s %-11s%s\n" mt.name (json_number mt.value) mt.unit_ extra

let readings_note (rs : Calib.reading list) =
  let med f = Stat.median (List.map f rs) in
  Printf.sprintf " (median raw %.4f s, calibration %.4f s, %d samples)"
    (med (fun r -> r.Calib.raw)) (med (fun r -> r.Calib.calib)) (List.length rs)

let () =
  Arg.parse spec (fun a -> fail "unexpected argument %S" a) "bench.exe [options]";
  let prepare =
    match List.assoc_opt !workload Suite.workloads with
    | Some p -> p
    | None ->
      fail "unknown workload %S (known: %s)" !workload
        (String.concat ", " (List.map fst Suite.workloads))
  in
  if !trace <> 0 && !trace <> 1 then fail "--trace takes 0 or 1";
  if not (!seconds > 0.0) then fail "--seconds must be positive";
  let seed = !seed in
  let meter = Calib.meter () in
  let ctx = Ctx.untraced meter in
  (* Set-up. *)
  let setup_readings, inputs =
    let rec go k acc =
      Calib.reset meter;
      let inputs = Ctx.work ctx "workload.prepare" (fun () -> prepare ~seed) in
      (match inputs.Suite.cells with
      | c :: _ -> Suite.run_cell ctx (Tally.create ()) c
      | [] -> ());
      let acc = Calib.reading meter :: acc in
      if k > 1 then go (k - 1) acc else (acc, inputs)
    in
    go setups []
  in
  (* Measured passes. *)
  let start = Calib.now () in
  let peak_heap_mb = ref 0.0 in
  let rec passes acc =
    Calib.reset meter;
    let tally = Tally.create () in
    let cell_s =
      List.map
        (fun c ->
          let before = meter.calibrated_s in
          Suite.run_cell ctx tally c;
          meter.calibrated_s -. before)
        inputs.cells
    in
    (* Read after the first pass, so the number of passes the host's
       speed allows cannot move it. *)
    if acc = [] then
      peak_heap_mb :=
        float_of_int ((Gc.quick_stat ()).top_heap_words * (Sys.word_size / 8)) /. 1e6;
    let acc = (Calib.reading meter, meter.words, tally, cell_s) :: acc in
    if Calib.now () -. start < !seconds then passes acc else List.rev acc
  in
  let passes = passes [] in
  let peak_heap_mb = !peak_heap_mb in
  let readings = List.map (fun (r, _, _, _) -> r) passes in
  (* One pass, with each cell at its median over the passes: a hiccup of
     the host during one cell of one pass does not move it. *)
  let wall_s =
    List.fold_left ( +. ) 0.0
      (List.mapi
         (fun i _ -> Stat.median (List.map (fun (_, _, _, cs) -> List.nth cs i) passes))
         inputs.cells)
  in
  let setup_s = Stat.median (List.map (fun r -> r.Calib.calibrated) setup_readings) in
  let _, _, first, _ = List.hd passes in
  (* Allocation of the last pass, when lazily built state is warm. *)
  let _, words, _, _ = List.nth passes (List.length passes - 1) in
  let attempted = List.fold_left (fun a (_, _, t, _) -> a + t.Tally.attempted) 0 passes in
  let failed = List.fold_left (fun a (_, _, t, _) -> a + t.Tally.failed) 0 passes in
  let failures = List.concat_map (fun (_, _, t, _) -> t.Tally.failures) passes in
  let mismatches =
    List.concat_map (fun (_, _, t, _) -> Tally.diff first t) (List.tl passes)
  in
  Printf.printf "workload %s seed %d: %d cells, %d measured passes\n" !workload seed
    (List.length inputs.cells) (List.length passes);
  let metrics, attempted, failed, failures, mismatches =
    if !trace = 0 then begin
      let ms = Suite.end_to_end ~setup_s ~wall_s ~peak_heap_mb first in
      Printf.printf "end-to-end metrics (times in calibrated seconds):\n";
      List.iter
        (fun (mt : Suite.metric) ->
          print_metric mt
            (match mt.name with
            | "setup_s" -> readings_note setup_readings
            | "wall_s" -> readings_note readings
            | _ -> ""))
        ms;
      (ms, attempted, failed, failures, mismatches)
    end
    else begin
      let tctx = Ctx.traced meter in
      Calib.reset meter;
      let tally = Tally.create () in
      List.iter (Suite.run_cell tctx tally) inputs.cells;
      let traced = Calib.reading meter in
      let build =
        match inputs.build_samples with Some f -> f tctx | None -> (0.0, 0)
      in
      Ctx.close tctx;
      let ms =
        Suite.per_layer ~wall_s ~words ~traced_s:traced.calibrated ~build tctx tally
      in
      Printf.printf "per-layer metrics (traced pass%s):\n" (readings_note [ traced ]);
      List.iter (fun mt -> print_metric mt "") ms;
      (try Sys.mkdir "_perfbench" 0o755 with Sys_error _ -> ());
      let path = Printf.sprintf "_perfbench/spans-%s-%d.jsonl" !workload seed in
      Option.iter
        (fun tr ->
          Out_channel.with_open_text path (fun oc ->
              Spans.dump (Spans.spans tr.Ctx.spans) oc))
        tctx.tracer;
      Printf.printf "spans written to %s\n" path;
      ( ms,
        attempted + tally.attempted,
        failed + tally.failed,
        failures @ tally.failures,
        mismatches @ List.map (fun n -> "traced:" ^ n) (Tally.diff first tally) )
    end
  in
  List.iter (fun f -> Printf.printf "FAILED %s\n" f) (List.rev failures);
  List.iter (fun n -> Printf.printf "NOT REPEATED %s\n" n) mismatches;
  let bad_names =
    List.filter
      (fun (mt : Suite.metric) ->
        not (Names.valid_name mt.name && Names.valid_unit mt.unit_ && Float.is_finite mt.value))
      metrics
  in
  List.iter (fun (mt : Suite.metric) -> Printf.printf "INVALID METRIC %s\n" mt.name) bad_names;
  let correct = failed = 0 && mismatches = [] && bad_names = [] in
  Printf.printf "# exact: %s\n"
    (String.concat " "
       (List.filter_map
          (fun (mt : Suite.metric) -> if mt.exact then Some mt.name else None)
          metrics));
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct attempted failed
    (String.concat ", "
       (List.map
          (fun (mt : Suite.metric) ->
            Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" mt.name
              (json_number mt.value) mt.unit_)
          metrics));
  exit (if correct then 0 else 1)
