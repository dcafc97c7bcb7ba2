type spec = {
  drop : float;
  duplicate : float;
  reorder : float;
  reorder_span : float;
  jitter : float;
}

let spec_default =
  { drop = 0.0; duplicate = 0.0; reorder = 0.0; reorder_span = 4.0; jitter = 0.0 }

let check_spec s =
  let prob name v =
    if not (v >= 0.0 && v <= 1.0) then
      (* dgmc-analyze: allow float-format — human-readable error message *)
      Error (Printf.sprintf "%s must be a probability in [0, 1], got %g" name v)
    else Ok ()
  in
  let non_neg name v =
    if not (v >= 0.0 && v = v && v < infinity) then
      (* dgmc-analyze: allow float-format — human-readable error message *)
      Error (Printf.sprintf "%s must be non-negative and finite, got %g" name v)
    else Ok ()
  in
  let ( let* ) = Result.bind in
  let* () = prob "drop" s.drop in
  let* () = prob "dup" s.duplicate in
  let* () = prob "reorder" s.reorder in
  let* () = non_neg "span" s.reorder_span in
  let* () = non_neg "jitter" s.jitter in
  Ok s

let spec_of_string text =
  let fields =
    String.split_on_char ',' text
    |> List.concat_map (String.split_on_char ';')
    |> List.map String.trim
    |> List.filter (fun s -> s <> "")
  in
  let parse acc field =
    Result.bind acc (fun spec ->
        match String.index_opt field '=' with
        | None -> Error (Printf.sprintf "expected key=value, got %S" field)
        | Some i ->
          let key = String.sub field 0 i in
          let v = String.sub field (i + 1) (String.length field - i - 1) in
          (match float_of_string_opt v with
          | None -> Error (Printf.sprintf "%s: expected a number, got %S" key v)
          | Some v ->
            (match key with
            | "drop" -> Ok { spec with drop = v }
            | "dup" | "duplicate" -> Ok { spec with duplicate = v }
            | "reorder" -> Ok { spec with reorder = v }
            | "jitter" -> Ok { spec with jitter = v }
            | "span" -> Ok { spec with reorder_span = v }
            | _ ->
              Error
                (Printf.sprintf
                   "unknown fault key %S (allowed: drop, dup, reorder, \
                    jitter, span)"
                   key))))
  in
  Result.bind (List.fold_left parse (Ok spec_default) fields) check_spec

let spec_to_string s =
  (* dgmc-analyze: allow float-format — human-readable spec echo; specs are
     short hand-written probabilities, not computed schema values *)
  Printf.sprintf "drop=%g,dup=%g,reorder=%g,jitter=%g,span=%g" s.drop
    s.duplicate s.reorder s.jitter s.reorder_span

let spec_is_transparent s =
  s.drop = 0.0 && s.duplicate = 0.0 && s.reorder = 0.0 && s.jitter = 0.0

type counters = {
  transmissions : int;
  delivered : int;
  dropped : int;
  duplicated : int;
  reordered : int;
  blocked_crash : int;
  blocked_partition : int;
}

type link_counters = {
  l_transmissions : int;
  l_dropped : int;
  l_duplicated : int;
  l_reordered : int;
  l_blocked : int;
}

(* Mutable accumulator behind {!link_counters} — one per directed
   (src, dst) pair that ever transmitted. *)
type link_acc = {
  mutable a_transmissions : int;
  mutable a_dropped : int;
  mutable a_duplicated : int;
  mutable a_reordered : int;
  mutable a_blocked : int;
}

type fault_kind =
  | Drop
  | Duplicate
  | Reorder of float
  | Crash_block of int
  | Partition_block

type event = { time : float; src : int; dst : int; fault : fault_kind }

type window = { w_from : float; w_until : float }

let trace_cap = 100_000

type t = {
  rng : Sim.Rng.t;
  plan_seed : int;
  spec : spec;
  link_specs : (int * int, spec) Hashtbl.t;  (* key (min, max) *)
  link_accs : (int * int, link_acc) Hashtbl.t;  (* key (src, dst), directed *)
  mutable crashes : (int * window) list;
  mutable partitions : (bool array * window) list;
      (* membership is precomputed up to the largest id mentioned;
         switches beyond the array are outside the side *)
  mutable c_transmissions : int;
  mutable c_delivered : int;
  mutable c_dropped : int;
  mutable c_duplicated : int;
  mutable c_reordered : int;
  mutable c_blocked_crash : int;
  mutable c_blocked_partition : int;
  mutable events : event list;  (* newest first *)
  mutable n_events : int;
  mutable sim_trace : Sim.Trace.t;
  mutable metrics : Metrics.Registry.t option;
}

let create ?(spec = spec_default) ~seed () =
  (match check_spec spec with
  | Ok _ -> ()
  | Error m -> invalid_arg ("Faults.Plan.create: " ^ m));
  {
    rng = Sim.Rng.create seed;
    plan_seed = seed;
    spec;
    link_specs = Hashtbl.create 8;
    link_accs = Hashtbl.create 32;
    crashes = [];
    partitions = [];
    c_transmissions = 0;
    c_delivered = 0;
    c_dropped = 0;
    c_duplicated = 0;
    c_reordered = 0;
    c_blocked_crash = 0;
    c_blocked_partition = 0;
    events = [];
    n_events = 0;
    sim_trace = Sim.Trace.disabled;
    metrics = None;
  }

let instrument t ?trace ?metrics () =
  Option.iter (fun tr -> t.sim_trace <- tr) trace;
  Option.iter (fun m -> t.metrics <- Some m) metrics

let seed t = t.plan_seed

let set_link_spec t u v spec =
  (match check_spec spec with
  | Ok _ -> ()
  | Error m -> invalid_arg ("Faults.Plan.set_link_spec: " ^ m));
  Hashtbl.replace t.link_specs (min u v, max u v) spec

let window ~who ~from_ ~until =
  if not (from_ >= 0.0 && until >= from_ && until < infinity) then
    invalid_arg
      (* dgmc-analyze: allow float-format — human-readable error message *)
      (Printf.sprintf "Faults.Plan.%s: bad window [%g, %g)" who from_ until);
  { w_from = from_; w_until = until }

let crash_switch t ~switch ~from_ ~until =
  if switch < 0 then invalid_arg "Faults.Plan.crash_switch: negative switch";
  t.crashes <- (switch, window ~who:"crash_switch" ~from_ ~until) :: t.crashes

let partition t ~side ~from_ ~until =
  (match side with
  | [] -> invalid_arg "Faults.Plan.partition: empty side"
  | _ -> ());
  List.iter
    (fun s ->
      if s < 0 then invalid_arg "Faults.Plan.partition: negative switch")
    side;
  let hi = List.fold_left max 0 side in
  let membership = Array.make (hi + 1) false in
  List.iter (fun s -> membership.(s) <- true) side;
  t.partitions <-
    (membership, window ~who:"partition" ~from_ ~until) :: t.partitions

let quiescent_after t =
  let close acc (_, w) = Float.max acc w.w_until in
  List.fold_left close (List.fold_left close 0.0 t.crashes) t.partitions

let active w now = now >= w.w_from && now < w.w_until

let crashed t sw now =
  List.exists (fun (s, w) -> s = sw && active w now) t.crashes

let separated t a b now =
  let in_side membership sw =
    sw < Array.length membership && membership.(sw)
  in
  List.exists
    (fun (membership, w) ->
      active w now && in_side membership a <> in_side membership b)
    t.partitions

let fault_label = function
  | Drop -> "drop"
  | Duplicate -> "duplicate"
  (* dgmc-analyze: allow float-format — human-readable trace label *)
  | Reorder extra -> Printf.sprintf "reorder(+%g)" extra
  | Crash_block who -> Printf.sprintf "blocked(crash %d)" who
  | Partition_block -> "blocked(partition)"

let metric_of_fault = function
  | Drop -> "faults.dropped"
  | Duplicate -> "faults.duplicated"
  | Reorder _ -> "faults.reordered"
  | Crash_block _ -> "faults.blocked_crash"
  | Partition_block -> "faults.blocked_partition"

let bump t name =
  match t.metrics with Some m -> Metrics.Registry.incr m name | None -> ()

let record t ev =
  if t.n_events < trace_cap then begin
    t.events <- ev :: t.events;
    t.n_events <- t.n_events + 1
  end;
  bump t (metric_of_fault ev.fault);
  if Sim.Trace.enabled t.sim_trace then
    ignore
      (Sim.Trace.emit t.sim_trace ~time:ev.time
         (Fault_injected
            { src = ev.src; dst = ev.dst; fault = fault_label ev.fault }))

let link_spec t src dst =
  match Hashtbl.find_opt t.link_specs (min src dst, max src dst) with
  | Some s -> s
  | None -> t.spec

let link_acc t src dst =
  match Hashtbl.find_opt t.link_accs (src, dst) with
  | Some a -> a
  | None ->
    let a =
      {
        a_transmissions = 0;
        a_dropped = 0;
        a_duplicated = 0;
        a_reordered = 0;
        a_blocked = 0;
      }
    in
    Hashtbl.add t.link_accs (src, dst) a;
    a

let transmit t ~src ~dst ~now ~base_delay =
  if not (base_delay > 0.0) then
    invalid_arg "Faults.Plan.transmit: base_delay must be positive";
  t.c_transmissions <- t.c_transmissions + 1;
  let la = link_acc t src dst in
  la.a_transmissions <- la.a_transmissions + 1;
  bump t "faults.transmissions";
  if crashed t src now || crashed t dst now then begin
    let who = if crashed t src now then src else dst in
    t.c_blocked_crash <- t.c_blocked_crash + 1;
    la.a_blocked <- la.a_blocked + 1;
    record t { time = now; src; dst; fault = Crash_block who };
    []
  end
  else if separated t src dst now then begin
    t.c_blocked_partition <- t.c_blocked_partition + 1;
    la.a_blocked <- la.a_blocked + 1;
    record t { time = now; src; dst; fault = Partition_block };
    []
  end
  else begin
    let spec = link_spec t src dst in
    (* One probability draw per potential fault, in a fixed order, so
       the stream stays aligned across specs that differ only in their
       probabilities. *)
    let draw () = Sim.Rng.float t.rng 1.0 in
    let dropped = draw () < spec.drop in
    let duplicated = draw () < spec.duplicate in
    if dropped then begin
      t.c_dropped <- t.c_dropped + 1;
      la.a_dropped <- la.a_dropped + 1;
      record t { time = now; src; dst; fault = Drop };
      []
    end
    else begin
      let copy () =
        let d =
          if spec.jitter > 0.0 then
            base_delay +. Sim.Rng.float t.rng (spec.jitter *. base_delay)
          else base_delay
        in
        if spec.reorder > 0.0 && draw () < spec.reorder then begin
          let extra =
            if spec.reorder_span > 0.0 then
              Sim.Rng.float t.rng (spec.reorder_span *. base_delay)
            else 0.0
          in
          t.c_reordered <- t.c_reordered + 1;
          la.a_reordered <- la.a_reordered + 1;
          record t { time = now; src; dst; fault = Reorder extra };
          d +. extra
        end
        else d
      in
      let copies =
        let first = copy () in
        if duplicated then begin
          t.c_duplicated <- t.c_duplicated + 1;
          la.a_duplicated <- la.a_duplicated + 1;
          record t { time = now; src; dst; fault = Duplicate };
          [ first; copy () ]
        end
        else [ first ]
      in
      t.c_delivered <- t.c_delivered + List.length copies;
      (match t.metrics with
      | Some m ->
        Metrics.Registry.incr m ~by:(List.length copies) "faults.delivered"
      | None -> ());
      copies
    end
  end

let counters t =
  {
    transmissions = t.c_transmissions;
    delivered = t.c_delivered;
    dropped = t.c_dropped;
    duplicated = t.c_duplicated;
    reordered = t.c_reordered;
    blocked_crash = t.c_blocked_crash;
    blocked_partition = t.c_blocked_partition;
  }

let link_counters t =
  Hashtbl.fold
    (fun key a acc ->
      ( key,
        {
          l_transmissions = a.a_transmissions;
          l_dropped = a.a_dropped;
          l_duplicated = a.a_duplicated;
          l_reordered = a.a_reordered;
          l_blocked = a.a_blocked;
        } )
      :: acc)
    t.link_accs []
  |> List.sort (fun ((a1, a2), _) ((b1, b2), _) ->
         match Int.compare a1 b1 with 0 -> Int.compare a2 b2 | c -> c)

let trace t = List.rev t.events

let crash_windows t =
  List.rev_map (fun (s, w) -> (s, (w.w_from, w.w_until))) t.crashes

let partition_windows t =
  List.rev_map
    (fun (membership, w) ->
      let side = ref [] in
      for s = Array.length membership - 1 downto 0 do
        if membership.(s) then side := s :: !side
      done;
      (!side, (w.w_from, w.w_until)))
    t.partitions
