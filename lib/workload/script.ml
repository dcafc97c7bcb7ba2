type t = {
  graph : Net.Graph.t;
  config : Dgmc.Config.t;
  mcs : Dgmc.Mc_id.t list;
  events : Events.t list;
  faults : Faults.Plan.spec option;
  fault_seed : int;
  health : Health.Config.t option;
}

type severity = Error | Warning

type diagnostic = { line : int; severity : severity; message : string }

(* Findings of one parse, newest first.  A parser records a problem and
   carries on with the rest of its line, leaving a placeholder value
   behind, so one pass reports every error; a directive compares
   [errors] before and after to know whether its own line failed and its
   (placeholder-bearing) result must be dropped. *)
type sink = { mutable found : diagnostic list; mutable errors : int }

let note sink severity line fmt =
  Printf.ksprintf
    (fun message ->
      if severity = Error then sink.errors <- sink.errors + 1;
      sink.found <- { line; severity; message } :: sink.found)
    fmt

let error sink line fmt = note sink Error line fmt

let tokens line =
  String.split_on_char ' ' line
  |> List.concat_map (String.split_on_char '\t')
  |> List.filter (fun s -> s <> "")

let key_value tok =
  match String.index_opt tok '=' with
  | Some i ->
    Some
      (String.sub tok 0 i, String.sub tok (i + 1) (String.length tok - i - 1))
  | None -> None

(* key=value option lookup within a directive's trailing tokens. *)
let opt_value opts key =
  List.find_map
    (fun tok ->
      match key_value tok with Some (k, v) when k = key -> Some v | _ -> None)
    opts

(* Every trailing token must be a known key=value option; a typo like
   [role sender] or [mc=1x] surfacing as a silently-defaulted run is far
   worse than a parse error. *)
let check_opts sink line ~allowed opts =
  List.iter
    (fun tok ->
      match key_value tok with
      | None ->
        error sink line "unexpected token %S (options are key=value)" tok
      | Some (key, _) ->
        if not (List.mem key allowed) then
          error sink line "unknown option %S (allowed: %s)" key
            (String.concat ", " allowed))
    opts

let int_opt sink line what s =
  match int_of_string_opt s with
  | Some v -> Some v
  | None ->
    error sink line "%s: expected an integer, got %S" what s;
    None

let int_arg sink line what s =
  Option.value ~default:0 (int_opt sink line what s)

let float_arg sink line what s =
  match float_of_string_opt s with
  | Some v -> v
  | None ->
    error sink line "%s: expected a number, got %S" what s;
    0.0

(* Time literals: plain seconds, or "<x>r" for protocol rounds. *)
let time_arg sink line s =
  let rounds = String.length s > 1 && s.[String.length s - 1] = 'r' in
  let body = if rounds then String.sub s 0 (String.length s - 1) else s in
  match float_of_string_opt body with
  | Some v when v >= 0.0 -> (v, rounds)
  | Some _ ->
    error sink line "time must be non-negative";
    (0.0, false)
  | None ->
    error sink line "bad time literal %S" s;
    (0.0, false)

let kind_arg sink line = function
  | "symmetric" -> Dgmc.Mc_id.Symmetric
  | "receiver-only" -> Dgmc.Mc_id.Receiver_only
  | "asymmetric" -> Dgmc.Mc_id.Asymmetric
  | s ->
    error sink line "unknown MC type %S" s;
    Dgmc.Mc_id.Symmetric

let role_arg sink line = function
  | "sender" -> Dgmc.Member.Sender
  | "receiver" -> Dgmc.Member.Receiver
  | "both" -> Dgmc.Member.Both
  | s ->
    error sink line "unknown role %S" s;
    Dgmc.Member.Both

let default_role = function
  | Dgmc.Mc_id.Symmetric -> Dgmc.Member.Both
  | Dgmc.Mc_id.Receiver_only -> Dgmc.Member.Receiver
  | Dgmc.Mc_id.Asymmetric -> Dgmc.Member.Receiver

(* The declared MC an event's mc= names; [referenced] records every id
   found, for the linter's unused-MC rule. *)
let find_mc sink line ~mcs ~referenced opts =
  let placeholder = Dgmc.Mc_id.make Dgmc.Mc_id.Symmetric 0 in
  match opt_value opts "mc" with
  | None ->
    error sink line "event needs mc=<id>";
    placeholder
  | Some id_s -> (
    match int_opt sink line "mc id" id_s with
    | None -> placeholder
    | Some id -> (
      match List.find_opt (fun (_, (m : Dgmc.Mc_id.t)) -> m.id = id) mcs with
      | Some (_, m) ->
        referenced := id :: !referenced;
        m
      | None ->
        error sink line "mc %d not declared (use a 'mc %d <type>' line first)"
          id id;
        placeholder))

(* The constructors reject shapes the grammar cannot (a 2-node ring, a
   churn the graph cannot host) with [Invalid_argument]. *)
let construct sink line build =
  match build () with
  | v -> Some v
  | exception Invalid_argument m ->
    error sink line "%s" m;
    None

let graph_args sink line args =
  let before = sink.errors in
  let num = int_arg sink line "graph size" in
  let sized make n =
    let n = num n in
    Some (fun () -> make n)
  in
  let shape =
    match args with
    | "waxman" :: n :: opts ->
      check_opts sink line ~allowed:[ "seed" ] opts;
      let n = num n in
      let seed =
        Option.fold ~none:1 ~some:(int_arg sink line "seed")
          (opt_value opts "seed")
      in
      Some
        (fun () ->
          Net.Topo_gen.waxman (Sim.Rng.create seed) ~n ~target_degree:3.5 ())
    | [ "grid"; rows; cols ] ->
      let rows = num rows in
      let cols = num cols in
      Some (fun () -> Net.Topo_gen.grid ~rows ~cols ())
    | [ "ring"; n ] -> sized Net.Topo_gen.ring n
    | [ "line"; n ] -> sized Net.Topo_gen.line n
    | [ "star"; n ] -> sized Net.Topo_gen.star n
    | [ "complete"; n ] -> sized Net.Topo_gen.complete n
    | kind :: _ ->
      error sink line "unknown graph kind %S" kind;
      None
    | [] ->
      error sink line "graph: missing arguments";
      None
  in
  match shape with
  | Some build when sink.errors = before -> construct sink line build
  | _ -> None

(* "faults drop=0.3 dup=0.1 seed=7" — fault keys go to Faults.Plan's
   parser; [seed] is handled here. *)
let faults_args sink line args =
  let before = sink.errors in
  let seed = ref 1 in
  let fault_args =
    List.filter
      (fun tok ->
        match key_value tok with
        | Some ("seed", v) ->
          seed := int_arg sink line "seed" v;
          false
        | _ -> true)
      args
  in
  match Faults.Plan.spec_of_string (String.concat "," fault_args) with
  | Ok spec when sink.errors = before -> Some (spec, !seed)
  | Ok _ -> None
  | Error m ->
    error sink line "%s" m;
    None

type churn_directive = {
  churn_mc : Dgmc.Mc_id.t;
  churn_members : int;
  churn_moves : int;
  churn_period : float * bool;
  churn_start : float * bool;
  churn_waves : int;
  churn_wave_links : int;
  churn_wave_period : (float * bool) option;
  churn_seed : int;
}

let churn_keys =
  [ "mc"; "members"; "moves"; "period"; "start"; "waves"; "wave-links";
    "wave-period"; "seed" ]

let churn_args sink line ~mcs ~referenced opts =
  check_opts sink line ~allowed:churn_keys opts;
  let int key default =
    Option.fold ~none:default ~some:(int_arg sink line key)
      (opt_value opts key)
  in
  let time key = Option.map (time_arg sink line) (opt_value opts key) in
  let churn_mc = find_mc sink line ~mcs ~referenced opts in
  let churn_members =
    match opt_value opts "members" with
    | Some s -> int_arg sink line "members" s
    | None ->
      error sink line "churn needs members=<count>";
      0
  in
  let churn_moves = int "moves" 0 in
  (* Defaults are round-denominated so one script fits every regime. *)
  let churn_period = Option.value ~default:(1.0, true) (time "period") in
  let churn_start = Option.value ~default:(0.0, false) (time "start") in
  let churn_waves = int "waves" 0 in
  let churn_wave_links = int "wave-links" 1 in
  let churn_wave_period = time "wave-period" in
  let churn_seed = int "seed" 1 in
  {
    churn_mc;
    churn_members;
    churn_moves;
    churn_period;
    churn_start;
    churn_waves;
    churn_wave_links;
    churn_wave_period;
    churn_seed;
  }

let churn_spec ~graph ~config d =
  let round = Dgmc.Config.round_length config ~graph in
  let resolve (v, rounds) = if rounds then v *. round else v in
  let period = resolve d.churn_period in
  {
    Churn.mc = d.churn_mc;
    members = d.churn_members;
    moves = d.churn_moves;
    period;
    start = resolve d.churn_start;
    waves = d.churn_waves;
    wave_links = d.churn_wave_links;
    wave_period =
      (match d.churn_wave_period with Some wp -> resolve wp | None -> period);
  }

(* "health period=0.5r detector=k:3 damp=on pace=0.2r" — link-health
   layer configuration; time-valued options take the same second/round
   literals as [at].  Resolution to a [Health.Config.t] waits until the
   graph and regime (hence round length) and the full event list (hence
   the default horizon) are known. *)
type health_directive = {
  h_period : float * bool;
  h_grace : (float * bool) option;
  h_detector : Health.Detector.kind;
  h_reup : int option;
  h_damping : bool;
  h_damp_penalty : float;
  h_damp_suppress : float;
  h_damp_reuse : float;
  h_damp_half_life : (float * bool) option;
  h_pace : (float * bool) option;
  h_pace_cap : int;
  h_horizon : (float * bool) option;
}

let health_keys =
  [ "period"; "grace"; "detector"; "reup"; "damp"; "damp-penalty";
    "damp-suppress"; "damp-reuse"; "damp-half-life"; "pace"; "pace-cap";
    "horizon" ]

let detector_arg sink line s =
  match String.split_on_char ':' s with
  | [ ("k" | "k-missed"); k ] ->
    Health.Detector.K_missed (int_arg sink line "detector k" k)
  | [ "phi"; window; threshold ] ->
    let window = int_arg sink line "phi window" window in
    let threshold = float_arg sink line "phi threshold" threshold in
    Health.Detector.Phi { window; threshold }
  | _ ->
    error sink line
      "unknown detector %S (use k:<n> or phi:<window>:<threshold>)" s;
    Health.Detector.K_missed 3

(* Options are read in [health_keys] order, so their errors are too. *)
let health_args sink line opts =
  check_opts sink line ~allowed:health_keys opts;
  let time key = Option.map (time_arg sink line) (opt_value opts key) in
  let num key default =
    Option.fold ~none:default ~some:(float_arg sink line key)
      (opt_value opts key)
  in
  let h_period = Option.value ~default:(0.5, true) (time "period") in
  let h_grace = time "grace" in
  let h_detector =
    Option.fold ~none:(Health.Detector.K_missed 3)
      ~some:(detector_arg sink line) (opt_value opts "detector")
  in
  let h_reup =
    Option.map (int_arg sink line "reup") (opt_value opts "reup")
  in
  let h_damping =
    (match opt_value opts "damp" with
    | Some "on" -> true
    | Some "off" | None -> false
    | Some s ->
      error sink line "damp: expected on or off, got %S" s;
      false)
    || List.exists
         (fun k -> opt_value opts k <> None)
         [ "damp-penalty"; "damp-suppress"; "damp-reuse"; "damp-half-life" ]
  in
  let h_damp_penalty = num "damp-penalty" 1.0 in
  let h_damp_suppress = num "damp-suppress" 3.0 in
  let h_damp_reuse = num "damp-reuse" 0.75 in
  let h_damp_half_life = time "damp-half-life" in
  let h_pace = time "pace" in
  let h_pace_cap =
    Option.fold ~none:16 ~some:(int_arg sink line "pace-cap")
      (opt_value opts "pace-cap")
  in
  let h_horizon = time "horizon" in
  {
    h_period;
    h_grace;
    h_detector;
    h_reup;
    h_damping;
    h_damp_penalty;
    h_damp_suppress;
    h_damp_reuse;
    h_damp_half_life;
    h_pace;
    h_pace_cap;
    h_horizon;
  }

let first_error diagnostics =
  List.find (fun d -> d.severity = Error) diagnostics

(* A single directive's arguments parsed on their own, for callers outside
   a script: the first error is the result. *)
let standalone parse =
  let sink = { found = []; errors = 0 } in
  match parse sink with
  | Some v when sink.errors = 0 -> Ok v
  | _ -> Stdlib.Error (first_error (List.rev sink.found)).message

let graph_of_args ~line args =
  standalone (fun sink -> graph_args sink line args)

let health_of_args ~line args =
  standalone (fun sink -> Some (health_args sink line args))

let last_event_time events =
  List.fold_left (fun acc (e : Events.t) -> Float.max acc e.time) 0.0 events

let health_config ~graph ~config ~last_event d =
  let round = Dgmc.Config.round_length config ~graph in
  let resolve (v, rounds) = if rounds then v *. round else v in
  let damping =
    if d.h_damping then
      Some
        {
          Health.Config.d_penalty = d.h_damp_penalty;
          d_suppress = d.h_damp_suppress;
          d_reuse = d.h_damp_reuse;
          d_half_life =
            (match d.h_damp_half_life with
            | Some hl -> resolve hl
            | None -> 4.0 *. round);
        }
    else None
  in
  let pacing =
    Option.map
      (fun mi ->
        { Health.Config.p_min_interval = resolve mi; p_cap = d.h_pace_cap })
      d.h_pace
  in
  let partial =
    Health.Config.make ~period:(resolve d.h_period)
      ?grace:(Option.map resolve d.h_grace) ~detector:d.h_detector
      ?reup:d.h_reup ?damping ?pacing ~horizon:1.0 ()
  in
  let horizon =
    match d.h_horizon with
    | Some hz -> resolve hz
    | None ->
      (* Past the last scripted event by three detection bounds plus
         convergence slack: enough for the slowest discovery (down, or
         up through reup hellos), then quiescence. *)
      last_event +. (3.0 *. Health.Config.detect_bound partial) +. (10.0 *. round)
  in
  { partial with Health.Config.horizon }

let with_health t d =
  let hc =
    health_config ~graph:t.graph ~config:t.config
      ~last_event:(last_event_time t.events) d
  in
  Result.map
    (fun () -> { t with health = Some hc })
    (Health.Config.validate hc)

let event_args sink line ~mcs ~referenced action =
  let find_mc = find_mc sink line ~mcs ~referenced in
  match action with
  | "join" :: sw :: opts ->
    check_opts sink line ~allowed:[ "mc"; "role" ] opts;
    let role = Option.map (role_arg sink line) (opt_value opts "role") in
    let switch = int_arg sink line "switch" sw in
    let mc = find_mc opts in
    let role = Option.value ~default:(default_role mc.kind) role in
    Some (Events.Join { switch; mc; role })
  | "leave" :: sw :: opts ->
    check_opts sink line ~allowed:[ "mc" ] opts;
    let switch = int_arg sink line "switch" sw in
    Some (Events.Leave { switch; mc = find_mc opts })
  | [ "linkdown"; u; v ] ->
    let u = int_arg sink line "u" u in
    Some (Events.Link_down (u, int_arg sink line "v" v))
  | [ "linkup"; u; v ] ->
    let u = int_arg sink line "u" u in
    Some (Events.Link_up (u, int_arg sink line "v" v))
  | ("linkdown" | "linkup") :: _ ->
    error sink line "%s: expected two switch ids" (List.hd action);
    None
  | verb :: _ ->
    error sink line "unknown event %S" verb;
    None
  | [] ->
    error sink line "at: missing event";
    None

type sourced = { from_line : int; event : Events.t; churned : bool }

type analysis = {
  script : t option;
  diagnostics : diagnostic list;
  timeline : sourced list option;
  declared : (int * Dgmc.Mc_id.t) list;
  referenced : int list;
  faults_at : (int * Faults.Plan.spec) option;
  health_at : int option;
}

(* Event targets must exist in the graph; the offending line is reported. *)
let in_graph sink graph line (action : Events.action) =
  let n = Net.Graph.n_nodes graph in
  match action with
  | Join { switch; _ } | Leave { switch; _ } ->
    switch >= 0 && switch < n
    ||
    (error sink line "switch %d out of range (graph has %d switches)" switch n;
     false)
  | Link_down (u, v) | Link_up (u, v) ->
    (u >= 0 && u < n && v >= 0 && v < n && Net.Graph.has_edge graph u v)
    ||
    (error sink line "no link (%d, %d) in the graph" u v;
     false)

let analyse text =
  let sink = { found = []; errors = 0 } in
  let seen = ref [] in (* directive keywords met so far *)
  let graph = ref None in
  let config = ref Dgmc.Config.atm_lan in
  let faults = ref None in (* (line, spec, seed) *)
  let mcs = ref [] in (* (line, mc), newest first *)
  let referenced = ref [] in
  let health = ref None in (* (line, directive) *)
  (* (line, time literal, action) and (line, churn) — newest first, and
     resolved once the graph and round length are known. *)
  let events = ref [] in
  let churns = ref [] in
  List.iteri
    (fun i raw ->
      let line = i + 1 in
      let body =
        match String.index_opt raw '#' with
        | Some j -> String.sub raw 0 j
        | None -> raw
      in
      match tokens body with
      | [] -> ()
      | verb :: args -> (
        if
          List.mem verb [ "graph"; "faults"; "health" ]
          && List.mem verb !seen
        then
          note sink Warning line
            "duplicate '%s' directive overrides the previous one" verb;
        seen := verb :: !seen;
        let before = sink.errors in
        match (verb, args) with
        | "graph", _ -> graph := graph_args sink line args
        | "config", [ "atm" ] -> config := Dgmc.Config.atm_lan
        | "config", [ "wan" ] -> config := Dgmc.Config.wan
        | "config", _ ->
          error sink line "config: expected 'atm' or 'wan', got %S"
            (String.concat " " args)
        | "faults", _ ->
          faults :=
            Option.map
              (fun (spec, seed) -> (line, spec, seed))
              (faults_args sink line args)
        | "mc", [ id; kind ] -> (
          let id = int_opt sink line "mc id" id in
          let declared id =
            List.exists (fun (_, (m : Dgmc.Mc_id.t)) -> m.id = id) !mcs
          in
          Option.iter
            (fun id ->
              if declared id then error sink line "mc %d declared twice" id)
            id;
          (* An unknown type still declares the id, so the events naming
             it are not reported as well. *)
          let kind = kind_arg sink line kind in
          match id with
          | Some id when not (declared id) ->
            mcs := (line, Dgmc.Mc_id.make kind id) :: !mcs
          | _ -> ())
        | "mc", _ -> error sink line "mc: expected 'mc <id> <type>'"
        | "at", [] -> error sink line "at: missing time and event"
        | "at", time :: action -> (
          let time = time_arg sink line time in
          match event_args sink line ~mcs:!mcs ~referenced action with
          | Some act when sink.errors = before ->
            events := (line, time, act) :: !events
          | _ -> ())
        | "churn", _ ->
          let d = churn_args sink line ~mcs:!mcs ~referenced args in
          if sink.errors = before then churns := (line, d) :: !churns
        | "health", _ ->
          let d = health_args sink line args in
          health := if sink.errors = before then Some (line, d) else None
        | _ -> error sink line "unknown directive %S" verb))
    (String.split_on_char '\n' text);
  if not (List.mem "graph" !seen) then
    error sink 0 "missing 'graph' directive";
  let config = !config in
  let resolved =
    Option.map
      (fun graph ->
        let round = Dgmc.Config.round_length config ~graph in
        let scripted =
          List.rev !events
          |> List.filter_map (fun (line, (v, rounds), action) ->
                 if in_graph sink graph line action then
                   let time = if rounds then v *. round else v in
                   Some
                     { from_line = line; event = { Events.time; action };
                       churned = false }
                 else None)
        in
        let churned =
          List.rev !churns
          |> List.concat_map (fun (line, d) ->
                 construct sink line (fun () ->
                     Churn.generate
                       (Sim.Rng.create d.churn_seed)
                       ~graph
                       (churn_spec ~graph ~config d))
                 |> Option.value ~default:[]
                 |> List.map (fun event ->
                        { from_line = line; event; churned = true }))
        in
        (* Run order: stable by time, exactly as [Events.sort]. *)
        let timeline =
          List.stable_sort
            (fun a b -> Float.compare a.event.time b.event.time)
            (scripted @ churned)
        in
        let script =
          {
            graph;
            config;
            mcs = List.rev_map snd !mcs;
            events = List.map (fun s -> s.event) timeline;
            faults = Option.map (fun (_, spec, _) -> spec) !faults;
            fault_seed =
              Option.fold ~none:1 ~some:(fun (_, _, seed) -> seed) !faults;
            health = None;
          }
        in
        let script =
          match !health with
          | None -> script
          | Some (line, d) -> (
            match with_health script d with
            | Ok script -> script
            | Error m ->
              error sink line "%s" m;
              script)
        in
        (script, timeline))
      !graph
  in
  {
    script = (if sink.errors = 0 then Option.map fst resolved else None);
    diagnostics =
      List.stable_sort
        (fun a b -> Int.compare a.line b.line)
        (List.rev sink.found);
    timeline = Option.map snd resolved;
    declared = List.rev !mcs;
    referenced = !referenced;
    faults_at = Option.map (fun (line, spec, _) -> (line, spec)) !faults;
    health_at = Option.map fst !health;
  }

let parse text =
  let a = analyse text in
  match a.script with
  | Some script -> Ok script
  | None -> (
    match first_error a.diagnostics with
    | { line = 0; message; _ } -> Stdlib.Error message
    | { line; message; _ } ->
      Stdlib.Error (Printf.sprintf "line %d: %s" line message))

let load path =
  match open_in path with
  | exception Sys_error e -> Stdlib.Error e
  | ic ->
    let len = in_channel_length ic in
    let text = really_input_string ic len in
    close_in ic;
    parse text

let build ?trace ?metrics t =
  (* A scenario with faults needs reliable flooding: the lossless modes
     have no recovery from an injected drop, and the run would diverge
     for reasons that say nothing about the protocol. *)
  let config, faults =
    match t.faults with
    | None -> (t.config, None)
    | Some spec ->
      ( { t.config with flood_mode = Lsr.Flooding.Reliable },
        Some (Faults.Plan.create ~spec ~seed:t.fault_seed ()) )
  in
  let config =
    match t.health with
    | None -> config
    | Some hc -> { config with Dgmc.Config.health = Some hc }
  in
  let net =
    Dgmc.Protocol.create ~graph:t.graph ~config ?faults ?trace ?metrics ()
  in
  Events.apply_dgmc net t.events;
  net

let run ?trace ?metrics t =
  let net = build ?trace ?metrics t in
  Dgmc.Protocol.run net;
  net
