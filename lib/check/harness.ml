module Int_set = Set.Make (Int)

module Link_tbl = Hashtbl.Make (struct
  type t = int * int

  let equal (a, b) (c, d) = Int.equal a c && Int.equal b d

  let hash (a, b) = (a * 1000003) lxor b
end)

type payload =
  | Mc of Dgmc.Mc_lsa.t
  | Link of Lsr.Lsdb.link_event
  | Resync of Dgmc.Resync.msg  (* unicast: exactly one pending entry *)

type event =
  | Join of { switch : int; mc : Dgmc.Mc_id.t; role : Dgmc.Member.role }
  | Leave of { switch : int; mc : Dgmc.Mc_id.t }
  | Link_down of int * int
  | Link_up of int * int
  | Crash of int
  | Recover of int
  | Hello_round

(* Round-granular abstraction of one hello agent's view of one directed
   adjacency (DESIGN.md §3f): real sim-time detector deadlines become
   "misses >= a_detect_rounds", damping penalty decay becomes
   "a_reuse_rounds calm rounds lift suppression".  State is mutable and
   part of the digest. *)
type health_link = {
  watcher : int;
  hl_peer : int;
  mutable hl_up : bool;  (* the watcher's belief *)
  mutable hl_misses : int;  (* consecutive silent rounds *)
  mutable hl_streak : int;  (* consecutive arrivals while believed down *)
  mutable hl_flaps : int;  (* cumulative down declarations *)
  mutable hl_suppressed : bool;
  mutable hl_calm : int;  (* suppressed rounds so far *)
  mutable hl_truth_rounds : int;
      (* Rounds since the adjacency's ground truth last changed (or the
         watcher recovered) — the clock the detection-bound law reads. *)
}

type health = {
  hcfg : Health.Config.t;
  habs : Health.Config.abstract;
  hlinks : health_link array;  (* sorted by (watcher, peer) *)
  mutable hspurious : string list;
      (* Down declarations made against ground truth, newest first. *)
}

type action = Deliver of { dst : int; msg : int } | Complete of int

type msg = {
  origin : int;
  payload : payload;
  past : Int_set.t;
      (* Ids the origin had delivered or flooded when this was flooded:
         every one of them causally precedes this message at every
         destination (triangle inequality of hop-by-hop flooding). *)
  fp : string;
}

type t = {
  n : int;
  net_graph : Net.Graph.t;  (* ground truth *)
  switches : Dgmc.Switch.t array;
  engines : Sim.Engine.t array;
  msgs : (int, msg) Hashtbl.t;
  mutable next_id : int;
  mutable pending : (int * int) list;  (* (dst, msg id), arrival order *)
  known : Int_set.t array;
      (* Per switch: causal context = delivered ids, their pasts, and own
         floods.  Becomes the [past] of this switch's next flood. *)
  link_versions : int Link_tbl.t;
      (* Ground-truth per-link change counter, mirroring
         Protocol.link_change's version assignment. *)
  crashed : bool array;
      (* Forwarding-plane outage, mirroring Faults.Plan's crash windows:
         a crashed switch neither sends nor receives (messages are LOST,
         not queued), but its protocol state and computations survive. *)
  mutable truth : (Dgmc.Mc_id.t * Dgmc.Member.t) list;
  health : health option;
      (* Present iff [config.health] was set: link events touch ground
         truth only and {!Hello_round}s drive the abstract detectors. *)
}

let compare_pairs (a, b) (c, d) =
  match Int.compare a c with 0 -> Int.compare b d | r -> r

let msg_exn t id =
  match Hashtbl.find_opt t.msgs id with
  | Some m -> m
  | None -> invalid_arg (Printf.sprintf "Harness: unknown message %d" id)

let payload_fp = function
  | Mc l -> Fingerprint.mc_lsa l
  | Link e -> Fingerprint.link_event e
  | Resync m ->
    (* One line: the blocker lists and digest are line-oriented. *)
    String.map
      (fun c -> if Char.equal c '\n' then ';' else c)
      (Dgmc.Resync.to_string m)

let record t origin payload =
  let id = t.next_id in
  t.next_id <- id + 1;
  let m = { origin; payload; past = t.known.(origin); fp = payload_fp payload } in
  Hashtbl.replace t.msgs id m;
  t.known.(origin) <- Int_set.add id t.known.(origin);
  id

let flood t origin payload =
  let id = record t origin payload in
  if not t.crashed.(origin) then begin
    (* Deliveries to crashed switches are dropped at flood time, not
       queued: the fault model loses messages during an outage. *)
    let additions = ref [] in
    for dst = t.n - 1 downto 0 do
      if dst <> origin && not t.crashed.(dst) then
        additions := (dst, id) :: !additions
    done;
    t.pending <- t.pending @ !additions
  end

(* Unicast transport for resynchronisation messages.  A send towards a
   crashed neighbor resolves synchronously the way the reliable
   transport eventually would: summaries report a giveup to their
   session, deltas are simply lost (the recoverer's deadline covers
   them). *)
let unicast t origin dst msg =
  if not t.crashed.(origin) then
    if t.crashed.(dst) then (
      match msg with
      | Dgmc.Resync.Summary _ ->
        Dgmc.Switch.resync_transport_failed t.switches.(origin) ~peer:dst
      | Dgmc.Resync.Delta _ -> ())
    else begin
      let id = record t origin (Resync msg) in
      t.pending <- t.pending @ [ (dst, id) ]
    end

let create ~graph ~config () =
  let graph = Net.Graph.copy graph in
  let n = Net.Graph.n_nodes graph in
  let engines = Array.init n (fun _ -> Sim.Engine.create ()) in
  let switches =
    Array.init n (fun id ->
        Dgmc.Switch.create ~id ~n ~config ~engine:engines.(id) ~graph ())
  in
  let health =
    Option.map
      (fun hcfg ->
        let hlinks =
          Net.Graph.all_edges graph
          |> List.concat_map (fun ((e : Net.Graph.edge), _) ->
                 [ (e.Net.Graph.u, e.Net.Graph.v); (e.Net.Graph.v, e.Net.Graph.u) ])
          |> List.sort compare_pairs
          |> List.map (fun (watcher, peer) ->
                 {
                   watcher;
                   hl_peer = peer;
                   hl_up = true;
                   hl_misses = 0;
                   hl_streak = 0;
                   hl_flaps = 0;
                   hl_suppressed = false;
                   hl_calm = 0;
                   hl_truth_rounds = 0;
                 })
          |> Array.of_list
        in
        { hcfg; habs = Health.Config.abstract hcfg; hlinks; hspurious = [] })
      config.Dgmc.Config.health
  in
  let t =
    {
      n;
      net_graph = graph;
      switches;
      engines;
      msgs = Hashtbl.create 64;
      next_id = 0;
      pending = [];
      known = Array.make n Int_set.empty;
      link_versions = Link_tbl.create 16;
      crashed = Array.make n false;
      truth = [];
      health;
    }
  in
  Array.iteri
    (fun i sw ->
      Dgmc.Switch.set_flood sw (fun lsa -> flood t i (Mc lsa));
      Dgmc.Switch.set_flood_link sw (fun ev -> flood t i (Link ev));
      Dgmc.Switch.set_send_resync sw (fun ~peer msg -> unicast t i peer msg))
    switches;
  t

let switches t = t.switches

let pending_count t =
  List.length t.pending
  + Array.fold_left (fun acc e -> acc + Sim.Engine.pending e) 0 t.engines
let graph t = t.net_graph
let truth t = t.truth

let truth_members t mc =
  match List.find_opt (fun (m, _) -> Dgmc.Mc_id.equal m mc) t.truth with
  | Some (_, m) -> m
  | None -> Dgmc.Member.empty

let set_truth t mc members =
  t.truth <-
    (mc, members)
    :: List.filter (fun (m, _) -> not (Dgmc.Mc_id.equal m mc)) t.truth
    |> List.sort (fun (a, _) (b, _) -> Dgmc.Mc_id.compare a b)

(* A belief change at [hl.watcher] about its adjacency to [hl.hl_peer]:
   version the event (same counter Protocol.link_change uses), judge a
   down verdict against ground truth, tell the switch, flood the link
   LSA, and apply abstract damping. *)
let health_declare t h (hl : health_link) ~up =
  let w = hl.watcher and p = hl.hl_peer in
  let lo = min w p and hi = max w p in
  let version =
    1 + Option.value ~default:0 (Link_tbl.find_opt t.link_versions (lo, hi))
  in
  Link_tbl.replace t.link_versions (lo, hi) version;
  let link_ev = { Lsr.Lsdb.u = w; v = p; up; version } in
  hl.hl_up <- up;
  if not up then begin
    hl.hl_flaps <- hl.hl_flaps + 1;
    if Net.Graph.link_is_up t.net_graph w p && not t.crashed.(p) then
      h.hspurious <-
        Printf.sprintf
          "switch %d declared its link to %d down against ground truth" w p
        :: h.hspurious
  end;
  Dgmc.Switch.link_event t.switches.(w) link_ev ~detector:true;
  flood t w (Link link_ev);
  if not up then
    match h.habs.Health.Config.a_suppress_flaps with
    | Some k when hl.hl_flaps >= k ->
      hl.hl_suppressed <- true;
      hl.hl_calm <- 0
    | _ -> ()

(* One abstract hello round, every directed adjacency in deterministic
   order.  An arrival happens iff ground truth allows it: link up,
   sender alive, and neither direction suppressed (a suppressed
   interface neither sends nor listens).  A crashed watcher is paused —
   its detectors restart fresh, as Hello.resume does. *)
let hello_round t h =
  Array.iter
    (fun hl ->
      let w = hl.watcher and p = hl.hl_peer in
      if t.crashed.(w) then begin
        hl.hl_misses <- 0;
        hl.hl_streak <- 0;
        hl.hl_truth_rounds <- 0
      end
      else begin
        hl.hl_truth_rounds <- hl.hl_truth_rounds + 1;
        if hl.hl_suppressed then begin
          hl.hl_calm <- hl.hl_calm + 1;
          if hl.hl_calm >= h.habs.Health.Config.a_reuse_rounds then begin
            hl.hl_suppressed <- false;
            hl.hl_misses <- 0;
            hl.hl_streak <- 0
          end
        end
        else
          let reverse_suppressed =
            Array.exists
              (fun o -> o.watcher = p && o.hl_peer = w && o.hl_suppressed)
              h.hlinks
          in
          let arrival =
            Net.Graph.link_is_up t.net_graph w p
            && (not t.crashed.(p))
            && not reverse_suppressed
          in
          if arrival then begin
            hl.hl_misses <- 0;
            if not hl.hl_up then begin
              hl.hl_streak <- hl.hl_streak + 1;
              if hl.hl_streak >= h.hcfg.Health.Config.reup then begin
                hl.hl_streak <- 0;
                health_declare t h hl ~up:true
              end
            end
          end
          else begin
            hl.hl_streak <- 0;
            hl.hl_misses <- hl.hl_misses + 1;
            if hl.hl_up && hl.hl_misses >= h.habs.Health.Config.a_detect_rounds
            then health_declare t h hl ~up:false
          end
      end)
    h.hlinks

let inject t ev =
  match ev with
  | Join { switch; mc; role } ->
    set_truth t mc (Dgmc.Member.join (truth_members t mc) switch role);
    Dgmc.Switch.host_join t.switches.(switch) mc role
  | Leave { switch; mc } ->
    set_truth t mc (Dgmc.Member.leave (truth_members t mc) switch);
    Dgmc.Switch.host_leave t.switches.(switch) mc
  | Hello_round -> (
    match t.health with
    | None ->
      invalid_arg "Harness: Hello_round requires a config with health set"
    | Some h -> hello_round t h)
  | Link_down (u, v) | Link_up (u, v) -> (
    let up = match ev with Link_up _ -> true | _ -> false in
    Net.Graph.set_link t.net_graph u v ~up;
    match t.health with
    | Some h ->
      (* Ground truth only: the detectors must discover the change over
         the coming hello rounds. *)
      Array.iter
        (fun hl ->
          if
            (hl.watcher = u && hl.hl_peer = v)
            || (hl.watcher = v && hl.hl_peer = u)
          then hl.hl_truth_rounds <- 0)
        h.hlinks
    | None ->
      let lo = min u v and hi = max u v in
      let version =
        1 + Option.value ~default:0 (Link_tbl.find_opt t.link_versions (lo, hi))
      in
      Link_tbl.replace t.link_versions (lo, hi) version;
      let link_ev = { Lsr.Lsdb.u = lo; v = hi; up; version } in
      (* Same order as Protocol.link_change: the higher endpoint detects
         and floods first, then the lower one. *)
      List.iter
        (fun d ->
          Dgmc.Switch.link_event t.switches.(d) link_ev ~detector:true;
          flood t d (Link link_ev))
        [ hi; lo ])
  | Crash i ->
    if t.crashed.(i) then invalid_arg "Harness: switch already crashed";
    t.crashed.(i) <- true;
    (match t.health with
    | Some h ->
      (* The crash is a ground-truth change for everyone watching i, and
         freezes i's own sensing clocks. *)
      Array.iter
        (fun hl ->
          if hl.hl_peer = i || hl.watcher = i then hl.hl_truth_rounds <- 0)
        h.hlinks
    | None -> ());
    (* Everything in flight to or from the crashed switch is lost, as
       under Faults.Plan (transmissions blocked both ways).  A lost
       summary resolves to the transport giveup its sender would
       eventually see. *)
    let dropped, kept =
      List.partition
        (fun (d, id) -> d = i || (msg_exn t id).origin = i)
        t.pending
    in
    t.pending <- kept;
    List.iter
      (fun (d, id) ->
        let m = msg_exn t id in
        match m.payload with
        | Resync (Dgmc.Resync.Summary _) when d = i ->
          Dgmc.Switch.resync_transport_failed t.switches.(m.origin) ~peer:i
        | Resync _ | Mc _ | Link _ -> ())
      dropped
  | Recover i ->
    if not t.crashed.(i) then invalid_arg "Harness: switch not crashed";
    t.crashed.(i) <- false;
    (match t.health with
    | Some h ->
      Array.iter
        (fun hl ->
          (* The recoverer resumes with fresh detectors; its return is a
             ground-truth change for everyone watching it. *)
          if hl.watcher = i then begin
            hl.hl_misses <- 0;
            hl.hl_streak <- 0;
            hl.hl_truth_rounds <- 0
          end;
          if hl.hl_peer = i then hl.hl_truth_rounds <- 0)
        h.hlinks
    | None -> ());
    Dgmc.Switch.begin_resync t.switches.(i)

let pending_to t =
  let arr = Array.make t.n Int_set.empty in
  List.iter (fun (d, id) -> arr.(d) <- Int_set.add id arr.(d)) t.pending;
  arr

let blocker_fps t ptol (m : msg) d =
  Int_set.inter m.past ptol.(d)
  |> Int_set.elements
  |> List.map (fun id -> (msg_exn t id).fp)
  |> List.sort String.compare

(* Two enabled deliveries are interchangeable — lead to digest-identical
   successors — when they target the same switch with the same payload
   AND play the same role in everyone else's causal structure: same
   membership in each switch's known set, same relation to every other
   pending message.  Only then is it sound to expand just one. *)
let delivery_signature t ptol (d, id) =
  let m = msg_exn t id in
  let ctx =
    Array.to_list t.known
    |> List.map (fun k -> if Int_set.mem id k then "1" else "0")
    |> String.concat ""
  in
  let rel =
    List.filter_map
      (fun (d', id') ->
        if d' = d && id' = id then None
        else
          let m' = msg_exn t id' in
          let tag =
            if id' = id then
              "self:" ^ String.concat ";" (blocker_fps t ptol m d')
            else if Int_set.mem id m'.past then "blocks"
            else "-"
          in
          Some (Printf.sprintf "%d|%s|%s" d' m'.fp tag))
      t.pending
    |> List.sort String.compare
  in
  Printf.sprintf "%d|%s|%s|%s" d m.fp ctx (String.concat "&" rel)

let enabled t =
  let ptol = pending_to t in
  let causally_free (d, id) =
    Int_set.is_empty (Int_set.inter (msg_exn t id).past ptol.(d))
  in
  let seen = Hashtbl.create 16 in
  let deliveries =
    List.filter
      (fun p ->
        causally_free p
        &&
        let s = delivery_signature t ptol p in
        if Hashtbl.mem seen s then false
        else begin
          Hashtbl.add seen s ();
          true
        end)
      t.pending
    |> List.map (fun (d, id) -> Deliver { dst = d; msg = id })
  in
  let completions =
    List.init t.n (fun i -> i)
    |> List.filter_map (fun i ->
           if Sim.Engine.pending t.engines.(i) > 0 then Some (Complete i)
           else None)
  in
  deliveries @ completions

let remove_pending t dst id =
  let rec go = function
    | [] -> invalid_arg "Harness.apply: message not pending at destination"
    | (d, i) :: rest when d = dst && i = id -> rest
    | p :: rest -> p :: go rest
  in
  t.pending <- go t.pending

let apply t action =
  match action with
  | Deliver { dst; msg } ->
    let m = msg_exn t msg in
    let ptol = pending_to t in
    if not (Int_set.is_empty (Int_set.inter m.past ptol.(dst))) then
      invalid_arg "Harness.apply: delivery not causally enabled";
    remove_pending t dst msg;
    t.known.(dst) <- Int_set.add msg (Int_set.union t.known.(dst) m.past);
    (match m.payload with
    | Mc lsa -> Dgmc.Switch.receive t.switches.(dst) lsa
    | Link ev -> Dgmc.Switch.link_event t.switches.(dst) ev ~detector:false
    | Resync msg -> Dgmc.Switch.receive_resync t.switches.(dst) msg)
  | Complete i ->
    if not (Sim.Engine.step t.engines.(i)) then
      invalid_arg "Harness.apply: no computation pending at switch"

(* Same selection rule as [enabled]'s head — first causally-free
   delivery in pool order, else first switch with a pending computation
   — but without the interchangeability signatures, which replay makes
   hot: every explored edge re-runs the whole setup settle. *)
let first_enabled t =
  let ptol = pending_to t in
  match
    List.find_opt
      (fun (d, id) ->
        Int_set.is_empty (Int_set.inter (msg_exn t id).past ptol.(d)))
      t.pending
  with
  | Some (d, id) -> Some (Deliver { dst = d; msg = id })
  | None ->
    let rec comp i =
      if i >= t.n then None
      else if Sim.Engine.pending t.engines.(i) > 0 then Some (Complete i)
      else comp (i + 1)
    in
    comp 0

let settle t =
  let budget = ref 200_000 in
  let rec loop () =
    match first_enabled t with
    | None -> ()
    | Some a ->
      decr budget;
      if !budget <= 0 then invalid_arg "Harness.settle: no quiescence reached";
      apply t a;
      loop ()
  in
  loop ()

let digest t =
  let ptol = pending_to t in
  let b = Buffer.create 2048 in
  Array.iter
    (fun sw ->
      Fingerprint.add_switch b sw;
      Buffer.add_char b '\n')
    t.switches;
  let pool =
    List.map
      (fun (d, id) ->
        let m = msg_exn t id in
        Printf.sprintf "%d|%s|[%s]" d m.fp
          (String.concat ";" (blocker_fps t ptol m d)))
      t.pending
    |> List.sort String.compare
  in
  List.iter
    (fun line ->
      Buffer.add_string b line;
      Buffer.add_char b '\n')
    pool;
  Array.iteri
    (fun i k ->
      let entries =
        List.filter_map
          (fun (d, id) ->
            if Int_set.mem id k then
              Some (Printf.sprintf "%d:%s" d (msg_exn t id).fp)
            else None)
          t.pending
        |> List.sort String.compare
      in
      Buffer.add_string b (Printf.sprintf "k%d=[%s]\n" i (String.concat ";" entries)))
    t.known;
  List.iter
    (fun (mc, m) ->
      Buffer.add_string b (Fingerprint.mc_id mc);
      Buffer.add_char b '=';
      Buffer.add_string b (Fingerprint.members m);
      Buffer.add_char b '\n')
    t.truth;
  Buffer.add_string b "crashed=";
  Array.iter (fun c -> Buffer.add_char b (if c then '1' else '0')) t.crashed;
  Buffer.add_char b '\n';
  (match t.health with
  | None -> ()
  | Some h ->
    Array.iter
      (fun hl ->
        Buffer.add_string b
          (Printf.sprintf "h%d>%d=%b|%d|%d|%d|%b|%d|%d\n" hl.watcher
             hl.hl_peer hl.hl_up hl.hl_misses hl.hl_streak hl.hl_flaps
             hl.hl_suppressed hl.hl_calm hl.hl_truth_rounds))
      h.hlinks;
    Buffer.add_string b
      (Printf.sprintf "hspurious=%d\n" (List.length h.hspurious)));
  Buffer.add_string b (Fingerprint.graph_links t.net_graph);
  Digest.string (Buffer.contents b)

(* ------------------------------------------------------------------ *)
(* Link-health observation (abstract model; see DESIGN.md §3f) *)

type adjacency_view = {
  av_watcher : int;
  av_peer : int;
  av_up : bool;  (* the watcher's belief *)
  av_suppressed : bool;
  av_truth_down : bool;
      (* Ground truth: the adjacency is unusable (link down or peer
         crashed). *)
  av_stable_rounds : int;
      (* Hello rounds since the adjacency's truth last changed while the
         watcher was alive. *)
}


let health_adjacencies t =
  match t.health with
  | None -> []
  | Some h ->
    Array.to_list h.hlinks
    |> List.map (fun hl ->
           {
             av_watcher = hl.watcher;
             av_peer = hl.hl_peer;
             av_up = hl.hl_up;
             av_suppressed = hl.hl_suppressed;
             av_truth_down =
               (not (Net.Graph.link_is_up t.net_graph hl.watcher hl.hl_peer))
               || t.crashed.(hl.hl_peer);
             av_stable_rounds = hl.hl_truth_rounds;
           })

let health_spurious t =
  match t.health with None -> [] | Some h -> List.rev h.hspurious

let health_detect_rounds t =
  Option.map (fun h -> h.habs.Health.Config.a_detect_rounds) t.health

let suppressed_links t =
  match t.health with
  | None -> []
  | Some h ->
    Array.to_list h.hlinks
    |> List.filter_map (fun hl ->
           if hl.hl_suppressed then
             Some (min hl.watcher hl.hl_peer, max hl.watcher hl.hl_peer)
           else None)
    |> List.sort_uniq compare_pairs

let describe t action =
  match action with
  | Deliver { dst; msg } ->
    let m = msg_exn t msg in
    let pl =
      match m.payload with
      | Mc lsa -> Format.asprintf "%a" Dgmc.Mc_lsa.pp lsa
      | Link e -> Format.asprintf "%a" Lsr.Lsdb.pp_link_event e
      | Resync (Dgmc.Resync.Summary { session; _ }) ->
        Printf.sprintf "resync summary (session %d)" session
      | Resync (Dgmc.Resync.Delta { session; _ }) ->
        Printf.sprintf "resync delta (session %d)" session
    in
    Printf.sprintf "deliver to switch %d (flooded by %d): %s" dst m.origin pl
  | Complete i -> Printf.sprintf "complete topology computation at switch %d" i
