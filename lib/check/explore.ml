type scenario = {
  graph : Net.Graph.t;
  config : Dgmc.Config.t;
  setup : Harness.event list;
  race : Harness.event list;
}

type violation = {
  laws : string list;
  message : string;
  trace : string list;
  depth : int;
  state_digest : string;
}

type outcome = {
  states : int;
  transitions : int;
  terminals : int;
  off_target : int;
  complete : bool;
  violation : violation option;
}

(* Rebuild the state reached by [prefix]: the harness is deterministic
   for a fixed action sequence, so replay substitutes for cloning.
   Returns the live harness and the rendered action descriptions. *)
let build scenario prefix =
  let h = Harness.create ~graph:scenario.graph ~config:scenario.config () in
  List.iter (Harness.inject h) scenario.setup;
  Harness.settle h;
  List.iter (Harness.inject h) scenario.race;
  let descs =
    List.map
      (fun a ->
        let d = Harness.describe h a in
        Harness.apply h a;
        d)
      prefix
  in
  (h, descs)

let check_state h =
  let base =
    Array.to_list (Harness.switches h)
    |> List.concat_map (fun sw ->
           Invariant.check_switch ~id:(Dgmc.Switch.id sw) sw)
  in
  match Harness.health_detect_rounds h with
  | None -> base
  | Some detect_rounds ->
    base
    @ Invariant.check_health_state ~detect_rounds
        ~spurious:(Harness.health_spurious h)
        (Harness.health_adjacencies h)

let check_terminal h =
  Invariant.check_terminal ~graph:(Harness.graph h) ~truth:(Harness.truth h)
    (Harness.switches h)
  @ Invariant.check_health_terminal
      ~suppressed:(Harness.suppressed_links h) (Harness.switches h)

type 'k order = {
  wave : int;
  rank : Harness.t -> depth:int -> digest:string -> 'k;
  compare : 'k -> 'k -> int;
}

let bfs =
  {
    wave = 1;
    rank = (fun _ ~depth:_ ~digest:_ -> ());
    compare = (fun () () -> 0);
  }

module Digests = Set.Make (String)

(* What an edge reveals about a child whose digest was not seen before
   its wave: the terminal laws' verdict, or the child's frontier rank
   and enabled actions. *)
type 'k fresh =
  | Terminal of Invariant.violation list
  | Inner of 'k * Harness.action list

type 'k edge = {
  prefix : Harness.action list;  (* parent prefix @ [act] *)
  digest : string;
  viols : Invariant.violation list;  (* per-state and monotonicity laws *)
  fresh : 'k fresh option;  (* None: violating edge or known digest *)
}

let edge order ~seen h ~prefix viols =
  let digest = Harness.digest h in
  let fresh =
    if viols <> [] || Digests.mem digest seen then None
    else
      match Harness.enabled h with
      | [] -> Some (Terminal (check_terminal h))
      | acts ->
        Some (Inner (order.rank h ~depth:(List.length prefix) ~digest, acts))
  in
  { prefix; digest; viols; fresh }

(* The one transition check: replay the parent, apply [act], and check
   the per-state laws and C-monotonicity on the child. *)
let step order ~seen scenario prefix act =
  let h, _ = build scenario prefix in
  let before = Array.map Invariant.installed_stamps (Harness.switches h) in
  Harness.apply h act;
  let monotone =
    Array.to_list
      (Array.mapi
         (fun i sw -> Invariant.check_monotone ~id:i ~before:before.(i) sw)
         (Harness.switches h))
    |> List.concat
  in
  edge order ~seen h ~prefix:(prefix @ [ act ]) (check_state h @ monotone)

(* No partial-order reduction here, deliberately.  The tempting
   persistent set — all enabled actions of one switch d — is unsound in
   this system: a Complete at another switch can flood a FRESH message
   to d whose delivery is immediately enabled and dependent (same
   mailbox) with d's currently-enabled deliveries, so the orderings
   where it arrives at d first would never be explored, and terminal
   states differing only in which proposal a switch last installed (its
   C stamp) would be silently lost.  Exhaustiveness over the deduped
   state graph is the whole point of this checker; the per-edge replay
   is kept cheap instead (see Harness.first_enabled). *)
let search ?domains ~order ~select ~max_states ~max_depth scenario =
  (* Entries tie-break on push order, so a constant rank is FIFO. *)
  let frontier =
    Sim.Heap.create ~cmp:(fun (a, i, _) (b, j, _) ->
        let c = order.compare a b in
        if c <> 0 then c else Int.compare i j)
  in
  let pushed = ref 0 in
  let seen = ref Digests.empty in
  let states = ref 0 in
  let transitions = ref 0 in
  let terminals = ref 0 in
  let off_target = ref 0 in
  let truncated = ref false in
  let found = ref None in
  (* A hit is rare, so its trace is rendered by one more replay rather
     than carried on every edge. *)
  let report e ~terminal viols =
    match List.filter select viols with
    | [] -> incr off_target
    | hits ->
      let trace =
        match e.prefix with
        | [] -> [ "(initial state, before any race delivery)" ]
        | prefix -> snd (build scenario prefix)
      in
      found :=
        Some
          {
            laws =
              List.sort_uniq String.compare
                (List.map (fun (v : Invariant.violation) -> v.law) hits);
            message = String.concat "\n" (List.map Invariant.to_string hits);
            trace =
              (if terminal then trace @ [ "(terminal state)" ] else trace);
            depth = List.length e.prefix;
            state_digest = e.digest;
          }
  in
  (* Sequential, in wave order: dedup, check the bounds, classify. *)
  let merge e =
    if e.viols <> [] then report e ~terminal:false e.viols
    else
      match e.fresh with
      | Some fresh when not (Digests.mem e.digest !seen) -> (
        seen := Digests.add e.digest !seen;
        incr states;
        if !states > max_states then truncated := true
        else
          match fresh with
          | Terminal [] -> incr terminals
          | Terminal viols -> report e ~terminal:true viols
          | Inner (key, acts) ->
            if List.length e.prefix >= max_depth then truncated := true
            else begin
              Sim.Heap.add frontier (key, !pushed, (e.prefix, acts));
              incr pushed
            end)
      | Some _ | None -> ()
  in
  let h0, _ = build scenario [] in
  merge (edge order ~seen:!seen h0 ~prefix:[] (check_state h0));
  let rec pop n acc =
    match if n > 0 then Sim.Heap.pop frontier else None with
    | Some (_, _, entry) -> pop (n - 1) (entry :: acc)
    | None -> List.rev acc
  in
  let rec loop () =
    if !found = None && not (Sim.Heap.is_empty frontier) then begin
      (* A wave's edges are pure tasks against the digests seen before
         it, so their results do not depend on the domain count; the
         merge then takes them in wave order. *)
      let seen_before = !seen in
      let expand (prefix, acts) =
        List.map (step order ~seen:seen_before scenario prefix) acts
      in
      Runner.Pool.map ?domains expand (pop order.wave [])
      |> List.iter
           (List.iter (fun e ->
                if !found = None then begin
                  incr transitions;
                  merge e
                end));
      loop ()
    end
  in
  loop ();
  {
    states = !states;
    transitions = !transitions;
    terminals = !terminals;
    off_target = !off_target;
    complete = !found = None && (not !truncated) && !off_target = 0;
    violation = !found;
  }

let run ?(max_states = 200_000) ?(max_depth = 10_000) scenario =
  search ~order:bfs ~select:(fun _ -> true) ~max_states ~max_depth scenario

let pp_outcome ppf o =
  Format.fprintf ppf "%d states, %d transitions, %d terminal states%s"
    o.states o.transitions o.terminals
    (if o.complete then " (exhaustive)" else " (bounded)");
  match o.violation with
  | None -> Format.fprintf ppf "; no invariant violations"
  | Some v ->
    Format.fprintf ppf "@.VIOLATION: %s@.trace (%d steps):@." v.message
      (List.length v.trace);
    List.iteri (fun i d -> Format.fprintf ppf "  %2d. %s@." (i + 1) d) v.trace
