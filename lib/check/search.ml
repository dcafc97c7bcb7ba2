(* Guided forward/backward fault-scenario search (ROADMAP: Helmy–Estrin
   style systematic testing).  Forward mode is Explore's frontier loop
   with a best-first pop order and a target filter; backward mode
   enumerates fault sequences shortest-first and forward-checks each, so
   the first hit is a minimal repro. *)

(* ------------------------------------------------------------------ *)
(* Targets *)

type target = { law : string; kind : Dgmc.Mc_id.kind option }

let any = { law = "any"; kind = None }

let kind_of_string = function
  | "symmetric" -> Some Dgmc.Mc_id.Symmetric
  | "receiver-only" -> Some Dgmc.Mc_id.Receiver_only
  | "asymmetric" -> Some Dgmc.Mc_id.Asymmetric
  | _ -> None

let target_of_string s =
  match String.index_opt s '@' with
  | None -> Ok { law = s; kind = None }
  | Some i -> (
    let law = String.sub s 0 i in
    let kind_s = String.sub s (i + 1) (String.length s - i - 1) in
    match kind_of_string kind_s with
    | Some k -> Ok { law; kind = Some k }
    | None ->
      Error
        (Printf.sprintf
           "unknown MC kind %S in target (expected symmetric, \
            receiver-only or asymmetric)"
           kind_s))

let kind_equal a b =
  match ((a : Dgmc.Mc_id.kind), (b : Dgmc.Mc_id.kind)) with
  | Symmetric, Symmetric | Receiver_only, Receiver_only
  | Asymmetric, Asymmetric ->
    true
  | (Symmetric | Receiver_only | Asymmetric), _ -> false

let is_prefix ~prefix s =
  String.length prefix <= String.length s
  && String.equal prefix (String.sub s 0 (String.length prefix))

(* A target law is matched by prefix, so "agreement" covers both
   agreement-members and agreement-topology. *)
let matches target (v : Invariant.violation) =
  (String.equal target.law "any" || is_prefix ~prefix:target.law v.law)
  &&
  match (target.kind, v.mc) with
  | None, _ -> true
  | Some _, None -> false
  | Some k, Some mc -> kind_equal k mc.Dgmc.Mc_id.kind

(* ------------------------------------------------------------------ *)
(* Forward search *)

type found = Explore.violation = {
  laws : string list;
  message : string;
  trace : string list;
  depth : int;
  state_digest : string;
}

type forward_outcome = {
  f_states : int;
  f_transitions : int;
  f_terminals : int;
  f_other_violations : int;
  f_complete : bool;
  f_found : found option;
}

(* Frontier keys: pop order is the violation-distance heuristic.
   [k_bound] ascending is the admissible primary key (closest to a
   checkable terminal first); the divergence evidence — discord, resync
   depth, deferred queue — breaks ties descending (most evidence
   first); depth then digest make the order total and deterministic. *)
module Key = struct
  type t = {
    k_bound : int;
        (* Harness.pending_count: provable lower bound on actions left
           to any terminal state. *)
    k_discord : int;
        (* Divergent installed-state fingerprint classes, summed over
           MCs: for each MC, the number of distinct (members, topology)
           snapshots across its holders minus one.  0 = full agreement. *)
    k_resync : int;  (* Outstanding resynchronisation peers, summed. *)
    k_deferred : int;  (* Deferred mid-resync LSAs, summed. *)
    k_depth : int;
    k_digest : string;
  }

  let compare a b =
    let c = Int.compare a.k_bound b.k_bound in
    if c <> 0 then c
    else
      let c = Int.compare b.k_discord a.k_discord in
      if c <> 0 then c
      else
        let c = Int.compare b.k_resync a.k_resync in
        if c <> 0 then c
        else
          let c = Int.compare b.k_deferred a.k_deferred in
          if c <> 0 then c
          else
            let c = Int.compare a.k_depth b.k_depth in
            if c <> 0 then c else String.compare a.k_digest b.k_digest

  let of_state h ~depth ~digest =
    let pairs = ref [] in
    let resync = ref 0 in
    let deferred = ref 0 in
    Array.iter
      (fun sw ->
        List.iter
          (fun (s : Dgmc.Switch.mc_snapshot) ->
            pairs :=
              ( Fingerprint.mc_id s.snap_mc,
                Fingerprint.members s.snap_members
                ^ "/"
                ^ Fingerprint.tree s.snap_topology )
              :: !pairs)
          (Dgmc.Switch.snapshots sw);
        (match Dgmc.Switch.resync_state sw with
        | Some (_, outstanding, _, _) ->
          resync := !resync + List.length outstanding
        | None -> ());
        deferred := !deferred + List.length (Dgmc.Switch.deferred_lsas sw))
      (Harness.switches h);
    let sorted =
      List.sort_uniq
        (fun (m1, f1) (m2, f2) ->
          let c = String.compare m1 m2 in
          if c <> 0 then c else String.compare f1 f2)
        !pairs
    in
    (* Distinct (mc, fingerprint) pairs minus distinct mcs = sum over
       MCs of (classes - 1). *)
    let mcs =
      List.sort_uniq String.compare (List.map (fun (m, _) -> m) sorted)
    in
    {
      k_bound = Harness.pending_count h;
      k_discord = List.length sorted - List.length mcs;
      k_resync = !resync;
      k_deferred = !deferred;
      k_depth = depth;
      k_digest = digest;
    }
end

(* The wave width is a fixed property of the algorithm, NOT of the
   domain count: every run — sequential or parallel — pops the same 8
   best frontier entries, expands them as independent pure tasks, and
   merges the results in wave order.  That is what makes the
   outcome byte-identical at any --domains. *)
let guided = { Explore.wave = 8; rank = Key.of_state; compare = Key.compare }

let forward ?(target = any) ?(max_states = 50_000) ?(max_depth = 10_000)
    ?domains scenario =
  let o =
    Explore.search ?domains ~order:guided ~select:(matches target) ~max_states
      ~max_depth scenario
  in
  {
    f_states = o.states;
    f_transitions = o.transitions;
    f_terminals = o.terminals;
    f_other_violations = o.off_target;
    f_complete = o.complete;
    f_found = o.violation;
  }

(* ------------------------------------------------------------------ *)
(* Backward search: minimal fault sequences *)

type backward_outcome = {
  b_candidates : int;  (* Well-formed healed sequences evaluated. *)
  b_max_len : int;
  b_truncated : bool;  (* Candidate budget hit before exhaustion. *)
  b_found : (Harness.event list * found) option;
      (* Shortest reproducing fault sequence, first in enumeration
         order among those of its length. *)
}

(* Well-formedness state threaded through candidate enumeration: only
   sequences an operator could actually inject are generated (leave
   after join, recover after crash, link-up after link-down), and only
   sequences that END healed are evaluated — the terminal laws demand
   agreement, which is only fair once every fault is lifted.  A durable
   partition is expressed as the set of link-downs that cut it. *)
type wstate = {
  ws_members : (int * int) list;  (* (mc id, switch) *)
  ws_down : (int * int) list;  (* (u, v) with u < v *)
  ws_crashed : int list;
}

let mem_pair xs (a, b) = List.exists (fun (x, y) -> x = a && y = b) xs

let apply_event st (ev : Harness.event) =
  match ev with
  | Harness.Join { switch; mc; _ } ->
    { st with ws_members = (mc.Dgmc.Mc_id.id, switch) :: st.ws_members }
  | Harness.Leave { switch; mc } ->
    {
      st with
      ws_members =
        List.filter
          (fun (m, s) -> not (m = mc.Dgmc.Mc_id.id && s = switch))
          st.ws_members;
    }
  | Harness.Link_down (u, v) ->
    { st with ws_down = (min u v, max u v) :: st.ws_down }
  | Harness.Link_up (u, v) ->
    let key = (min u v, max u v) in
    {
      st with
      ws_down = List.filter (fun (x, y) -> not (x = fst key && y = snd key)) st.ws_down;
    }
  | Harness.Crash i -> { st with ws_crashed = i :: st.ws_crashed }
  | Harness.Recover i ->
    { st with ws_crashed = List.filter (fun j -> j <> i) st.ws_crashed }
  | Harness.Hello_round -> st

let roles_for = function
  | Dgmc.Mc_id.Symmetric -> [ Dgmc.Member.Both ]
  | Dgmc.Mc_id.Receiver_only -> [ Dgmc.Member.Receiver ]
  | Dgmc.Mc_id.Asymmetric -> [ Dgmc.Member.Sender; Dgmc.Member.Receiver ]

(* The event alphabet at a well-formedness state, in the fixed order
   that defines which minimal counterexample is reported: membership
   events first (most protocol-relevant), then link faults, then
   crash/recover. *)
let successors ~graph ~mcs st =
  let n = Net.Graph.n_nodes graph in
  let joins =
    List.concat_map
      (fun (mc : Dgmc.Mc_id.t) ->
        List.concat_map
          (fun switch ->
            if mem_pair st.ws_members (mc.id, switch) then []
            else
              List.map
                (fun role -> Harness.Join { switch; mc; role })
                (roles_for mc.kind))
          (List.init n Fun.id))
      mcs
  in
  let leaves =
    List.concat_map
      (fun (mc : Dgmc.Mc_id.t) ->
        List.filter_map
          (fun (m, switch) ->
            if m = mc.id then Some (Harness.Leave { switch; mc }) else None)
          (List.sort
             (fun (m1, s1) (m2, s2) ->
               let c = Int.compare m1 m2 in
               if c <> 0 then c else Int.compare s1 s2)
             st.ws_members))
      mcs
  in
  let edges =
    List.sort
      (fun (e1 : Net.Graph.edge) (e2 : Net.Graph.edge) ->
        let c = Int.compare e1.u e2.u in
        if c <> 0 then c else Int.compare e1.v e2.v)
      (Net.Graph.edges graph)
  in
  let downs =
    List.filter_map
      (fun (e : Net.Graph.edge) ->
        if mem_pair st.ws_down (min e.u e.v, max e.u e.v) then None
        else Some (Harness.Link_down (e.u, e.v)))
      edges
  in
  let ups =
    List.filter_map
      (fun (e : Net.Graph.edge) ->
        if mem_pair st.ws_down (min e.u e.v, max e.u e.v) then
          Some (Harness.Link_up (e.u, e.v))
        else None)
      edges
  in
  let crashes =
    List.filter_map
      (fun i ->
        if List.exists (fun j -> j = i) st.ws_crashed then None
        else Some (Harness.Crash i))
      (List.init n Fun.id)
  in
  let recovers =
    List.filter_map
      (fun i ->
        if List.exists (fun j -> j = i) st.ws_crashed then
          Some (Harness.Recover i)
        else None)
      (List.init n Fun.id)
  in
  joins @ leaves @ downs @ ups @ crashes @ recovers

let healed st = st.ws_down = [] && st.ws_crashed = []

(* Steps still owed before the sequence can end healed: each downed
   link needs its link-up, each crashed switch its recover. *)
let heal_debt st = List.length st.ws_down + List.length st.ws_crashed

let initial_wstate setup =
  List.fold_left apply_event
    { ws_members = []; ws_down = []; ws_crashed = [] }
    setup

(* All well-formed, healed-at-the-end candidate sequences of exactly
   [len] events, in lexicographic successor order, capped at [budget]
   (returns them reversed-appended; the caller re-reverses). *)
let candidates_of_length ~graph ~mcs ~setup ~budget len =
  let out = ref [] in
  let count = ref 0 in
  let truncated = ref false in
  let rec go acc_rev st remaining =
    if !truncated then ()
    else if remaining = 0 then begin
      if healed st then
        if !count >= budget then truncated := true
        else begin
          incr count;
          out := List.rev acc_rev :: !out
        end
    end
    else if heal_debt st > remaining then ()
    else
      List.iter
        (fun ev -> go (ev :: acc_rev) (apply_event st ev) (remaining - 1))
        (successors ~graph ~mcs st)
  in
  go [] (initial_wstate setup) len;
  (List.rev !out, !truncated)

(* Candidate evaluation must be a pure function of the candidate, so
   the chunked parallel dispatch below is deterministic; the inner
   forward search therefore always runs sequentially. *)
let eval_candidate ~target ~per_candidate_states ~graph ~config ~setup race =
  (forward ~target ~max_states:per_candidate_states ~domains:1
     { Explore.graph; config; setup; race })
    .f_found

let chunk_size = 16

let rec chunks k = function
  | [] -> []
  | xs ->
    let rec take n acc = function
      | rest when n = 0 -> (List.rev acc, rest)
      | [] -> (List.rev acc, [])
      | x :: rest -> take (n - 1) (x :: acc) rest
    in
    let c, rest = take k [] xs in
    c :: chunks k rest

let backward ?(target = any) ?(max_len = 4) ?(per_candidate_states = 20_000)
    ?(max_candidates = 50_000) ?domains ~graph ~config
    ?(setup = ([] : Harness.event list)) ~mcs () =
  let evaluated = ref 0 in
  let truncated = ref false in
  let found = ref None in
  let len = ref 1 in
  while !found = None && !len <= max_len && not !truncated do
    let cands, cut =
      candidates_of_length ~graph ~mcs ~setup
        ~budget:(max 0 (max_candidates - !evaluated))
        !len
    in
    if cut then truncated := true;
    (* Fixed-size chunks, evaluated in enumeration order; within a
       chunk every candidate is checked (in parallel), but the first
       failing one in chunk order is the one reported — identical at
       any domain count. *)
    List.iter
      (fun chunk ->
        if !found = None then begin
          let results =
            Runner.Pool.map ?domains
              (eval_candidate ~target ~per_candidate_states ~graph ~config
                 ~setup)
              chunk
          in
          evaluated := !evaluated + List.length chunk;
          List.iter2
            (fun cand result ->
              match (!found, result) with
              | None, Some f -> found := Some (cand, f)
              | _, _ -> ())
            chunk results
        end)
      (chunks chunk_size cands);
    incr len
  done;
  {
    b_candidates = !evaluated;
    b_max_len = max_len;
    b_truncated = !truncated;
    b_found = !found;
  }

(* ------------------------------------------------------------------ *)
(* Event rendering and parsing *)

(* One line per fault event in Check.Fuzz's shrunk-workload format
   ("[<time>] <event>", cf. Workload.Events.pp), with the sequence
   index as the tick: the harness is untimed — the explored
   interleavings are the timing — so the tick is placement, not
   seconds.  crash/recover extend the fuzzer's vocabulary. *)
let event_line i (ev : Harness.event) =
  let describe =
    match ev with
    | Harness.Join { switch; mc; role } ->
      Format.asprintf "join switch=%d %a (%s)" switch Dgmc.Mc_id.pp mc
        (Dgmc.Member.role_to_string role)
    | Harness.Leave { switch; mc } ->
      Format.asprintf "leave switch=%d %a" switch Dgmc.Mc_id.pp mc
    | Harness.Link_down (u, v) -> Printf.sprintf "link-down (%d, %d)" u v
    | Harness.Link_up (u, v) -> Printf.sprintf "link-up (%d, %d)" u v
    | Harness.Crash i -> Printf.sprintf "crash switch=%d" i
    | Harness.Recover i -> Printf.sprintf "recover switch=%d" i
    | Harness.Hello_round -> "hello-round"
  in
  Printf.sprintf "[%d] %s" i describe

let event_lines events = List.mapi event_line events

(* Parse a semicolon-separated event list, e.g.
   "join 0 mc=1; join 2 mc=1 role=sender; crash 3; recover 3".
   Verbs: join, leave, linkdown/down, linkup/up, crash, recover. *)
let events_of_string ~mcs s =
  let ( let* ) = Result.bind in
  let int_of what tok =
    match int_of_string_opt tok with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "%s: expected an integer, got %S" what tok)
  in
  let opt_value opts key =
    List.find_map
      (fun tok ->
        match String.index_opt tok '=' with
        | Some i when String.equal (String.sub tok 0 i) key ->
          Some (String.sub tok (i + 1) (String.length tok - i - 1))
        | _ -> None)
      opts
  in
  let find_mc opts =
    match opt_value opts "mc" with
    | None -> Error "event needs mc=<id>"
    | Some id_s -> (
      let* id = int_of "mc id" id_s in
      match List.find_opt (fun (m : Dgmc.Mc_id.t) -> m.id = id) mcs with
      | Some m -> Ok m
      | None -> Error (Printf.sprintf "mc %d not declared" id))
  in
  let parse_one part =
    let toks =
      String.split_on_char ' ' part |> List.filter (fun t -> t <> "")
    in
    match toks with
    | "join" :: sw :: opts ->
      let* switch = int_of "switch" sw in
      let* mc = find_mc opts in
      let* role =
        match opt_value opts "role" with
        | None -> (
          match mc.kind with
          | Dgmc.Mc_id.Symmetric -> Ok Dgmc.Member.Both
          | Dgmc.Mc_id.Receiver_only -> Ok Dgmc.Member.Receiver
          | Dgmc.Mc_id.Asymmetric -> Ok Dgmc.Member.Sender)
        | Some "sender" -> Ok Dgmc.Member.Sender
        | Some "receiver" -> Ok Dgmc.Member.Receiver
        | Some "both" -> Ok Dgmc.Member.Both
        | Some r -> Error (Printf.sprintf "unknown role %S" r)
      in
      Ok (Harness.Join { switch; mc; role })
    | "leave" :: sw :: opts ->
      let* switch = int_of "switch" sw in
      let* mc = find_mc opts in
      Ok (Harness.Leave { switch; mc })
    | [ ("linkdown" | "down"); u; v ] ->
      let* u = int_of "u" u in
      let* v = int_of "v" v in
      Ok (Harness.Link_down (u, v))
    | [ ("linkup" | "up"); u; v ] ->
      let* u = int_of "u" u in
      let* v = int_of "v" v in
      Ok (Harness.Link_up (u, v))
    | [ "crash"; sw ] ->
      let* switch = int_of "switch" sw in
      Ok (Harness.Crash switch)
    | [ "recover"; sw ] ->
      let* switch = int_of "switch" sw in
      Ok (Harness.Recover switch)
    | [ ("hello-round" | "hello") ] -> Ok Harness.Hello_round
    | verb :: _ -> Error (Printf.sprintf "unknown event %S" verb)
    | [] -> Error "empty event"
  in
  let parts =
    String.split_on_char ';' s
    |> List.map String.trim
    |> List.filter (fun p -> p <> "")
  in
  List.fold_left
    (fun acc part ->
      let* events = acc in
      let* ev = parse_one part in
      Ok (events @ [ ev ]))
    (Ok []) parts

(* ------------------------------------------------------------------ *)
(* Reporting *)

let pp_found ppf f =
  Format.fprintf ppf "@[<v>VIOLATION (depth %d): %s@,state digest %s@,%s@,"
    f.depth
    (String.concat ", " f.laws)
    (Digest.to_hex f.state_digest)
    f.message;
  Format.fprintf ppf "trace (%d steps):@," (List.length f.trace);
  List.iteri (fun i d -> Format.fprintf ppf "  %2d. %s@," (i + 1) d) f.trace;
  Format.fprintf ppf "@]"

let pp_forward ppf o =
  Format.fprintf ppf
    "forward search: %d states, %d transitions, %d terminal states%s"
    o.f_states o.f_transitions o.f_terminals
    (if o.f_complete then " (exhaustive)" else " (bounded)");
  if o.f_other_violations > 0 then
    Format.fprintf ppf "; %d off-target violating state(s) not expanded"
      o.f_other_violations;
  match o.f_found with
  | None -> Format.fprintf ppf "; no matching invariant violation"
  | Some f -> Format.fprintf ppf "@.%a" pp_found f

let pp_backward ppf o =
  Format.fprintf ppf "backward search: %d candidate sequence(s) to length %d%s"
    o.b_candidates o.b_max_len
    (if o.b_truncated then " (budget hit)" else "");
  match o.b_found with
  | None ->
    Format.fprintf ppf
      "@.no fault sequence up to length %d reproduces the target" o.b_max_len
  | Some (events, f) ->
    Format.fprintf ppf "@.minimal fault sequence (%d event(s)):@."
      (List.length events);
    List.iter
      (fun line -> Format.fprintf ppf "  %s@." line)
      (event_lines events);
    Format.fprintf ppf "%a" pp_found f
