module S = Workload.Script

type severity = S.severity = Error | Warning

type diagnostic = S.diagnostic = {
  line : int;
  severity : severity;
  message : string;
}

(* Two events collide when they do the same thing: a join's role and an
   MC's type are not part of its identity. *)
let same_action (a : Workload.Events.action) (b : Workload.Events.action) =
  match (a, b) with
  | Join x, Join y -> x.switch = y.switch && x.mc.id = y.mc.id
  | Leave x, Leave y -> x.switch = y.switch && x.mc.id = y.mc.id
  | _ -> a = b

let lint text =
  let a = S.analyse text in
  let found = ref [] in
  let emit severity line fmt =
    Printf.ksprintf
      (fun message -> found := { line; severity; message } :: !found)
      fmt
  in
  let err line fmt = emit Error line fmt in
  let warn line fmt = emit Warning line fmt in
  (match a.timeline with
  | None -> ()
  | Some timeline ->
    (* Scripted events in file order: one per line. *)
    let scripted =
      List.filter (fun (s : S.sourced) -> not s.churned) timeline
      |> List.stable_sort (fun (x : S.sourced) y ->
             Int.compare x.from_line y.from_line)
    in
    (* Monotone file order: later lines should not move back in time. *)
    ignore
      (List.fold_left
         (fun prev (s : S.sourced) ->
           (match prev with
           | Some (p : S.sourced) when s.event.time < p.event.time ->
             warn s.from_line
               "event time moves backwards (earlier than line %d); events \
                still run in time order"
               p.from_line
           | _ -> ());
           Some s)
         None scripted);
    (* Exact duplicates. *)
    let rec dup_scan = function
      | [] -> ()
      | (s : S.sourced) :: rest ->
        (match
           List.find_opt
             (fun (r : S.sourced) ->
               r.event.time = s.event.time
               && same_action r.event.action s.event.action)
             rest
         with
        | Some r ->
          err r.from_line "duplicate event (same time and action as line %d)"
            s.from_line
        | None -> ());
        dup_scan rest
    in
    dup_scan scripted;
    (* Replay membership and link state in run order, churn included. *)
    let member = Hashtbl.create 16 in (* (mc, switch) -> () *)
    let link_down = Hashtbl.create 16 in (* (u, v) with u < v *)
    let link line u v ~up =
      let key = (min u v, max u v) in
      let down = Hashtbl.mem link_down key in
      if up && not down then warn line "link (%d, %d) is already up" u v
      else if (not up) && down then
        warn line "link (%d, %d) is already down" u v;
      if up then Hashtbl.remove link_down key
      else Hashtbl.replace link_down key ()
    in
    List.iter
      (fun (s : S.sourced) ->
        match s.event.action with
        | Join { switch; mc; _ } -> Hashtbl.replace member (mc.id, switch) ()
        | Leave { switch; mc } ->
          if not (Hashtbl.mem member (mc.id, switch)) then
            err s.from_line
              "leave without a preceding join (switch %d is not a member \
               of mc %d at this time)"
              switch mc.id
          else Hashtbl.remove member (mc.id, switch)
        | Link_down (u, v) -> link s.from_line u v ~up:false
        | Link_up (u, v) -> link s.from_line u v ~up:true)
      timeline;
    match a.health_at with
    | Some line
      when not
             (List.exists
                (fun (s : S.sourced) ->
                  match s.event.action with
                  | Link_down _ | Link_up _ -> true
                  | Join _ | Leave _ -> false)
                timeline) ->
      warn line
        "health directive but no scripted link events: the detectors have \
         nothing to discover"
    | _ -> ());
  (match a.faults_at with
  | Some (line, spec) when Faults.Plan.spec_is_transparent spec ->
    warn line
      "fault plan injects nothing (all probabilities and delays are zero)"
  | _ -> ());
  List.iter
    (fun (line, (mc : Dgmc.Mc_id.t)) ->
      if not (List.mem mc.id a.referenced) then
        warn line "mc %d declared but never used by any event" mc.id)
    a.declared;
  (* The parser's findings lead on each line, then this pass's. *)
  List.stable_sort
    (fun x y -> Int.compare x.line y.line)
    (a.diagnostics @ List.rev !found)

let lint_file path =
  match open_in path with
  | exception Sys_error e -> Stdlib.Error e
  | ic ->
    let len = in_channel_length ic in
    let text = really_input_string ic len in
    close_in ic;
    Stdlib.Ok (lint text)

let errors diags =
  List.length (List.filter (fun d -> d.severity = Error) diags)

let warnings diags =
  List.length (List.filter (fun d -> d.severity = Warning) diags)

let render ?file d =
  let prefix =
    match (file, d.line) with
    | Some f, 0 -> f ^ ": "
    | Some f, l -> Printf.sprintf "%s:%d: " f l
    | None, 0 -> ""
    | None, l -> Printf.sprintf "line %d: " l
  in
  Printf.sprintf "%s%s: %s" prefix
    (match d.severity with Error -> "error" | Warning -> "warning")
    d.message
