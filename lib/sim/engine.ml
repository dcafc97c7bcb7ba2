type handle = Event_queue.handle

type t = {
  queue : (unit -> unit) Event_queue.t;
  mutable clock : float;
  mutable executed : int;
  mutable stop_requested : bool;
  mutable probe : (unit -> unit) option;
      (* Telemetry hook run after each executed event; [None] (the
         default) costs one pattern-match branch per step. *)
}

let create () =
  {
    queue = Event_queue.create ();
    clock = 0.0;
    executed = 0;
    stop_requested = false;
    probe = None;
  }

let now t = t.clock

let schedule t ~delay f =
  if not (Float.is_finite delay) || delay < 0.0 then
    invalid_arg "Engine.schedule: delay must be finite and non-negative";
  Event_queue.schedule t.queue ~time:(t.clock +. delay) f

let schedule_at t ~time f =
  if time < t.clock then invalid_arg "Engine.schedule_at: time is in the past";
  Event_queue.schedule t.queue ~time f

let cancel = Event_queue.cancel

let pending t = Event_queue.length t.queue

let events_executed t = t.executed

let set_probe t f = t.probe <- Some f

let step t =
  match Event_queue.pop t.queue with
  | None -> false
  | Some (time, f) ->
    t.clock <- time;
    t.executed <- t.executed + 1;
    f ();
    (match t.probe with None -> () | Some probe -> probe ());
    true

let run ?until ?max_events t =
  t.stop_requested <- false;
  let budget = ref (match max_events with Some n -> n | None -> max_int) in
  let continue = ref true in
  while !continue do
    if t.stop_requested || !budget = 0 then continue := false
    else
      match Event_queue.peek_time t.queue with
      | None -> continue := false
      | Some time ->
        (match until with
        | Some horizon when time > horizon ->
          t.clock <- horizon;
          continue := false
        | Some _ | None ->
          ignore (step t);
          decr budget)
  done

let stop t = t.stop_requested <- true

let reset t =
  Event_queue.clear t.queue;
  t.clock <- 0.0;
  t.stop_requested <- false
