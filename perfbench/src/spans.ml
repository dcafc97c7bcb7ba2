(* In-memory span log for the traced run.

   The benchmark opens a span around each of its own calls into a layer.
   Finer-grained time measured inside a span by the program's own phase
   probe is charged to the span as [inner]; a span's self time is its
   duration minus its child spans and its inner time.  Spans are written
   out only when the run ends. *)

type span = {
  id : int;
  name : string;
  parent : int;  (** [-1] for a root. *)
  start : float;
  mutable stop : float;
  mutable inner : float;
}

type t = { mutable log : span list; mutable stack : span list; mutable next : int }

let create () = { log = []; stack = []; next = 0 }

let enter t ~now name =
  let parent = match t.stack with p :: _ -> p.id | [] -> -1 in
  let s = { id = t.next; name; parent; start = now; stop = now; inner = 0.0 } in
  t.next <- t.next + 1;
  t.stack <- s :: t.stack;
  t.log <- s :: t.log;
  s

let leave t ~now =
  match t.stack with
  | s :: rest ->
    s.stop <- now;
    t.stack <- rest
  | [] -> invalid_arg "Spans.leave: no open span"

let spans t = List.rev t.log

(* Self time of every span, in log order: duration, minus the duration
   of its direct children, minus its inner time; clamped at zero. *)
let self_times spans =
  let children = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace children s.parent
          ((s.stop -. s.start)
          +. Option.value ~default:0.0 (Hashtbl.find_opt children s.parent)))
    spans;
  List.map
    (fun s ->
      let kids = Option.value ~default:0.0 (Hashtbl.find_opt children s.id) in
      (s, Float.max 0.0 (s.stop -. s.start -. kids -. s.inner)))
    spans

let dump spans oc =
  let t0 = match spans with s :: _ -> s.start | [] -> 0.0 in
  List.iter
    (fun (s, self) ->
      Printf.fprintf oc
        "{\"id\":%d,\"name\":\"%s\",\"parent\":%d,\"start_s\":%.9f,\"end_s\":%.9f,\"self_s\":%.9f}\n"
        s.id s.name s.parent (s.start -. t0) (s.stop -. t0) self)
    (self_times spans)
