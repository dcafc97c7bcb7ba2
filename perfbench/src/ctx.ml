(* What a workload's cells run under: the calibration meter, and in the
   traced run a tracer.

   The tracer keeps three sources: the benchmark's own spans around its
   calls into each layer, a fresh [Metrics.Phase] probe per span (the
   program's permanent kernel instrumentation: Dijkstra, Steiner,
   computation, flooding dispatch, resynchronisation), and a
   [Metrics.Registry] handed to every protocol instance.  Phase rows are
   charged to layers in calibrated seconds, with the calibration factor
   of the span they were measured in. *)

type layer = { mutable calls : int; mutable self_s : float; mutable words : float }

type tracer = {
  spans : Spans.t;
  layers : (string, layer) Hashtbl.t;
  registry : Metrics.Registry.t;
  scale : (int, float) Hashtbl.t;  (** Span id -> calibration factor. *)
}

type t = { meter : Calib.meter; tracer : tracer option }

let untraced meter = { meter; tracer = None }

let traced meter =
  {
    meter;
    tracer =
      Some
        {
          spans = Spans.create ();
          layers = Hashtbl.create 16;
          registry = Metrics.Registry.create ();
          scale = Hashtbl.create 256;
        };
  }

let registry t = Option.map (fun tr -> tr.registry) t.tracer

let charge tr name ~calls ~self_s ~words =
  let l =
    match Hashtbl.find_opt tr.layers name with
    | Some l -> l
    | None ->
      let l = { calls = 0; self_s = 0.0; words = 0.0 } in
      Hashtbl.replace tr.layers name l;
      l
  in
  l.calls <- l.calls + calls;
  l.self_s <- l.self_s +. self_s;
  l.words <- l.words +. words

(* Run [f] as measured work; traced, also as a span named after the
   layer it calls into. *)
let work t name f =
  match t.tracer with
  | None -> Calib.work t.meter f
  | Some tr ->
    let probe = Metrics.Phase.create () in
    let span = ref None in
    let v =
      Calib.work t.meter (fun () ->
          span := Some (Spans.enter tr.spans ~now:(Calib.now ()) name);
          Fun.protect
            ~finally:(fun () -> Spans.leave tr.spans ~now:(Calib.now ()))
            (fun () -> Metrics.Phase.with_ambient probe f))
    in
    let factor = t.meter.factor in
    let rows = Metrics.Phase.snapshot probe in
    Option.iter
      (fun (s : Spans.span) ->
        s.inner <-
          List.fold_left (fun a r -> a +. r.Metrics.Phase.r_self_wall_s) 0.0 rows;
        Hashtbl.replace tr.scale s.id factor)
      !span;
    List.iter
      (fun (r : Metrics.Phase.row) ->
        charge tr r.r_name ~calls:r.r_calls ~self_s:(r.r_self_wall_s *. factor)
          ~words:r.r_self_minor_words)
      rows;
    v

(* Group the spans of one cell under a root span (untimed). *)
let cell t label f =
  match t.tracer with
  | None -> f ()
  | Some tr ->
    ignore (Spans.enter tr.spans ~now:(Calib.now ()) ("cell." ^ label));
    Fun.protect ~finally:(fun () -> Spans.leave tr.spans ~now:(Calib.now ())) f

(* Charge every measured span's calibrated self time to its layer.  Call
   once, when the traced pass is over. *)
let close t =
  Option.iter
    (fun tr ->
      List.iter
        (fun ((s : Spans.span), self) ->
          match Hashtbl.find_opt tr.scale s.id with
          | Some factor -> charge tr s.name ~calls:1 ~self_s:(self *. factor) ~words:0.0
          | None -> ())
        (Spans.self_times (Spans.spans tr.spans)))
    t.tracer

let layer t name =
  match t.tracer with
  | Some tr -> Hashtbl.find_opt tr.layers name
  | None -> None
