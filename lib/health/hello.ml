type nb = {
  peer : int;
  det : Detector.t;
  damp : Damping.t option;
  mutable up : bool;  (* this agent's belief about the adjacency *)
  mutable streak : int;  (* consecutive hellos heard while believed down *)
  mutable check : Sim.Engine.handle option;
  mutable suppress_flag : bool;
}

type t = {
  engine : Sim.Engine.t;
  cfg : Config.t;
  self : int;
  nbs : nb array;  (* ascending peer order *)
  send : peer:int -> unit;
  declare : peer:int -> up:bool -> unit;
  on_suppress : peer:int -> resumed:bool -> unit;
  mutable n_flaps : int;
  mutable n_suppressions : int;
  mutable paused : bool;
}

let create ~engine ~config ~self ~peers ~send ~declare
    ?(on_suppress = fun ~peer:_ ~resumed:_ -> ()) () =
  (match Config.validate config with
  | Ok () -> ()
  | Error e -> invalid_arg ("Hello.create: " ^ e));
  let start = Sim.Engine.now engine in
  let nbs =
    List.sort_uniq Int.compare peers
    |> List.map (fun peer ->
           {
             peer;
             det =
               Detector.create config.Config.detector
                 ~period:config.Config.period ~grace:config.Config.grace ~start;
             damp =
               Option.map
                 (fun (d : Config.damping) ->
                   Damping.create
                     {
                       Damping.penalty = d.Config.d_penalty;
                       suppress = d.Config.d_suppress;
                       reuse = d.Config.d_reuse;
                       half_life = d.Config.d_half_life;
                     })
                 config.Config.damping;
             up = true;
             streak = 0;
             check = None;
             suppress_flag = false;
           })
    |> Array.of_list
  in
  { engine; cfg = config; self; nbs; send; declare; on_suppress;
    n_flaps = 0; n_suppressions = 0; paused = false }

let find t peer =
  let rec go i =
    if i >= Array.length t.nbs then None
    else if t.nbs.(i).peer = peer then Some t.nbs.(i)
    else go (i + 1)
  in
  go 0

(* Down-verdict checks are armed at the detector's deadline, but only
   while hellos are still flowing at that instant (deadline within the
   horizon): silence after the horizon is the schedule ending, not the
   link failing. *)
let rec arm_check t nb =
  (match nb.check with Some h -> Sim.Engine.cancel h | None -> ());
  nb.check <- None;
  let deadline = Detector.deadline nb.det in
  if deadline <= t.cfg.Config.horizon then
    nb.check <- Some (Sim.Engine.schedule_at t.engine ~time:deadline (check t nb))

and check t nb () =
  nb.check <- None;
  if (not t.paused) && not nb.suppress_flag then begin
    let now = Sim.Engine.now t.engine in
    if Detector.down nb.det ~now then begin
      if nb.up then begin
        nb.up <- false;
        nb.streak <- 0;
        t.n_flaps <- t.n_flaps + 1;
        t.declare ~peer:nb.peer ~up:false;
        match nb.damp with
        | None -> ()
        | Some damp ->
          Damping.flap damp ~now;
          if Damping.suppressed damp ~now then begin
            nb.suppress_flag <- true;
            t.n_suppressions <- t.n_suppressions + 1;
            t.on_suppress ~peer:nb.peer ~resumed:false;
            arm_unsuppress t nb damp
          end
      end
      (* Already believed down: stay silent; the next arrival re-arms. *)
    end
    else
      (* An arrival moved the deadline since this check was scheduled. *)
      arm_check t nb
  end

and arm_unsuppress t nb damp =
  let now = Sim.Engine.now t.engine in
  match Damping.reuse_time damp ~now with
  | None -> unsuppress t nb
  | Some at ->
    (* One extra period of margin absorbs float rounding in the decay
       solve; the handler re-checks and re-arms, so progress is sure. *)
    ignore
      (Sim.Engine.schedule_at t.engine
         ~time:(at +. t.cfg.Config.period)
         (fun () ->
           let now = Sim.Engine.now t.engine in
           if nb.suppress_flag then
             if Damping.suppressed damp ~now then arm_unsuppress t nb damp
             else unsuppress t nb))

and unsuppress t nb =
  let now = Sim.Engine.now t.engine in
  nb.suppress_flag <- false;
  nb.streak <- 0;
  Detector.reset nb.det ~now;
  t.on_suppress ~peer:nb.peer ~resumed:true;
  arm_check t nb

let rec tick t () =
  let now = Sim.Engine.now t.engine in
  if not t.paused then
    Array.iter
      (fun nb -> if not nb.suppress_flag then t.send ~peer:nb.peer)
      t.nbs;
  let next = now +. t.cfg.Config.period in
  if next <= t.cfg.Config.horizon then
    ignore (Sim.Engine.schedule_at t.engine ~time:next (tick t))

let start t =
  Array.iter (arm_check t) t.nbs;
  tick t ()

let pause t =
  t.paused <- true;
  Array.iter
    (fun nb ->
      (match nb.check with Some h -> Sim.Engine.cancel h | None -> ());
      nb.check <- None)
    t.nbs

let resume t =
  let now = Sim.Engine.now t.engine in
  t.paused <- false;
  Array.iter
    (fun nb ->
      Detector.reset nb.det ~now;
      nb.streak <- 0;
      if not nb.suppress_flag then arm_check t nb)
    t.nbs

let on_hello t ~from =
  match find t from with
  | None -> ()
  | Some nb ->
    if (not t.paused) && not nb.suppress_flag then begin
      let now = Sim.Engine.now t.engine in
      Detector.note_arrival nb.det ~now;
      if not nb.up then begin
        nb.streak <- nb.streak + 1;
        if nb.streak >= t.cfg.Config.reup then begin
          nb.up <- true;
          nb.streak <- 0;
          t.declare ~peer:nb.peer ~up:true
        end
      end;
      arm_check t nb
    end

let suppressed t ~peer =
  match find t peer with Some nb -> nb.suppress_flag | None -> false

let view t =
  Array.to_list (Array.map (fun nb -> (nb.peer, nb.up, nb.suppress_flag)) t.nbs)

let flaps t = t.n_flaps

let suppressions t = t.n_suppressions
