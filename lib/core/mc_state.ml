type computation = {
  old_r : Timestamp.t;
  event : Mc_lsa.event;
  proposal : Mctree.Tree.t;
  handle : Sim.Engine.handle;
  trace_id : int;
      (** The [Compute_started] trace event, or [-1] untraced — the
          completion fires from an engine timer, where the ambient trace
          context is long gone, so causality is carried explicitly. *)
}

type t = {
  mutable r : Timestamp.t;
  mutable e : Timestamp.t;
  mutable c : Timestamp.t;
  mutable flag : bool;
  mutable members : Member.t;
  mutable topology : Mctree.Tree.t;
  mutable membership_seen : int array;
  mailbox : Mc_lsa.t Queue.t;
  mutable event_computations : computation list;
  mutable triggered : computation option;
}

let create ~n =
  {
    r = Timestamp.zero n;
    e = Timestamp.zero n;
    c = Timestamp.zero n;
    flag = false;
    members = Member.empty;
    topology = Mctree.Tree.empty;
    membership_seen = Array.make n 0;
    mailbox = Queue.create ();
    event_computations = [];
    triggered = None;
  }

let pp ppf t =
  Format.fprintf ppf
    "@[<v>R=%a@,E=%a@,C=%a@,flag=%b members=%a@,topology=%a@,mailbox=%d \
     event-comps=%d triggered=%b@]"
    Timestamp.pp t.r Timestamp.pp t.e Timestamp.pp t.c t.flag Member.pp
    t.members Mctree.Tree.pp t.topology
    (Queue.length t.mailbox)
    (List.length t.event_computations)
    (t.triggered <> None)
