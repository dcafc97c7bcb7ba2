(* Reconfiguration windows of one simulation cell.

   Anchors (injected events, crash and recovery instants) and topology
   changes reported by [Dgmc.Protocol.add_observer] are sessionized
   network-wide by [Metrics.Sli.windows]: observations closer than [gap]
   share a window, which opens at its first anchor and closes at its
   last change.  A window's latency is one reconfiguration's convergence
   time; the span of a whole schedule is not. *)

type t = { latencies : float list;  (** Rounds, one per converged window. *)
           quiet : int  (** Windows whose anchors changed no topology. *) }

let of_times ~gap ~round ~anchors ~changes =
  let obs =
    List.map (fun time -> Metrics.Sli.anchor ~mc:"net" ~time) anchors
    @ List.map (fun time -> Metrics.Sli.install ~mc:"net" ~time) changes
  in
  List.fold_right
    (fun w acc ->
      if Metrics.Sli.converged w then
        { acc with latencies = (Metrics.Sli.latency w /. round) :: acc.latencies }
      else { acc with quiet = acc.quiet + 1 })
    (Metrics.Sli.windows ~gap obs)
    { latencies = []; quiet = 0 }
