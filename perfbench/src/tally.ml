(* Exact counts of one pass over a workload's cells.

   Every count is a deterministic function of the seed, so two passes of
   the same inputs — untraced or traced — must produce identical
   tallies; the benchmark fails the run when they do not. *)

type t = {
  counts : (string, float) Hashtbl.t;
  mutable latencies : float list;  (** Window convergence times, rounds. *)
  mutable attempted : int;
  mutable failed : int;
  mutable failures : string list;
}

let create () =
  { counts = Hashtbl.create 32; latencies = []; attempted = 0; failed = 0;
    failures = [] }

let get t name = Option.value ~default:0.0 (Hashtbl.find_opt t.counts name)

let add t name v = Hashtbl.replace t.counts name (float_of_int v +. get t name)

(* [num / den], or 0 when nothing was counted. *)
let ratio t num den = if get t den = 0.0 then 0.0 else get t num /. get t den

let outcome t ~label ok =
  t.attempted <- t.attempted + 1;
  if not ok then begin
    t.failed <- t.failed + 1;
    t.failures <- label :: t.failures
  end

(* Names of the counts on which two tallies disagree. *)
let diff a b =
  let names t = Hashtbl.fold (fun k _ acc -> k :: acc) t.counts [] in
  List.filter
    (fun k -> Hashtbl.find_opt a.counts k <> Hashtbl.find_opt b.counts k)
    (List.sort_uniq String.compare (names a @ names b))
  @
  if List.sort Float.compare a.latencies = List.sort Float.compare b.latencies then []
  else [ "window_latencies" ]
