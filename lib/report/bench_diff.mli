(** Regression gate over two [dgmc-bench/1] documents.

    The schema carries both deterministic simulation figures and
    wall-clock measurements; the differ holds them to different
    standards:

    - {e Exact} (any difference is a [Fail]): the schema tag, per-figure
      cell identity sets (series × size × seed), metric counter values,
      histogram sample counts, and the [series]/[sli] telemetry sections
      when both documents carry them.
    - {e Tolerated}: per-section and total [seq_estimate_s] — the sum of
      per-task wall times, so independent of the domain count — gated by
      a relative [wall_tol]; regressions beyond it are [Fail],
      improvements beyond it are [Info].
    - {e Informational only}: meta fields (commit, seed, quick,
      domains), gauge values, histogram float stats, sections new in the
      candidate, and the [phase] wall/alloc table (never compared).

    A baseline section missing from the candidate is a structural
    [Fail]. *)

type severity = Info | Fail

type finding = { severity : severity; area : string; detail : string }

type outcome = { findings : finding list }

val failed : outcome -> bool
(** Any [Fail] finding present. *)

val compare_strings :
  wall_tol:float -> baseline:string -> candidate:string ->
  (outcome, string) result
(** Parse both documents and compare; [Error] names the side that failed
    to parse. *)

val render :
  wall_tol:float -> baseline_name:string -> candidate_name:string ->
  outcome -> string
(** Markdown report: verdict line, then findings with failures first. *)
