(** Deterministic, splittable pseudo-random number generator.

    Every stochastic component of the simulator (topology generation,
    workload generation, jitter) draws from an explicit [Rng.t] so that a
    scenario is fully reproducible from its seed.  The generator is
    SplitMix64 (Steele, Lea & Flood 2014): tiny state, good statistical
    quality, and cheap splitting into independent streams. *)

type t

val create : int -> t
(** [create seed] is a fresh generator.  Equal seeds yield equal streams. *)

val split : t -> t
(** [split t] derives an independent generator from [t], advancing [t].
    Use one split per subsystem so adding draws in one place does not
    perturb the stream seen by another. *)

val derive : master:int -> index:int -> t
(** [derive ~master ~index] is the generator for shard [index] of the
    stream family named by [master] — a pure function of both, so a
    parallel runner assigning one shard per task gets the same stream
    for a task no matter which worker runs it or in what order
    (contrast {!split}, which advances shared state).  [index >= 0]. *)

val int64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)].  [bound] must be positive. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)].  [bound] must be positive. *)

val bool : t -> bool

val range : t -> int -> int -> int
(** [range t lo hi] is uniform in [\[lo, hi\]] (inclusive).  [lo <= hi]. *)

val exponential : t -> mean:float -> float
(** Exponentially distributed draw with the given mean; used for Poisson
    inter-arrival times. *)

val pick : t -> 'a list -> 'a
(** Uniform element of a non-empty list. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val sample : t -> int -> 'a list -> 'a list
(** [sample t k xs] is [k] distinct elements of [xs] chosen uniformly
    (all of [xs] if [k >= List.length xs]).  Order is unspecified. *)
