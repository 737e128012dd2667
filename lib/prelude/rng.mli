(** Deterministic pseudo-random numbers (splitmix64).

    Every stochastic component in this repository — annealing moves,
    synthetic benchmark generation, property-test inputs — draws from an
    explicit, seedable generator so that experiments are reproducible
    run-to-run and independent of the global [Random] state. *)

type t
(** Mutable generator state. Drawing an [int] or a [bool] allocates
    nothing. *)

val create : int -> t
(** [create seed] — equal seeds yield equal streams. *)

val split : t -> t
(** Derive an independent stream (for parallel or nested generators). *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. Raises [Invalid_argument]
    on non-positive [bound]. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] is uniform in [\[lo, hi\]] (inclusive). *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val bool : t -> bool

val choose : t -> 'a list -> 'a
(** Uniform element of a non-empty list. *)

val choose_weighted : t -> (float * 'a) list -> 'a
(** Pick with probability proportional to the (positive) weights. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val permutation : t -> int -> int array
(** A uniform random permutation of [0 .. n-1]. *)

val gaussian : t -> float
(** Standard normal deviate (Box–Muller). *)
