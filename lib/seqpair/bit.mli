(** Binary indexed tree for prefix maxima.

    The O(n log n) sequence-pair evaluation (FAST-SP, survey ref [26])
    reduces coordinate computation to repeated "maximum over a prefix"
    queries with monotone point updates — exactly what a Fenwick tree
    over the max monoid provides. *)

type t

val create : int -> t
(** [create n] — indices [0 .. n-1], all values 0. *)

val clear : t -> unit
(** Reset every value to 0 without reallocating, so one tree can serve
    many packs (the evaluation arena reuses a single scratch tree). *)

val reset : t -> int -> unit
(** [reset t i] zeroes every node [update t i] touches, O(log n): after
    a sweep that updated only indices [I], resetting each of [I] clears
    the tree without an O(n) {!clear}. *)

val update : t -> int -> int -> unit
(** [update t i v] raises the value at [i] to [max current v]. *)

val prefix_max : t -> int -> int
(** [prefix_max t i] is the maximum over indices [0 .. i]; 0 when
    [i < 0]. *)
