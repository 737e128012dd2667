(** Counting and enumerating B*-tree placements (survey §IV).

    The survey motivates hierarchically bounded enumeration with the
    size of the flat search space: "the number of possible placements
    for 8 modules is already 57,657,600" — which is [8! * catalan 8]
    (labelled binary trees of 8 nodes). These functions verify that
    number and provide the exhaustive enumeration the deterministic
    placer runs on basic module sets. *)

val catalan : int -> int
(** [catalan n] — number of binary tree shapes with [n] nodes. Raises
    [Invalid_argument] on overflow (n > 33). *)

val count_placements : int -> int
(** [n! * catalan n]: B*-trees over [n] distinguishable modules. *)

val enumerate_shapes : int -> Tree.t list
(** All binary tree shapes over the placeholder cells [0 .. n-1]
    assigned in pre-order. [catalan n] trees; exponential — intended
    for n <= 8. *)

val permutations : int list -> int list list
(** Every ordering of the list: the first element varies slowest, in
    list order. [n!] lists. *)

val enumerate_trees : int list -> Tree.t list
(** All labelled B*-trees over the given cells: every shape times every
    assignment of cells to nodes. [n! * catalan n] trees; intended for
    n <= 5 (basic module sets). *)
