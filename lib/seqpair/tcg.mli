(** Transitive closure graphs (TCG, Lin & Chang, survey ref [15]).

    The third non-slicing topological representation the survey names
    besides sequence-pairs and B*-trees: every pair of cells carries
    exactly one directed geometric relation — [Hor] ([a] left of [b])
    or [Ver] ([a] below [b]) — and the horizontal and vertical relation
    digraphs are each transitively closed and acyclic. Packing is a
    longest-path evaluation of the two closures.

    TCGs and sequence-pairs encode the same placements; {!of_seqpair} /
    {!to_seqpair} witness the bijection (tested). The perturbation
    operations {e flip} (exchange a pair's relation kind) and
    {e reverse} (swap a pair's direction) are validated against the
    closure/acyclicity invariants and rejected when they would break
    them, so annealing walks stay inside the representation.

    Relation matrices use machine-word bitsets; the cell count is
    limited to 62 (device-level placement sizes). *)

type kind = Hor | Ver

type t

val size : t -> int

val relation : t -> int -> int -> (kind * [ `Forward | `Backward ]) option
(** [relation t a b] is the edge between [a] and [b]:
    [Some (k, `Forward)] for [a -> b], [`Backward] for [b -> a];
    [None] only when [a = b]. *)

val max_cells : int
(** 62: a closure row is one machine-word bitset. *)

val of_seqpair : Sp.t -> t
(** Always valid. Raises [Invalid_argument] beyond {!max_cells}
    cells. *)

val to_seqpair : t -> Sp.t
(** The canonical sequence-pair with the same relations. *)

val validate : t -> (unit, string) result
(** Completeness, transitive closure of both digraphs, acyclicity of
    both sequence orders. Internal constructors only produce valid
    TCGs; this is exported for tests. *)

val flip : t -> int -> int -> t option
(** Exchange the relation kind of the pair (keeping its direction);
    [None] if the result would be invalid. *)

val reverse : t -> int -> int -> t option
(** Reverse the pair's direction (keeping its kind); [None] if
    invalid. *)

val swap_cells : t -> int -> int -> t
(** Exchange two cells' roles; always valid. *)

val random_neighbor : Prelude.Rng.t -> t -> t
(** One of flip / reverse / swap, retrying a few times when a proposal
    is rejected; returns the input if all proposals fail. *)

val pack : t -> Pack.dims -> Geometry.Transform.placed list
(** Longest-path packing of both closures; overlap-free (tested). *)
