(** Exhaustive enumeration of basic-module-set placements (survey §IV).

    Basic module sets are small (a differential pair, a current mirror:
    2-5 modules), so all their placements can be enumerated: every
    labelled B*-tree times every cell-rotation assignment, packed and
    collapsed into a shape function.

    Free and proximity sets stream that space: each tree shape is
    flattened once ({!Bstar.Flat.of_tree}), and every (cell order,
    rotation) of it is packed by {!Bstar.Flat.pack_into} on one
    contour scratch and four cell arrays, in the order shape, then
    cell permutation, then rotation mask. The packed box goes to a
    {!Shape_fn.builder}; a placement's payload (its labelled tree and
    dims) is built, and proximity's connectivity test run, only when
    the front so far does not dominate the box. So a 5-cell set's
    161,280 packs allocate for the few front candidates only, and the
    front is exactly the one a sorted list of every placement prunes
    to (tested against that list enumeration).

    Constrained sets enumerate only their feasible subspace:

    - symmetry sets enumerate ASF half-trees and mirror them, so every
      shape is an exact symmetry island;
    - common-centroid sets realize the two interdigitated patterns
      (horizontal and vertical);
    - proximity sets keep only edge-connected packings.

    Above [max_exhaustive] cells (not reached by the benchmark
    generators) a seeded random sample of trees stands in for the full
    enumeration and runs through the same loop — documented in
    DESIGN.md. *)

val max_exhaustive : int
(** 6: 6! x catalan 6 = 95,040 trees is still fast; 7 is not. *)

val free_set :
  ?cap:int -> dims:(int -> int * int) -> int list -> Shape_fn.t
(** All placements of an unconstrained set. *)

val proximity_set :
  ?cap:int -> dims:(int -> int * int) -> int list -> Shape_fn.t
(** Edge-connected placements only; falls back to {!free_set} if
    filtering empties the space (cannot happen for <= 2 cells). *)

val symmetric_set :
  ?cap:int ->
  dims:(int -> int * int) ->
  Constraints.Symmetry_group.t ->
  Shape_fn.t
(** Exact symmetry islands for the group (rigid shapes). *)

val centroid_set :
  ?cap:int -> dims:(int -> int * int) -> int list -> Shape_fn.t option
(** The two common-centroid patterns; [None] when the cells are not
    matched in size (callers degrade to {!free_set}). *)

val of_basic_set :
  ?cap:int ->
  dims:(int -> int * int) ->
  kind:Netlist.Hierarchy.constraint_kind ->
  int list ->
  Shape_fn.t
(** Dispatch on the set's constraint. For symmetry sets the cells pair
    consecutively with an odd trailing cell self-symmetric (the same
    convention as {!Constraints.Symmetry_group.of_hierarchy}). *)
