(** Flat-array B*-trees: the annealing-side twin of {!Tree}.

    One tree over cells [0..n-1] stored as dense int arrays (nodes are
    indices, [-1] marks an absent link, the root carries the free
    parent slot). The node→cell labeling and its inverse are stored
    separately, so the two classic B*-tree structural moves are O(1):
    swapping two cells relabels without touching the structure, and
    relocating a leaf is constant-time pointer surgery over the
    arrays, helped by a maintained leaf set for O(1) uniform leaf
    selection. Every perturbation returns an {!undo} token; applying
    {!undo} reverts it exactly, so a rejected annealing move costs
    O(1) instead of a tree copy.

    Packing ({!pack_into}) writes coordinates straight into caller
    arrays through a mutable {!Geometry.Contour.scratch} — the same
    drops in the same pre-order as [Tree.pack], hence bit-identical
    coordinates (tested) with zero allocation.

    A flat tree is single-threaded mutable state: give each parallel
    annealing chain its own (see {!Anneal.Parallel}). *)

type t

type side = L | R

type undo =
  | U_nothing
  | U_swap of int * int
  | U_move of { leaf : int; src : int; src_side : side }
      (** leaf [leaf] moved away from the [src_side] slot of [src] *)

val of_tree : Tree.t -> t
(** Pre-order node numbering. Raises [Invalid_argument] unless the
    tree's cells are exactly [0..size-1], each once. *)

val to_tree : t -> Tree.t

val size : t -> int

val copy : t -> t
(** Deep copy sharing no mutable state. *)

val blit : src:t -> dst:t -> unit
(** Overwrite [dst] with [src]'s tree. Raises [Invalid_argument] on a
    size mismatch. *)

val equal : t -> t -> bool
(** Exact structural equality, node numbering included. *)

(** {2 Structural moves} *)

val swap_cells : t -> int -> int -> undo
(** Exchange the cells held by two nodes — O(1), structure untouched. *)

val perturb : Prelude.Rng.t -> t -> undo
(** A uniform choice of cell swap or leaf relocation (the target
    (node, side) slot drawn uniformly by rejection — at least half of
    all slots are free, so this terminates in O(1) expected draws).
    [U_nothing] on single-node trees. *)

val undo : t -> undo -> unit
(** Revert the move that produced the token, in O(1). Only valid
    immediately: tokens do not compose across later moves. *)

(** {2 Packing} *)

val pack_into :
  ?tally:Telemetry.Counter.t ->
  t ->
  Geometry.Contour.scratch ->
  w:int array ->
  h:int array ->
  x:int array ->
  y:int array ->
  unit
(** Contour-pack the tree: per-cell dimensions are read from [w]/[h]
    and the packed origin of each cell written to [x]/[y] (all indexed
    by cell). Clears and reuses [contour]; allocates nothing. [tally]
    (default {!Telemetry.Counter.null}, one dead branch) is bumped once
    per pack — {!Placer.Eval} passes its [bstar.packs] counter. *)

(** {2 Introspection} (for invariant checking and tests) *)

val root : t -> int
val cell_at : t -> int -> int
val node_of : t -> int -> int
val left_of : t -> int -> int
val right_of : t -> int -> int
val parent_of : t -> int -> int
(** Node accessors; [-1] encodes "none". *)

val is_leaf : t -> int -> bool
val leaf_count : t -> int
val leaf_nodes : t -> int list

val pp : Format.formatter -> t -> unit
