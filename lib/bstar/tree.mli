(** B*-trees (Chang et al., survey ref [5]).

    A B*-tree is an ordered binary tree over cells encoding a compacted
    ("admissible") placement: the root sits at the origin; a node's
    {e left} child is the lowest cell adjacent to its right edge (same
    y-search, x = parent.x + parent.w); its {e right} child is the
    lowest cell above it at the same x. Packing is a pre-order
    traversal against a skyline contour, O(n) contour updates
    amortized; the same walk packs HB*-tree levels whose items are
    macros with rectilinear tops.

    Trees here are immutable; perturbations (see {!Perturb}) return new
    trees. *)

type t = { cell : int; left : t option; right : t option }

val leaf : int -> t

val row : int list -> t
(** Left-skewed chain: the cells side by side in one row. Raises
    [Invalid_argument] on the empty list. *)

val column : int list -> t
(** Right-skewed chain: the cells stacked in one column. *)

val random : Prelude.Rng.t -> int list -> t
(** Uniformly-shaped random tree over the given cells (first cell list
    order is randomized too). Raises [Invalid_argument] on []. *)

val cells : t -> int list
(** Pre-order cell list. O(n). *)

val size : t -> int

val mem : t -> int -> bool

val nth_cell : t -> int -> int
(** [nth_cell t i] is [List.nth (cells t) i] without building the list.
    Raises [Invalid_argument] out of range. *)

val map_cells : (int -> int) -> t -> t

val pack_with_profiles :
  t ->
  (int -> int * int * Geometry.Contour.segment list option) ->
  (int * Geometry.Rect.t) list
(** Contour packing: a pre-order walk that lands each cell on a skyline
    ({!Geometry.Contour.scratch}), left children against their
    parent's right edge and right children at their parent's x.
    [lookup cell] gives the cell's width, height and optional
    rectilinear top profile (macro coordinates, as
    {!Geometry.Outline.top_profile} returns it). A cell without a
    profile raises the skyline over its whole footprint; one with a
    profile (an HB*-tree contour node) rests at the same y but raises
    only its profile's steps, so later cells can settle into its
    valleys. Returns [(cell, rect)] pairs in pre-order. *)

val pack_rects : t -> (int -> int * int) -> (int * Geometry.Rect.t) list
(** {!pack_with_profiles} with flat tops. *)

val pack : t -> (int -> int * int) -> Geometry.Transform.placed list
(** {!pack_rects} as placements, in pre-order. All orientations are
    [R0] — orientation choices belong to the caller (apply them inside
    the dims function and relabel afterwards). *)

val swap_cells : t -> int -> int -> t
(** Exchange the cells at the nodes holding [a] and [b]. *)

val delete : t -> int -> t option
(** Remove the node holding the cell. An internal node is spliced by
    promoting its left child (its right subtree re-attaches at the
    promoted chain's rightmost node), preserving a valid tree. [None]
    when the tree had one node. *)

val insert_at :
  t -> cell:int -> target:int -> side:[ `Left | `Right ] -> t
(** Insert a new node holding [cell] as the [side] child of the node
    holding [target]; an existing child moves down to the same side of
    the new node. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
