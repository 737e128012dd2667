(** Rectilinear outlines of rectangle sets.

    Sub-circuits placed as units (HB*-tree hierarchy nodes, proximity
    groups) are not forced to rectangular outlines — the survey notes
    that non-rectangular outlines improve area utilization (Fig. 3(c)).
    This module derives the geometric summaries the placers need from a
    set of placed rectangles: bounding box, covered area, top profile
    and connectivity of the union. *)

val bounding_box : Rect.t list -> Rect.t
(** Raises [Invalid_argument] on the empty list. *)

val covered_area : Rect.t list -> int
(** Area of the union (overlaps counted once), by coordinate-compressed
    sweep. *)

val dead_area : Rect.t list -> int
(** Bounding-box area minus covered area. *)

val top_profile : Rect.t list -> Contour.segment list
(** Height of the union's skyline measured from y = 0, as maximal
    segments over the x extent of the set (the normal form of
    {!Contour.scratch_segments}); zero-area rectangles add nothing.
    Rectangles are assumed to sit at non-negative coordinates. *)

val connected : Rect.t list -> bool
(** Is the union of the (closed) rectangles a single connected region?
    Rectangles touching along an edge of positive length count as
    connected; corner contact does not. [true] for the empty list. *)
