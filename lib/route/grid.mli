(** Uniform routing grid.

    Routing runs on a coarse grid over the placement (one track per
    [pitch] layout units) on a single metal layer above the cells:
    wires block each other but not the devices below. Obstacles are
    marked cells; the blocked cells become zero-capacity cells of the
    {!Negotiate} congestion grid. *)

type t

type point = int * int
(** (column, row) grid indices. *)

val create : cols:int -> rows:int -> t
(** All cells free. Raises [Invalid_argument] on non-positive sizes. *)

val of_placement : pitch:int -> margin:int -> Placer.Placement.t -> t
(** A grid covering the placement's bounding box plus [margin] tracks
    on every side. *)

val cols : t -> int
val rows : t -> int
val in_bounds : t -> point -> bool
val blocked : t -> point -> bool

val block : t -> point -> unit
(** Mark a cell used. Out-of-bounds points are ignored. *)

val block_many : t -> point list -> unit

val copy : t -> t

val snap : pitch:int -> margin:int -> int * int -> point
(** Layout coordinates -> nearest grid point (same transform
    {!of_placement} uses). *)

val occupancy : t -> float
(** Fraction of blocked cells. *)
