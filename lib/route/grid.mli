(** Uniform routing grid geometry.

    Routing runs on a coarse grid over the placement (one track per
    [pitch] layout units) on a single metal layer above the cells:
    wires block each other but not the devices below. A cell is a
    (column, row) {!point} where routes enter and leave the router —
    pins, rails, {!Router.result} — and a row-major index
    [r * cols + c] everywhere inside it ({!Negotiate}'s arrays, the
    router's per-net routes). Capacity and occupancy live in
    {!Negotiate}; this module only fixes the geometry. *)

type point = int * int
(** (column, row) grid indices. *)

val default_pitch : int
(** Layout units per routing track: 20. The router's and the
    congestion estimate's default. *)

val default_margin : int
(** Free tracks the router's grid adds on every side of the
    placement: 4. *)

val size : pitch:int -> margin:int -> Placer.Placement.t -> int * int
(** [(cols, rows)] of the grid covering the placement's bounding box
    plus [margin] tracks on every side. *)

val snap : pitch:int -> margin:int -> int * int -> point
(** Layout coordinates -> nearest grid point (the transform {!size}
    assumes). *)

val to_layout : pitch:int -> margin:int -> point -> int * int
(** Grid point -> the layout coordinates it stands for: the inverse of
    {!snap} on multiples of [pitch] (drawing routes over a
    placement). *)

val index : cols:int -> point -> int
(** Row-major cell index [r * cols + c] of an in-bounds point. *)

val point : cols:int -> int -> point
(** Inverse of {!index}. *)
