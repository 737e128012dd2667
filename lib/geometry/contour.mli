(** Skyline contours.

    The packing procedures for B*-trees (and for HB*-tree macros with
    rectilinear tops, the survey's "contour nodes") maintain the top
    profile of the partial placement: a step function mapping every
    x-position to the height of material below. Dropping a cell at a
    given x lands it on top of the maximum of the profile under its
    footprint.

    The profile lives in a mutable scratch: a doubly-linked segment
    arena tiling [\[0, +inf)], initially at height 0 everywhere. A
    packer allocates one (or reuses one per evaluation arena, see
    {!Placer.Eval}), [clear]s it before each packing and queries and
    updates it in place, so steady-state packing allocates nothing. *)

type segment = { x0 : int; x1 : int; y : int }
(** One step of the profile: height [y] over [\[x0, x1)]. *)

type scratch

val scratch : int -> scratch
(** [scratch capacity] preallocates room for [capacity] segments (a
    packing of [n] cells needs at most [2n + 1]). The arena grows
    automatically if the hint is exceeded, so the capacity only
    controls steady-state allocation. *)

val clear : scratch -> unit
(** Reset to the flat contour at height 0, recycling every segment. *)

val drop_into : scratch -> x:int -> w:int -> h:int -> int
(** [drop_into s ~x ~w ~h] lands a [w]x[h] cell at horizontal position
    [x]: returns its resting y (the maximum height under its footprint)
    and raises the profile over the footprint to the cell's top. *)

val max_height_into : scratch -> x0:int -> x1:int -> int
(** Maximum profile height over [\[x0, x1)]; 0 for empty ranges. *)

val raise_into : scratch -> x0:int -> x1:int -> y:int -> unit
(** Set the profile over [\[x0, x1)] to exactly [y]; the profile
    outside the range is unchanged. The pointer-tree packer raises the
    rectilinear top of a contour node this way, step by step. *)

val scratch_segments : scratch -> segment list
(** Finite positive-height steps in increasing x order, pairwise
    disjoint and maximally merged (allocates; not for the hot path). *)
