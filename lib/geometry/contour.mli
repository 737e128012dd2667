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
    and raises the profile over the footprint to the cell's top. A
    cell of width 0 rests at 0 and leaves the profile as it was. *)

type slot = int
(** A segment of the profile, named by its arena slot. *)

val head : slot
(** The head sentinel: a valid [from] for any drop. *)

val drop_from : scratch -> from:slot -> x:int -> w:int -> h:int -> int
(** {!drop_into} with its scan started at [from] instead of the head:
    the same result, in time proportional to the segments between
    [from] and the footprint's end. [from] must be {!head} or a
    segment still in the profile (no later drop or raise has covered
    or trimmed it) whose left edge is at most [x]. [drop_into] is
    [drop_from ~from:head]. *)

val last_slot : scratch -> slot
(** The segment the last drop raised — the cell's top, from its
    x to its right edge — or {!head} if it raised none (width 0).
    A B*-tree packer anchors each child's drop at its parent's top:
    a left child starts at the parent's right edge, a right child at
    the parent's left edge, and the parent's left subtree never
    touches [\[x, x + w)] of the parent. *)

val max_height_into : scratch -> x0:int -> x1:int -> int
(** Maximum profile height over [\[x0, x1)]; 0 for empty ranges. *)

val raise_into : scratch -> x0:int -> x1:int -> y:int -> unit
(** Set the profile over [\[x0, x1)] to exactly [y]; the profile
    outside the range is unchanged. The pointer-tree packer raises the
    rectilinear top of a contour node this way, step by step. *)

val scratch_segments : scratch -> segment list
(** Finite positive-height steps in increasing x order, pairwise
    disjoint and maximally merged (allocates; not for the hot path). *)
