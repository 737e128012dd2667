(** Shape functions: Pareto fronts of realizable shapes.

    A shape function is the set of non-redundant (width, height) points
    a module group can realize — "placements which have a greater
    height, while having the same or even a greater width than some
    other shape are redundant and therefore removed" (survey §IV-A).
    Kept sorted by increasing width (hence strictly decreasing
    height). A capacity bound thins dense fronts to keep the
    deterministic placer polynomial; the minimum-area, minimum-width
    and minimum-height shapes always survive thinning. *)

type t

(** {2 Building a front}

    A front is built incrementally: shapes are offered one at a time
    and only the Pareto-minimal ones are kept. A shape is dropped when
    some kept shape is no larger in either dimension (so of several
    shapes with the same [(w, h)] the first offered is kept) and
    evicts every kept shape it dominates. The result depends only on
    the offered sequence, not on when the front is read. *)

type builder

val builder : unit -> builder
(** An empty front. *)

val dominated : builder -> w:int -> h:int -> bool
(** Would a [w] x [h] shape be dropped? A scan of the kept shapes that
    allocates nothing: enumerators test each candidate box with it and
    build a shape's payload only when it is [false]. *)

val add : builder -> Shape.t -> unit
(** Offer a shape: kept unless {!dominated}. *)

val is_empty : builder -> bool

val of_builder : ?cap:int -> builder -> t
(** The front built so far, thinned to [cap] points when given
    (default unlimited). Raises [Invalid_argument] when no shape was
    offered. *)

val of_shapes : ?cap:int -> Shape.t list -> t
(** {!add} every shape in list order, then {!of_builder}: dominated
    and duplicate shapes are pruned, the first of equal shapes kept.
    Raises [Invalid_argument] on the empty list. *)

val shapes : t -> Shape.t list
(** Increasing width, decreasing height. *)

val cardinal : t -> int

val min_area : t -> Shape.t

val min_width : t -> int
(** Width of the narrowest front point — a lower bound on the width of
    {e any} realizable placement of the module group (the front is the
    Pareto-minimal shape set, so every realizable shape is dominated by
    some front point). The feasibility prover ([Analysis.Feasibility])
    compares these bounds against a fixed outline. *)

val min_height : t -> int
(** Height of the flattest front point — the matching height lower
    bound. *)

val fits : ?max_w:int -> ?max_h:int -> t -> bool
(** Does any front point fit the box? [fits] is exactly
    [best_within <> None]; when the front was built without a capacity
    bound (no thinning), [not (fits fn)] proves no placement of the
    group fits. *)

val best_within : ?max_w:int -> ?max_h:int -> t -> Shape.t option
(** Minimum-area shape honoring a fixed outline — the "pre-defined
    layout aspect ratio, or a maximum width or height" restriction of
    the survey's §V geometric constraints, applied to shape functions.
    [None] when no front point fits. *)

val instantiate :
  ?max_w:int -> ?max_h:int -> t -> Geometry.Transform.placed list option
(** Instantiate-from-curve: {!best_within} followed by
    {!Shape.realize} — the concrete placement of the minimum-area
    front point honoring the box, or [None] when no point fits. This
    is how a cached topology answers a new outline request without
    re-annealing (the placement service's rigid hit path; Badaoui &
    Vemuri's multi-placement query). *)

val points : t -> (int * int) list
(** The (w, h) Pareto points (for plotting Fig. 8). *)

val merge : ?cap:int -> t -> t -> t
(** Union of two fronts over the same module group (e.g. from the two
    addition directions), re-pruned. *)

val dominates_fn : t -> t -> bool
(** Every shape of the second front is (weakly) dominated by some shape
    of the first. *)

val pp : Format.formatter -> t -> unit
