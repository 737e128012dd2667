(** Compact multi-placement structures — the value a cache entry
    stores.

    One winning topology (a sequence pair derived from the winning
    placement, symmetric-feasible when groups apply) plus a Pareto
    family of candidate packings: rotation-vector variants packed once
    at build time through the allocation-free arena, and the winning
    placement itself as a one-point rigid {!Shapefn.Shape_fn} curve.
    Per-module shape-alternative curves provide provable outline lower
    bounds. A hit selects the best-fit family member deterministically
    and re-instantiates it in microseconds; re-annealing never happens
    on this path (Badaoui & Vemuri's multi-placement query,
    PAPERS.md arXiv:0710.4717). *)

type topo =
  | Packing of bool array
      (** re-pack the stored sequence pair under this rotation vector *)
  | Rigid  (** realize the stored rigid curve point (the winner) *)

type candidate = {
  topo : topo;
  width : int;
  height : int;
  hpwl : float;
  cost : float;
}
(** One family member: its instantiation recipe and the geometry /
    cost it packs to (recorded at build time; instantiation reproduces
    them exactly). *)

type t

val build :
  ?weights:Placer.Cost.weights ->
  arena:Placer.Eval.t ->
  groups:Constraints.Symmetry_group.t list ->
  Netlist.Circuit.t ->
  Geometry.Transform.placed list ->
  t
(** Build the structure from a winning placement: derive the sequence
    pair ({!Placer.Portfolio.sp_of_placed}, made symmetric-feasible
    under [groups]), pack the rotation variants through [arena], add
    the rigid winner point, Pareto-prune. [arena] must be an arena
    over the same circuit. *)

val candidates : t -> candidate list
(** The Pareto family, sorted by (cost, width, height) — selection
    order, fixed at build time. *)

val curves : t -> Shapefn.Shape_fn.t array
(** Per-module shape-alternative curves (both orientations unless
    square). *)

val outline_infeasible : t -> int * int -> bool
(** Provable reject from the per-module curve lower bounds and total
    module area: no placement of this circuit fits the outline, so
    re-annealing would not help either. *)

val select : ?outline:int * int -> t -> candidate * bool
(** The family member to serve: without an outline the minimum-cost
    candidate; with one, the first (cost-sorted) candidate fitting the
    box. The flag is [false] when nothing fits — the best candidate is
    returned anyway, flagged as an outline miss. Deterministic. *)

val materialize : t -> candidate -> Placer.Placement.t
(** Re-instantiate a family member: one sequence-pair pack
    ({!Placer.Sa_seqpair.evaluate}) for {!Packing} candidates,
    {!Shapefn.Shape_fn.instantiate} for the {!Rigid}
    point. No annealing, no large allocations beyond the placement
    being returned. *)
