(** Symmetric-feasible sequence-pairs (survey §II, refs [13], [2], [3]).

    A sequence-pair [(alpha, beta)] is {e symmetric-feasible} (S-F) for
    a symmetry group when for any two distinct group cells [x], [y]:

    {v alpha^-1(x) < alpha^-1(y)  <=>  beta^-1(sym y) < beta^-1(sym x) v}

    (property (1) of the survey) — equivalently, the group members
    appear in [beta] exactly in the reverse [alpha]-order of their
    symmetric counterparts. S-F codes admit packings in which every
    group is exactly mirror-symmetric about a common vertical axis. *)

type group = Constraints.Symmetry_group.t

(** {2 The plan}

    A group list compiled once per circuit into flat arrays -- each
    cell's counterpart and group, every pair and self by group -- plus
    the scratch every call below needs. The S-F check, the repair and
    the packer then read arrays and allocate nothing. A plan is mutable
    scratch: one per annealing chain, never shared across domains. *)

type plan

val plan : n:int -> group list -> plan
(** The plan for [n] cells (indices [0 .. n-1]) under disjoint
    [groups]. *)

val counterpart : plan -> int -> int
(** [counterpart p c]: the partner of a paired cell, [c] itself for a
    self-symmetric cell, [-1] for a free cell. *)

val feasible : plan -> Sp.t -> bool
(** Property (1) for every group of the plan, in one alpha sweep: read
    in alpha order, a group's members must meet their counterparts in
    strictly decreasing beta position. O(n), allocation-free. *)

val repair : plan -> Sp.t -> unit
(** {!make_feasible} in place: rewrites [beta] of the code, by
    exchanges, allocation-free. *)

val is_feasible : Sp.t -> group -> bool
(** Property (1) for one group. *)

val is_feasible_all : Sp.t -> group list -> bool

val count_upper_bound : n:int -> group list -> int
(** The survey's Lemma: [(n!)^2 / prod (2 p_k + s_k)!]. Raises
    [Invalid_argument] whenever an intermediate factorial or the bound
    itself overflows 63-bit integers: without groups this happens for
    [n > 12], and with group cardinalities up to 15 every [n > 17]
    overflows while [n = 17] with a cardinality-15 group still fits
    (the boundary the tests pin). *)

val count_exhaustive : n:int -> group list -> int
(** Exact count of S-F sequence-pairs by enumerating all [(n!)^2]
    codes. Feasible up to n = 7 (a few seconds); intended for
    validating the Lemma. *)

val make_feasible : Sp.t -> group list -> Sp.t
(** Minimal repair: reorder each group's members within [beta] to the
    order property (1) dictates. [alpha] and the [beta]-positions used
    by each group are preserved. *)

val random_feasible : Prelude.Rng.t -> n:int -> group list -> Sp.t
(** A uniformly random [alpha] and [beta] repaired by
    {!make_feasible}. *)

val pack_into :
  tally:Telemetry.Counter.t ->
  plan ->
  x:int array ->
  y:int array ->
  w:int array ->
  h:int array ->
  Sp.t ->
  (unit, string) result
(** The symmetric packer. Reads the cell dimensions from [w]/[h] and
    writes the packed coordinates into [x]/[y], all indexed by cell.
    It builds the minimum packing that satisfies every symmetry group
    {e exactly}: symmetric pairs mirror about their group's common
    vertical axis at equal [y]; self-symmetric cells are centered on
    it. Allocation-free except on the [Error] path.

    Vertical: exact, in one pass. The below-edges plus one equality per
    mirrored pair become a graph over contracted nodes, each pair one
    node. One walk finds its strongly connected components and the
    longest path into each node. The packing exists exactly when no
    cycle is positive: below-edges that, joined through the pair
    equalities, lead from a cell back above itself (e.g. [b] below
    [a'] and [a] below [b'] for pairs [(a, a')] and [(b, b')]). Every
    cell on a cycle has the height its edges carry, so a cycle is
    positive unless all its cells have height 0; such a zero-height
    cycle is no obstacle and its nodes share one [y].

    Horizontal: a group's shared axis couples all its pairs, so
    longest-path passes alternate with per-group axis lifting, stopping
    at the first lift that moves nothing, under a cap of
    [10(n + G) + 20] passes.

    Codes with a positive vertical cycle are S-F yet have no coupled
    packing, and they are common on multi-group circuits. They -- and
    any code whose horizontal fixpoint exceeds its cap -- are packed by
    segregation instead: each group becomes a symmetry island, the same
    coupled core run on the group's members alone, and the islands plus
    the free cells are packed from the reduced code. The result is
    still exactly symmetric and overlap-free, so this path never
    returns [Error]. [tally] is bumped once per pack that takes it --
    {!Placer.Eval} passes its [eval.sym_fallbacks] counter.

    Self-symmetric cells whose width parity disagrees with the group
    axis are padded by one grid unit so the axis falls on the integer
    half-grid (documented substitution; pads are visible in [w]).

    Errors only if the code is not symmetric-feasible or a pair's cells
    differ in dimensions. *)

val pack_symmetric_into :
  ?tally:Telemetry.Counter.t ->
  x:int array ->
  y:int array ->
  w:int array ->
  h:int array ->
  Sp.t ->
  Pack.dims ->
  group list ->
  (unit, string) result
(** {!pack_into} under a fresh plan, with [w]/[h] filled from [dims]
    first. [tally] defaults to {!Telemetry.Counter.null}. *)

val pack_symmetric :
  Sp.t ->
  Pack.dims ->
  group list ->
  (Geometry.Transform.placed list, string) result
(** {!pack_symmetric_into} on fresh buffers, as placements in
    cell-index order. The right cell of every mirrored pair is placed
    with orientation [MY], every other cell [R0]. *)

val axis2_of : Geometry.Transform.placed list -> group -> int option
(** The doubled axis the group actually sits on, if it is symmetric. *)
