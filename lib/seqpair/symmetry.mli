(** Symmetric-feasible sequence-pairs (survey §II, refs [13], [2], [3]).

    A sequence-pair [(alpha, beta)] is {e symmetric-feasible} (S-F) for
    a symmetry group when for any two distinct group cells [x], [y]:

    {v alpha^-1(x) < alpha^-1(y)  <=>  beta^-1(sym y) < beta^-1(sym x) v}

    (property (1) of the survey) — equivalently, the group members
    appear in [beta] exactly in the reverse [alpha]-order of their
    symmetric counterparts. S-F codes admit packings in which every
    group is exactly mirror-symmetric about a common vertical axis. *)

type group = Constraints.Symmetry_group.t

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
(** The symmetric packer: fills [w]/[h] from [dims] and writes the
    packed coordinates into [x]/[y], all indexed by cell. It builds
    the minimum packing that satisfies every symmetry group
    {e exactly}: symmetric pairs mirror about their group's common
    vertical axis at equal [y]; self-symmetric cells are centered on
    it. Uses a coupled constraint-graph fixpoint per axis: longest-path
    lower bounds alternate with per-group axis lifting until stable.

    The vertical system (below-edges plus one zero-weight equality per
    mirrored pair) stops changing after at most [P + 1] passes, [P] the
    number of pairs over all groups, unless it has a positive cycle:
    below-edges that, joined through the pair equalities, lead from a
    cell back above itself (e.g. [b] below [a'] and [a] below [b'] for
    pairs [(a, a')] and [(b, b')]). Such codes are S-F yet have no
    coupled packing, and they are common on multi-group circuits. They
    — and any code whose horizontal fixpoint exceeds its cap — are
    packed by segregation instead: each group becomes a symmetry island,
    the same fixpoint run on the group's members alone, and the islands
    plus the free cells are packed from the reduced code. The result is
    still exactly symmetric and overlap-free, so this path never returns
    [Error]. [tally] (default {!Telemetry.Counter.null}, one dead
    branch) is bumped once per pack that takes it — {!Placer.Eval}
    passes its [eval.sym_fallbacks] counter.

    Self-symmetric cells whose width parity disagrees with the group
    axis are padded by one grid unit so the axis falls on the integer
    half-grid (documented substitution; pads are visible in the
    returned widths).

    Errors only if the code is not symmetric-feasible or a pair's cells
    differ in dimensions. *)

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
