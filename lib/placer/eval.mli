(** Allocation-free evaluation arena for annealing placers.

    A placer's inner loop evaluates tens of thousands of candidate
    placements; the throughput of that evaluation is what makes
    topological representations practical (FAST-SP's whole pitch,
    survey ref [26]). The arena preallocates every buffer evaluation
    needs — per-cell geometry arrays, pack scratch (Fenwick/vEB),
    CSR-flattened nets — so a single cost query performs zero
    allocation: the sequence-pair is packed into the arena's
    coordinate arrays and area + HPWL are computed in one pass over
    them. A symmetric pack reads the {!Seqpair.Symmetry.plan} its
    caller compiled once for the group list.

    This is the one code path that turns placed geometry into a cost.
    The annealers pack straight into the arena ({!cost_seqpair},
    {!cost_bstar}); every engine that produces a placed list instead —
    TCG, slicing, absolute, the one-shot engines behind
    [Engine.run], the portfolio's ESF entrant, the placement
    service's candidate family — loads it with {!cost_placed}.

    Costs agree bit-for-bit with the list-based reference
    [Cost.evaluate (Placement.make ...)] (tested), because both
    delegate to {!Cost.compose} and the packers write identical
    coordinates.

    One arena is single-threaded mutable state: give each parallel
    annealing chain its own (see {!Anneal.Parallel}). *)

type t

type estimator = Netlist.Wirelength.boxes -> width:int -> height:int -> float
(** A routing-congestion estimate over the query's net boxes and die.
    The arena walks the pins once per query: that walk sums the HPWL
    and leaves each net's bounding box over doubled pin centres in the
    boxes ({!Netlist.Wirelength.hpwl_flat}, indexed like the circuit's
    nets; nets of fewer than two pins hold stale values). [width] and
    [height] are the placement's extents from the origin, the ones
    the cost's area term reads. Called on every cost query whose
    weights carry a non-zero [routability], so implementations must
    be allocation-light and may keep private mutable scratch — one
    closure per arena, never shared across domains.
    [Route.Estimate.estimator] is the canonical producer. *)

val create :
  ?telemetry:Telemetry.Sink.t -> ?estimator:estimator -> Netlist.Circuit.t -> t
(** Buffers sized to the circuit; nets flattened once. [estimator]
    (default none) adds a congestion addend to every cost query under
    non-zero [Cost.routability] — see {!estimator}.

    With a live [telemetry] sink (default {!Telemetry.Sink.null}) every
    cost query records nested spans — [eval.cost] over [eval.pack],
    [eval.hpwl] and [eval.compose] — and bumps [eval.costs] plus the
    packer counters ([seqpair.packs]/[seqpair.cells] or [bstar.packs];
    [eval.sym_fallbacks] counts symmetric packs that took
    {!Seqpair.Symmetry.pack_into}'s segregated fallback).
    All handles are resolved here, once; with the null sink each hook
    is a single predictable branch on the hot path. *)

val last_extents : t -> int * int * float
(** [(width, height, hpwl)] of the most recent cost query — the
    bounding-box extents and wirelength the cost was composed from.
    The placement service reads these to record a cached candidate's
    geometry without a second pass; meaningless before the first
    query. *)

val cost_seqpair :
  t ->
  Cost.weights ->
  ?plan:Seqpair.Symmetry.plan ->
  Seqpair.Sp.t ->
  rot:bool array ->
  float
(** Pack the sequence-pair (with per-cell rotations; with [plan], the
    symmetric packing under its groups) into the arena and return its
    cost. Allocation-free; pass the plan as a preallocated option
    ([?plan]) to keep the call site so too. The plan is the caller's
    scratch as well: one per chain, like the arena. Raises
    [Invalid_argument] if a symmetric pack is requested for a
    non-symmetric-feasible code, like the list path it replaces. *)

val cost_bstar : t -> Cost.weights -> Bstar.Flat.t -> rot:bool array -> float
(** Contour-pack the flat B*-tree (with per-cell rotations) into the
    arena and return its cost. The tree's cells must be exactly the
    circuit's [0..n-1]. Bit-identical to
    [Cost.evaluate (Placement.make (Tree.pack ...))] (tested). *)

val cost_placed : t -> Cost.weights -> Geometry.Transform.placed list -> float
(** Cost of an externally packed placement (a TCG or slicing pack, a
    one-shot engine's result) without building a [Placement.t]. Every
    cell must appear exactly once. With a live sink the query records
    an [eval.cost] span over [eval.hpwl] and [eval.compose] (no
    [eval.pack]: the caller packed) and bumps [eval.costs]. *)
