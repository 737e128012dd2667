(** Probabilistic congestion estimation for routability-driven
    placement (RUDY-style: each net's weighted HPWL demand spread
    uniformly over its pin bounding box, accumulated into a coarse bin
    grid and compared against per-bin track supply).

    This is the [Route.estimate] term the annealers fold into
    {!Placer.Cost} behind the [routability] weight. A cost query with
    the estimate costs about 1.5x the plain arena query (the E17
    [route_estimate] rows; [perf --smoke] fails above 2x), because the
    estimate walks no pins: it reads the per-net boxes the arena's
    HPWL pass already wrote, then does one pass over the nets and a
    fixed 8x8 bin grid — no maze expansion.

    The score is {e smooth}: quadratic in per-bin density (sum of
    [usage^2 / capacity] over bins), so the annealer sees a gradient
    away from crowding before literal overflow appears, and placements
    with the same HPWL but better-spread nets cost less. Zero demand
    scores 0. *)

type t
(** An estimation model for one circuit plus private bin scratch.
    Mutable — never share one [t] across domains; build one per chain
    (see {!estimator}). *)

val create :
  ?bins:int -> ?pitch:int -> ?utilization:float -> Netlist.Circuit.t -> t
(** Take the circuit's nets as {!Netlist.Wirelength.flatten}'s CSR
    layout (the one the annealers' HPWL reads; nets with fewer than two
    pins stay in it and carry no demand) and allocate the [bins] x
    [bins] grid (default 8). [pitch] (default
    {!Grid.default_pitch}, the router's track pitch) and [utilization] (default
    0.5) set the per-bin supply: one horizontal and one vertical track
    per pitch, derated by [utilization]. *)

val score :
  t -> Netlist.Wirelength.boxes -> width:int -> height:int -> float
(** The congestion score of a placement given its net boxes (as
    {!Netlist.Wirelength.hpwl_flat} writes them for this circuit's
    nets) and its extents from the origin, which set the die the bins
    divide. Allocation-free and deterministic. *)

val estimator :
  ?bins:int ->
  ?pitch:int ->
  ?utilization:float ->
  Netlist.Circuit.t ->
  unit ->
  Placer.Eval.estimator
(** The per-chain factory the placer engines take as [?estimator]:
    each call builds a fresh model with private scratch, so parallel
    chains never share mutable state. *)

val score_placement : t -> Placer.Placement.t -> float
(** Convenience for benches and reports: score a materialized
    placement (allocates the centre and box arrays). The same HPWL
    walk and {!score} as an arena query, so it equals the estimate an
    annealer saw for that placement bit for bit (tested). *)
