(** Heterogeneous portfolio annealing: race the survey's topological
    representations — sequence-pair, flat B*-tree, TCG, and optionally
    the deterministic shape-function enumerator (§IV) — on one circuit
    under one cost scale, free-running on a persistent domain pool.

    The entrants trade solutions through an {!Anneal.Elite} pool whose
    currency is the placed list: each engine materializes its best to
    publish and re-encodes pulled placements into its own
    representation to adopt (strict improvement only, re-costed by its
    own evaluator). Losing engines — frozen chains, the one-shot
    enumerator — leave their final publishes in the pool as restart
    seeds for the survivors.

    The race is asynchronous by construction; results depend on domain
    interleaving except at [workers:1], where entrants run
    sequentially in order and the outcome is a pure function of the
    caller seed. For bit-identical CI placement, use the individual
    engines' deterministic mode instead. *)

type engine = Sp | Bstar | Tcg | Esf

val engine_name : engine -> string
(** "sp" | "bstar" | "tcg" | "esf" — the QoR/ledger tag. *)

type entrant = {
  engine : engine;
  seed : int;  (** chain seed drawn from the caller rng (0 for Esf) *)
  cost : float;  (** the entrant's own final best cost *)
  sa_rounds : int;
  evaluated : int;
}

type outcome = {
  placement : Placement.t;  (** globally best published solution *)
  cost : float;
  winner : engine;
      (** with [?bar]: the first entrant past the bar; otherwise the
          publisher of the best solution *)
  entrants : entrant list;  (** per-entrant results, race order *)
  evaluated : int;  (** total cost evaluations, adoptions included *)
  workers : int;  (** width of the pool the race ran on *)
}

val rot_of_placed :
  Netlist.Circuit.t -> Geometry.Transform.placed list -> bool array
(** Per-cell rotation flags recovered from placed rectangle dimensions
    (true where a rect's dims differ from the module's intrinsic
    ones). One of the placed-list re-encoders the race uses for elite
    adoption, exposed so the placement service can derive a cached
    topology from a winning placement. *)

val harmonize_rot :
  Constraints.Symmetry_group.t list -> bool array -> bool array
(** Copy each cell's rotation flag onto its higher-indexed symmetry
    partner, in place (symmetry pairs must rotate together); returns
    the same array. *)

val sp_of_placed : int -> Geometry.Transform.placed list -> Seqpair.Sp.t
(** Sequence-pair whose packing reproduces the placed list's relative
    order: cells sorted along the two diagonals of the doubled-center
    grid ([n] is the cell count). Not symmetric-feasible by itself —
    follow with [Seqpair.Symmetry.make_feasible] when groups apply. *)

val tree_of_placed : Geometry.Transform.placed list -> Bstar.Tree.t
(** B*-tree warm start from bottom-up rows of equal bottom edge. *)

val race :
  ?weights:Cost.weights ->
  ?params:Anneal.Sa.params ->
  ?groups:Constraints.Symmetry_group.t list ->
  ?pool:Anneal.Pool.t ->
  ?workers:int ->
  ?chains:int ->
  ?engines:engine list ->
  ?hierarchy:Netlist.Hierarchy.t ->
  ?bar:float ->
  ?exchange_every:int ->
  ?validate:bool ->
  ?feasibility_check:bool ->
  ?outline:int * int ->
  ?estimator:(unit -> Eval.estimator) ->
  ?telemetry:Telemetry.Sink.t ->
  rng:Prelude.Rng.t ->
  Netlist.Circuit.t ->
  outcome
(** Race the portfolio. [chains] (default 1) annealing chains per
    engine; [workers] domains as {!Anneal.Parallel.default_workers}.
    [pool] races on a caller-owned {!Anneal.Pool} instead (left
    running afterwards; [workers] is then ignored in favor of the
    pool's width) — the placement service's miss path shares one pool
    across every request this way, so a request never pays a domain
    spawn.

    [engines] defaults to [Sp; Bstar] plus [Tcg] when the circuit has
    at most 62 modules and [Esf] when [hierarchy] is given and the
    circuit has at most 40 modules. With non-empty [groups] only the
    sequence-pair arm runs by default (the other representations are
    unconstrained, and a symmetric-infeasible placement must not win);
    [Esf] keeps hierarchical symmetry islands rigid and stays
    eligible. An explicit [Esf] entrant without [hierarchy], or an
    explicit empty list, raises [Invalid_argument].

    [bar] is the QoR bar: the first entrant to publish a cost at or
    below it wins and stops the race; without it every entrant runs to
    freezing and the best publish wins. [exchange_every] (default 32)
    is each chain's publish/pull slice length; non-positive disables
    mid-run exchange (independent restarts).

    [feasibility_check] (default false) runs the {!Analysis.Feasibility}
    prover before any entrant starts and raises
    {!Analysis.Invariant.Violation} with the proof diagnostics when the
    input is infeasible ([outline] is forwarded as the fixed-outline
    obligation) — every error the prover emits is engine-independent,
    so no entrant could have won.

    [estimator] is the per-chain congestion-estimator factory
    ({!Eval.estimator}); under a non-zero [weights.routability] every
    SA entrant (SP, B*-tree, TCG) anneals routability-driven. The
    one-shot Esf enumerator ignores it.

    [validate] (default the [ANALOG_VALIDATE=1] switch) runs each
    engine's own move-level sanitizer {e and} audits every published
    placement (overlap, coverage) on the publishing domain.

    [telemetry]: per-entrant child sinks (tid = entrant index + 1)
    carry the engine's usual streams plus ["chain.slice"] spans,
    ["chain.slice_us"] / ["chain.publishes"] / ["chain.pulls"]
    counters and one {!Telemetry.Qor.chain} record tagged with the
    engine name and mode ["async"]; children merge into [telemetry]
    after the race. *)
