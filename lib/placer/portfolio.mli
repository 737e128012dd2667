(** Heterogeneous portfolio annealing: race the survey's topological
    representations — sequence-pair, flat B*-tree, TCG, and optionally
    the deterministic shape-function enumerator (§IV) — on one circuit
    under one cost scale, on {!Anneal.Parallel.lockstep}, the same
    barrier schedule multi-start annealing runs on.

    Entrants advance in lock-step slices of 32 rounds and trade
    solutions at the barriers in the one form every representation can
    produce and consume, the placed list: the globally best entrant is
    materialized once and offered to the others still running, in
    entrant order; each re-encodes it into its own representation and
    adopts it only on strict improvement, re-costed by its own
    evaluator. The one-shot enumerator finishes in the first slice and
    stays on as a donor.

    The outcome is a pure function of the caller seed and the
    arguments: identical for any [workers] or [pool] width. *)

type engine = Sp | Bstar | Tcg | Esf

val engine_name : engine -> string
(** "sp" | "bstar" | "tcg" | "esf" — the QoR/ledger tag. *)

type entrant = {
  engine : engine;
  seed : int;  (** chain seed drawn from the caller rng (drawn, unused, for Esf) *)
  cost : float;  (** the entrant's own final best cost *)
  sa_rounds : int;
  evaluated : int;
}

type outcome = {
  placement : Placement.t;  (** the winner's best solution *)
  cost : float;
  winner : engine;
      (** the entrant that owns the best solution (the first, in race
          order, on a tie) *)
  entrants : entrant list;  (** per-entrant results, race order *)
  evaluated : int;  (** total cost evaluations, adoptions included *)
  workers : int;  (** width of the pool the race ran on *)
}

val rot_of_placed :
  Netlist.Circuit.t -> Geometry.Transform.placed list -> bool array
(** Per-cell rotation flags recovered from placed rectangle dimensions
    (true where a rect's dims differ from the module's intrinsic
    ones). One of the placed-list re-encoders the race uses for
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
    spawn. Neither changes the outcome, only how many domains compute
    it.

    [engines] defaults to [Sp; Bstar] plus [Tcg] when the circuit has
    at most 62 modules and [Esf] when [hierarchy] is given and the
    circuit has at most 40 modules. With non-empty [groups] only the
    sequence-pair arm runs by default (the other representations are
    unconstrained, and a symmetric-infeasible placement must not win);
    [Esf] keeps hierarchical symmetry islands rigid and stays
    eligible. An explicit [Esf] entrant without [hierarchy], or an
    explicit empty list, raises [Invalid_argument].

    Every entrant runs to freezing; the winner is the entrant that
    holds the lowest best cost at the end.

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
    engine's own move-level sanitizer {e and} audits the placement
    offered at every barrier, and the final winner's (overlap,
    coverage), on the calling domain.

    [telemetry]: per-entrant child sinks (tid = entrant index + 1)
    carry the engine's usual streams plus ["chain.slice"] spans, a
    ["chain.slice_us"] counter and one {!Telemetry.Qor.chain} record
    tagged with the engine name and mode ["deterministic"]; children
    merge into [telemetry] after the race, which itself receives the
    schedule's ["parallel.slice"] / ["parallel.exchange"] spans and
    ["parallel.exchanges"] counter. *)
