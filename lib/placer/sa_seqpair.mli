(** Simulated-annealing placement over sequence-pairs (survey §II).

    The state is a sequence-pair plus per-cell rotation flags. With
    symmetry groups the exploration is restricted to the
    symmetric-feasible subspace: the initial code is repaired to S-F,
    every move applies its symmetric companion (see {!Seqpair.Moves}),
    rotations flip both cells of a pair together, and evaluation uses
    the exact symmetric packing, so every visited placement keeps all
    groups mirror-symmetric.

    Candidate costs are computed through the allocation-free
    {!Eval} arena; only the final best placement is materialized. *)

type state = { sp : Seqpair.Sp.t; rot : bool array }
(** One annealing state: a sequence-pair plus per-cell rotation flags.
    Exposed so {!Portfolio} can build and convert chain states. *)

type outcome = Placement.outcome = {
  placement : Placement.t;
  cost : float;
  sa_rounds : int;
  evaluated : int;
  workers : int;
  chains : int;
}

val problem_of :
  ?validate:bool ->
  ?estimator:(unit -> Eval.estimator) ->
  weights:Cost.weights ->
  groups:Constraints.Symmetry_group.t list ->
  Netlist.Circuit.t ->
  Telemetry.Sink.t ->
  Prelude.Rng.t ->
  state Anneal.Sa.problem
(** One annealing problem for one chain: its own initial code drawn
    from [rng], its own {!Eval} arena, its own move tallies in the
    given sink. Moves work in place ({!Seqpair.Moves.propose_sf} under
    the chain's own {!Seqpair.Symmetry.plan}) and a rejected one is
    reverted from its undo log: the state's code is owned by the
    problem and mutated, never copied per move.
    The walk draws the same numbers as the persistent
    {!Seqpair.Moves.random_neighbor_sf}. This is what {!place} hands to
    {!Anneal.Parallel}; {!Portfolio} uses it to enter sequence-pair
    chains in a race.
    [estimator] is a factory for per-chain congestion estimators
    (called once here, so every chain owns its scratch — see
    {!Eval.estimator}); it only affects costs under a non-zero
    [weights.routability]. *)

val evaluate :
  Netlist.Circuit.t ->
  Constraints.Symmetry_group.t list ->
  state ->
  Placement.t
(** Materialize a state with the exact packer (off the hot path) — the
    one sequence-pair list materializer: the final best state, a
    portfolio chain's donation and a cached service candidate all go
    through it. *)

val audit :
  groups:Constraints.Symmetry_group.t list ->
  Netlist.Circuit.t ->
  state ->
  unit
(** The [?validate] sanitizer: representation invariants, symmetric
    feasibility and {!Analysis.Verify.placement} (with [groups]) over
    the exactly packed placement; raises
    {!Analysis.Invariant.Violation} on the first corrupted state. *)

val place :
  ?weights:Cost.weights ->
  ?params:Anneal.Sa.params ->
  ?groups:Constraints.Symmetry_group.t list ->
  ?workers:int ->
  ?chains:int ->
  ?validate:bool ->
  ?estimator:(unit -> Eval.estimator) ->
  ?telemetry:Telemetry.Sink.t ->
  rng:Prelude.Rng.t ->
  Netlist.Circuit.t ->
  outcome
(** Default weights {!Cost.default}; default SA parameters scale with
    the circuit size. [estimator] makes the anneal routability-driven
    under a non-zero [weights.routability] — see {!problem_of}.

    [workers]/[chains] follow {!Anneal.Parallel.multi_start}: with
    either one given, [chains] independent seeded chains (default
    [workers], default {!Anneal.Parallel.default_workers}) spread over
    [workers] domains with periodic best-exchange, chain seeds drawn
    from [rng], so a fixed caller seed gives identical results for any
    [workers] value. Without either parameter the classic single-chain
    path runs on [rng] directly. The outcome records the width and
    chain count that ran.

    [validate] (default: the [ANALOG_VALIDATE=1] environment switch,
    see {!Analysis.Invariant}) audits every SA move and every parallel
    exchange: sequence-pair consistency, symmetric-feasibility of all
    groups, and {!Analysis.Verify.placement} of the exactly packed
    placement (identity, multiplicity, overlap, quadrant, mirror
    symmetry), raising
    {!Analysis.Invariant.Violation} with a diagnostic dump on the
    first corrupted state. Off, the annealer runs the exact same
    closures as before — zero overhead.

    [telemetry] (default {!Telemetry.Sink.null}) collects the full
    pipeline picture: SA convergence samples and [sa.round] spans,
    per-evaluation [eval.pack]/[eval.hpwl]/[eval.compose] spans and
    packer counters from the arena, and per-move-class
    [sa.moves.seqpair.*] / [sa.moves.rotation.*] accept/reject
    tallies. Telemetry never draws from [rng], so results are
    bit-identical with it on or off (tested). *)
