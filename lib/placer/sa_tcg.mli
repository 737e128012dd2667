(** Simulated-annealing placement over transitive closure graphs
    (survey §II, ref [15]) — the third non-slicing arm of the
    representation ablation. Limited to 62 modules (see {!Seqpair.Tcg}). *)

type state = { tcg : Seqpair.Tcg.t; rot : bool array }
(** One annealing state. Exposed so {!Portfolio} can build and
    convert chain states. *)

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
  Netlist.Circuit.t ->
  Telemetry.Sink.t ->
  Prelude.Rng.t ->
  state ref Anneal.Sa.problem
(** One annealing problem for one chain; see
    {!Sa_seqpair.problem_of}, including the per-chain [estimator]
    factory. The graph packs to a placed list, which the chain's
    {!Eval} arena costs ({!Eval.cost_placed}). *)

val evaluate : Netlist.Circuit.t -> state -> Placement.t
(** Materialize a state through the TCG packer. *)

val place :
  ?weights:Cost.weights ->
  ?params:Anneal.Sa.params ->
  ?workers:int ->
  ?chains:int ->
  ?validate:bool ->
  ?estimator:(unit -> Eval.estimator) ->
  ?telemetry:Telemetry.Sink.t ->
  rng:Prelude.Rng.t ->
  Netlist.Circuit.t ->
  outcome
(** [workers]/[chains] enable {!Anneal.Parallel} multi-start
    annealing with the same semantics as {!Sa_seqpair.place} (the TCG
    problem is persistent, lifted with {!Anneal.Sa.persistent}, so
    chains exchange whole graphs); without
    either parameter the classic single-chain path runs on [rng]
    directly.

    [validate] (default: the [ANALOG_VALIDATE=1] environment switch)
    runs {!Analysis.Verify.placement} on the packed placement after
    every SA move and at every exchange — there is no separate
    structural TCG checker because
    {!Seqpair.Tcg} maintains closure by construction.

    [telemetry] as in {!Sa_seqpair.place}: convergence samples,
    [sa.round] spans, the arena's [eval.cost] spans over
    [eval.hpwl]/[eval.compose] and its [eval.costs] counter, and
    [sa.moves.tcg.*] / [sa.moves.rotation.*] tallies. *)
