(** Simulated-annealing placement over hierarchical B*-trees
    ({!Bstar.Hbstar}, survey §III-B, ref [17]): symmetry islands,
    common-centroid patterns and proximity groups placed from the
    constraint hierarchy, annealed on the same chain scaffolding as
    {!Sa_tcg}. *)

type outcome = Placement.outcome = {
  placement : Placement.t;
  cost : float;
  sa_rounds : int;
  evaluated : int;
  workers : int;
  chains : int;
}

val proximity_penalty : float
(** 1e7: added to a candidate's cost once per proximity group of the
    hierarchy whose members are not edge-connected. *)

val problem_of :
  ?validate:bool ->
  ?estimator:(unit -> Eval.estimator) ->
  ?halo:int ->
  weights:Cost.weights ->
  Netlist.Circuit.t ->
  Netlist.Hierarchy.t ->
  Telemetry.Sink.t ->
  Prelude.Rng.t ->
  Bstar.Hbstar.state ref Anneal.Sa.problem
(** One annealing problem for one chain; see {!Sa_tcg.problem_of}. The
    initial trees come from {!Bstar.Hbstar.initial} (which raises
    [Invalid_argument] on a hierarchy that does not cover the circuit
    exactly once), a move is {!Bstar.Hbstar.perturb}, and a candidate
    costs [Eval.cost_placed weights] of its packing plus
    {!proximity_penalty} per disconnected proximity group. [halo] as in
    {!Bstar.Hbstar.initial}. *)

val place :
  ?weights:Cost.weights ->
  ?params:Anneal.Sa.params ->
  ?halo:int ->
  ?workers:int ->
  ?chains:int ->
  ?validate:bool ->
  ?estimator:(unit -> Eval.estimator) ->
  ?telemetry:Telemetry.Sink.t ->
  rng:Prelude.Rng.t ->
  Netlist.Circuit.t ->
  Netlist.Hierarchy.t ->
  outcome
(** [workers]/[chains] as in {!Sa_tcg.place} (chains exchange whole
    HB*-tree states); without either the single chain runs on [rng]
    directly. [halo] reserves guard-ring room around every proximity
    macro ({!Finishing.guard_rings}).

    [validate] (default: the [ANALOG_VALIDATE=1] environment switch)
    runs {!Analysis.Verify.placement} with the hierarchy's symmetry
    groups ({!Constraints.Symmetry_group.of_hierarchy}) on the packed
    placement after every SA move and at every exchange.

    [telemetry] as in {!Sa_tcg.place}, with one move class,
    [sa.moves.tree.*]. *)
