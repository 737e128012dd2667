(** Simulated-annealing placement over flat B*-trees (survey §III,
    ref [5]).

    The unconstrained counterpart of {!Bstar.Hbstar}: one B*-tree over
    all modules plus rotation flags. Used as the B*-tree arm of the
    representation ablation (experiment E10). *)

type state = {
  flat : Bstar.Flat.t;
  rot : bool array;
  mutable last : last_move;  (** what [propose] did, for [undo] *)
}
(** One in-place annealing state. Exposed so {!Portfolio} can build
    and convert chain states; construct fresh states with
    [last = L_none]. *)

and last_move = L_none | L_tree of Bstar.Flat.undo | L_rot of int

type outcome = Placement.outcome = {
  placement : Placement.t;
  cost : float;
  sa_rounds : int;
  evaluated : int;
  workers : int;
  chains : int;
}

val dims_table : Netlist.Circuit.t -> (int * int) array array
(** Per-cell oriented dimensions, read once: row 0 unrotated, row 1
    rotated — the [tbl] argument of {!evaluate}. *)

val problem_of :
  ?validate:bool ->
  ?estimator:(unit -> Eval.estimator) ->
  weights:Cost.weights ->
  Netlist.Circuit.t ->
  Telemetry.Sink.t ->
  Prelude.Rng.t ->
  state Anneal.Sa.problem
(** One in-place annealing problem for one chain (private flat tree,
    rotation vector and {!Eval} arena); see
    {!Sa_seqpair.problem_of}, including the per-chain [estimator]
    factory semantics. *)

val evaluate : Netlist.Circuit.t -> (int * int) array array -> state -> Placement.t
(** Materialize a state through the pointer-tree packer. *)

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
(** The annealer runs on flat-array trees ({!Bstar.Flat}) under the
    in-place engine ({!Anneal.Sa.run}): O(1) perturbations,
    O(1) undo of rejected moves, and allocation-free contour packing
    through the {!Eval} arena ({!Eval.cost_bstar}). [workers]/[chains]
    enable {!Anneal.Parallel} multi-start annealing with the same
    semantics as {!Sa_seqpair.place}.

    [validate] (default: the [ANALOG_VALIDATE=1] environment switch,
    see {!Analysis.Invariant}) audits the flat tree
    ({!Analysis.Invariant.check_flat}) and its packed placement after
    every SA move and at every parallel exchange, raising
    {!Analysis.Invariant.Violation} with a diagnostic dump on the
    first corrupted state. Off, the annealer runs the exact same
    closures as before — zero overhead.

    [telemetry] as in {!Sa_seqpair.place}: convergence samples,
    [sa.round] / [eval.*] spans, [bstar.packs] and
    [sa.moves.tree.*] / [sa.moves.rotation.*] tallies; never draws
    from [rng]. *)
