(** The seven placement engines behind one entry point: the CLI's
    [place]/[route]/[dashboard] and the E18 QoR ledger all run an
    engine through {!run} and record it through {!entry}. *)

type t =
  | Sp  (** annealed symmetric-feasible sequence pair ({!Sa_seqpair}) *)
  | Bstar  (** annealed flat B*-tree ({!Sa_bstar}) *)
  | Tcg  (** annealed transitive closure graph ({!Sa_tcg}) *)
  | Hbstar  (** annealed hierarchical B*-tree with constraints ({!Sa_hbstar}) *)
  | Esf  (** enhanced shape functions ({!Shapefn.Combine}) *)
  | Rsf  (** restricted shape functions ({!Shapefn.Combine}) *)
  | Slicing  (** slicing-floorplan baseline ({!Slicing}) *)

val all : t list
(** Every engine, in the order above. *)

val name : t -> string
(** The CLI and ledger tag: ["sp"], ["bstar"], ["tcg"], ["hbstar"],
    ["esf"], ["rsf"], ["slicing"]. *)

val of_string : string -> t option
(** Inverse of {!name}; ["seqpair"] is accepted for [Sp]. *)

val annealed : t -> bool
(** The engines that anneal on {!Anneal.Parallel.multi_start} with the
    full argument set — [Sp], [Bstar], [Tcg], [Hbstar]: only they take
    [workers]/[chains]/[validate]/[estimator] and record
    annealing telemetry. *)

val run :
  ?weights:Cost.weights ->
  ?groups:Constraints.Symmetry_group.t list ->
  ?workers:int ->
  ?chains:int ->
  ?validate:bool ->
  ?estimator:(unit -> Eval.estimator) ->
  ?telemetry:Telemetry.Sink.t ->
  rng:Prelude.Rng.t ->
  t ->
  Netlist.Circuit.t ->
  Netlist.Hierarchy.t ->
  (Placement.outcome, Analysis.Diagnostic.t) result
(** Place [circuit] with one engine, or reject it with an [AL013]
    error when the engine's representation cannot hold it ([Tcg]
    beyond {!Seqpair.Tcg.max_cells} modules). The annealed engines get every
    argument ([groups] only reaches [Sp]; [Hbstar] takes its symmetry
    groups from [hierarchy]) and return their placer's outcome
    unchanged. [Slicing] anneals on [rng] with [weights]. The
    shape-function enumerators ([Esf], [Rsf]) place from [hierarchy]
    in one shot, are costed with [Eval.cost_placed weights] and report
    0 SA rounds. Engines other than the annealed four run one chain on
    one worker. *)

val entry :
  ?routed_wl:int ->
  ?route_overflow:int ->
  ?route_failed:int ->
  ?route_iterations:int ->
  groups:Constraints.Symmetry_group.t list ->
  hierarchy:Netlist.Hierarchy.t ->
  telemetry:Telemetry.Sink.t ->
  label:string ->
  engine:string ->
  seed:int ->
  wall_s:float ->
  Placement.outcome ->
  Telemetry.Ledger.entry
(** The ledger entry of one run: {!Qor.extract} over the outcome (move
    rates from [telemetry]'s counters, the routed QoR passed through
    when given), the chain QoR records [telemetry] collected, the
    placed rectangles, and the outcome's effective [workers]/[chains].
    [engine] is the recorded tag (an engine {!name}, or a variant such
    as ["portfolio"] or ["esf+route"]). *)
