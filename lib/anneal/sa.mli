(** Generic simulated-annealing engine.

    State type, move generator and cost function are supplied by the
    caller; the engine owns the control loop: Metropolis acceptance,
    temperature schedule, best-so-far tracking and freezing detection.
    All placers in this repository (sequence-pair, B*-tree, HB*-tree,
    TCG, slicing, absolute) and the layout-aware sizing optimizer of
    §V instantiate it.

    The engine works in place: one working state is mutated by
    [propose], reverted by [undo] on rejection, and snapshotted only
    when a new best appears. Persistent (functional) move generators
    run on it through {!persistent}, which keeps the value in a [ref]
    and makes the same rng draws in the same order. *)

type 'a problem = {
  state : 'a;  (** the working state, mutated by [propose] *)
  propose : Prelude.Rng.t -> 'a -> unit;
      (** mutate the state into a candidate *)
  undo : 'a -> unit;
      (** revert the {e last} [propose]; called exactly once per
          rejected move, never twice in a row *)
  cost : 'a -> float;  (** evaluate a state as it stands *)
  copy : 'a -> 'a;  (** fresh snapshot, for best-so-far tracking *)
  blit : src:'a -> dst:'a -> unit;  (** overwrite [dst] with [src] *)
}

val persistent :
  init:'a ->
  neighbor:(Prelude.Rng.t -> 'a -> 'a) ->
  cost:('a -> float) ->
  'a ref problem
(** Lift a persistent problem onto the in-place engine: [propose]
    saves the current value and stores [neighbor rng] of it, [undo]
    restores the saved value, [copy] is [ref !r] and [blit] is
    [dst := !src]. Draw for draw the same walk a copying engine would
    take from [init]. The problem owns one saved-value cell, so build
    one per chain. *)

type params = {
  initial_temperature : float option;
      (** [None]: estimated from the cost spread of random moves *)
  final_temperature : float;
  moves_per_round : int;  (** Metropolis steps at each temperature *)
  schedule : Schedule.t;
  frozen_rounds : int;
      (** stop after this many consecutive rounds in which the walk is
          effectively frozen: acceptance ratio below 2% and no new
          best found *)
  max_rounds : int;
}

val default_params : n:int -> params
(** Sensible defaults scaled to problem size [n] (moves per round
    [max 64 (8n)]). *)

type 'a outcome = {
  best : 'a;  (** a fresh [copy], independent of the working state *)
  best_cost : float;
  rounds : int;
  accepted : int;
  evaluated : int;
}

val run :
  ?telemetry:Telemetry.Sink.t -> rng:Prelude.Rng.t -> params -> 'a problem -> 'a outcome
(** [start] followed by [step_round] until [finished].

    [telemetry] (default {!Telemetry.Sink.null}) receives one
    ["sa.round"] span, one convergence sample (round, temperature,
    acceptance ratio, best cost) and one ["sa.acceptance"] histogram
    observation per temperature round, plus per-move accept/reject
    tallies through the problem's registered {!Telemetry.Moves.t}.
    Instrumentation draws nothing from the rng, so the walk is
    bit-identical with telemetry on or off (tested); with the null sink
    each hook is a single predictable branch. *)

(** {2 Stepwise chains}

    The same walk, advanced one temperature round at a time so several
    chains can be interleaved and coupled ({!Parallel} runs one chain
    per seed across domains and exchanges bests at round boundaries).
    The decomposition is exact: [run] is [start] followed by
    [step_round] until [finished], so stepping a single chain to
    completion reproduces [run] bit for bit (tested). *)

type 'a chain

val start :
  ?telemetry:Telemetry.Sink.t -> rng:Prelude.Rng.t -> params -> 'a problem -> 'a chain
(** Evaluate the initial state (and, when [initial_temperature] is
    [None], estimate t0 from 64 random moves, then restore the working
    state through a snapshot). [telemetry] as in {!run}. *)

val finished : 'a chain -> bool
(** True once the round budget, final temperature, or freezing
    criterion is reached. *)

val step_round : 'a chain -> unit
(** One temperature round ([moves_per_round] Metropolis steps followed
    by one schedule update). No-op when [finished]. *)

val best : 'a chain -> 'a
(** The chain's internal best-snapshot buffer. Read-only: it is
    overwritten whenever the chain improves. *)

val best_cost : 'a chain -> float

val adopt : 'a chain -> state:'a -> cost:float -> unit
(** Multi-start exchange: when [cost] strictly improves on the chain's
    best, [state] is blitted into both the working state and the best
    snapshot; no-op otherwise. Strictness means re-offering a chain
    its own {!best} never perturbs it (so a solo chain is exactly
    [run]) and never blits a buffer onto itself. *)

val outcome_of_chain : 'a chain -> 'a outcome
(** Snapshot of the chain's progress so far; [best] is a fresh
    [copy]. *)

val estimate_t0 : rng:Prelude.Rng.t -> 'a problem -> samples:int -> float
(** Standard deviation of the cost change over random moves, the usual
    starting temperature heuristic. Walks the working state accepting
    every move, then restores it. *)
