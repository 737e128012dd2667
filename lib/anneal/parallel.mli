(** Multi-start parallel annealing over a persistent domain pool
    (OCaml 5 domains).

    Runs one {!Sa} chain per seed on a {!Pool} spawned once per call.
    The chains are entrants of {!lockstep}, the one barrier schedule
    (which also races {!Placer.Portfolio}'s heterogeneous entrants).
    At each slice boundary the globally best state is offered to every
    chain still running ({!Sa.adopt}: taken only when strictly better
    than the chain's own best); a finished chain keeps its own best.
    The outcome is a pure function of [seeds], [params] and
    [exchange_every]: [workers = 1] and [workers = 8] yield identical
    results, a single seed with any worker count reproduces
    [Sa.run ~rng:(Rng.create seed)] exactly, and with
    [exchange_every <= 0] every chain replays its solo walk (all
    tested).

    [problem_of] is called once per chain with the chain's private
    telemetry sink and rng (draw the initial state from the rng,
    exactly as the sequential placers draw from theirs); the whole
    mutable state (working state, arenas such as {!Placer.Eval}) must
    be created inside it so no two chains share buffers — exchange
    copies states across chains with the problem's [blit]. Any
    instrumentation the problem wants must go through the sink it is
    given — that child sink is the only one its chain's current domain
    may touch. *)

type 'a outcome = {
  best : 'a;
  best_cost : float;
  winner : int;  (** index into [seeds] of the winning chain *)
  chains : 'a Sa.outcome array;  (** per-chain outcomes, seed order *)
  evaluated : int;  (** total cost evaluations across chains *)
}

val default_workers : unit -> int
(** The [ANALOG_WORKERS] environment variable when set to an integer
    (clamped to at least 1 — useful for pinning CI to a known width or
    sharing a machine), otherwise
    [Domain.recommended_domain_count ()]. Unparsable values fall back
    to the hardware count. *)

val width : ?workers:int -> int -> int
(** [width ?workers k]: the pool width [k] chains run on — [workers]
    (default {!default_workers}) capped at [k], at least 1. *)

val parse_workers : string -> int option
(** The parser behind [ANALOG_WORKERS]: [int_of_string] after trimming,
    clamped to at least 1; [None] when unparsable. Exposed for
    testing. *)

type 'x entrant = {
  tel : Telemetry.Sink.t;
      (** the entrant's private child sink of the schedule's
          [telemetry] (tid = entrant index + 1 by convention) *)
  engine : string option;  (** QoR tag, e.g. ["sp"] *)
  step : unit -> unit;  (** advance one round; no-op once finished *)
  finished : unit -> bool;
  best_cost : unit -> float;
  best : unit -> 'x;
      (** the exchange value of the entrant's best; called only on the
          globally best entrant at a barrier and on the final winner *)
  offer : 'x -> float -> unit;
      (** the barrier's global best and its cost; the entrant decides
          whether to take it *)
  effort : unit -> int * int;  (** rounds and cost evaluations so far *)
}
(** One participant of the {!lockstep} schedule, behind closures so
    that different representations race on one schedule. The exchange
    value ['x] is a chain's state for {!run} and the placed list for
    {!Placer.Portfolio}. *)

val lockstep :
  ?pool:Pool.t ->
  ?workers:int ->
  ?exchange_every:int ->
  ?check:('x -> unit) ->
  ?telemetry:Telemetry.Sink.t ->
  'x entrant array ->
  int
(** The deterministic barrier schedule. Entrants advance in slices of
    [exchange_every] rounds (default 32; non-positive: one slice to
    completion, no exchange), entrant [i] on pool domain
    [i mod workers]; each slice is a {!Pool.run} barrier. At the
    boundary the first entrant holding the lowest [best_cost] is
    materialized once ([best]), passed to [check] on the calling
    domain, then offered to every unfinished entrant in index order. Returns the
    index of the final winner — the first entrant holding the lowest
    best cost — after [check] has run on it once more.

    The schedule decides by slice count and entrant order only, so
    with deterministic entrants the result is identical for any
    [workers] (default {!default_workers}, capped at the entrant
    count) or [pool] (a caller-owned {!Pool}, left running afterwards;
    [workers] is then ignored).

    [telemetry] receives ["parallel.slice"] / ["parallel.exchange"]
    spans and a ["parallel.exchanges"] counter from the calling
    domain. Each entrant's sink receives per-slice ["chain.slice"]
    spans, a ["chain.slice_us"] counter accumulating slice wall time,
    and one final {!Telemetry.Qor.chain} record (best cost, [effort],
    wall time, move-class tallies, [engine] and mode
    ["deterministic"]); the entrant sinks are then merged into
    [telemetry]. Raises [Invalid_argument] on an empty array. *)

val run :
  ?workers:int ->
  ?exchange_every:int ->
  ?check:('a -> unit) ->
  ?telemetry:Telemetry.Sink.t ->
  ?engine:string ->
  seeds:int list ->
  Sa.params ->
  (Telemetry.Sink.t -> Prelude.Rng.t -> 'a Sa.problem) ->
  'a outcome
(** The chains of [seeds] on {!lockstep}. A private pool is created and
    shut down per call; [workers] defaults to {!default_workers},
    capped at the number of seeds; [exchange_every] defaults to 32
    rounds, and any non-positive value disables exchange entirely
    (fully independent restarts). Raises [Invalid_argument] on an
    empty seed list.

    [check] is a sanitizer hook; a raise from it aborts the run. It
    runs as in {!lockstep}, on the winner's best-snapshot buffer (treat
    it as read-only), and once more on the final winner, on the calling
    domain. The default does nothing.

    [engine] tags the per-chain QoR records with the engine name —
    placers pass ["sp"], ["bstar"], ["tcg"].

    [telemetry] (default {!Telemetry.Sink.null}) receives the
    {!lockstep} streams; each chain's child sink (tid = seed index + 1)
    also carries per-round ["sa.round"] spans. Telemetry draws nothing
    from any rng, so results remain a pure function of
    seeds/params/exchange and worker-count invariant. *)

type 'a multi_start = {
  state : 'a;  (** the best state found *)
  cost : float;  (** its cost *)
  rounds : int;  (** rounds of the winning chain *)
  evaluated : int;  (** total cost evaluations across chains *)
  workers : int;  (** domains that ran the chains *)
  chains : int;  (** chains run *)
}

val multi_start :
  ?workers:int ->
  ?chains:int ->
  ?check:('a -> unit) ->
  ?telemetry:Telemetry.Sink.t ->
  engine:string ->
  rng:Prelude.Rng.t ->
  Sa.params ->
  (Telemetry.Sink.t -> Prelude.Rng.t -> 'a Sa.problem) ->
  'a multi_start
(** The multi-start policy of every placer. With neither [workers]
    nor [chains], one {!Sa.run} chain on [rng] itself (one worker, one
    chain; [check] and [engine] are unused). Otherwise [chains]
    chains (default [workers], default {!default_workers}; at least 1)
    whose seeds are drawn from [rng], handed to {!run} with the other
    arguments — so a fixed caller seed gives identical results for any
    [workers] value. [workers] in the result is the width that ran:
    [min chains (workers or default_workers ())]. *)
