(** Multi-start parallel annealing over a persistent domain pool
    (OCaml 5 domains).

    Runs one {!Sa} chain per seed on a {!Pool} spawned once per call,
    in one of two modes:

    - {b Deterministic} (the default): chains advance in lock-step
      slices of [exchange_every] rounds; each slice is a pool barrier
      and at the boundary the globally best state is offered to every
      chain ({!Sa.adopt} — taken only when strictly better than the
      chain's own best). The slice counter is a logical clock shared
      by all chains, so the outcome is a pure function of [seeds],
      [params] and [exchange_every]: the worker count only distributes
      the same computation over more cores — [workers = 1] and
      [workers = 8] yield identical results, and a single seed with
      any worker count reproduces [Sa.run ~rng:(Rng.create seed)]
      exactly (both tested).

    - {b Async / free-running}: each chain is one pool job running to
      completion at its own pace; there is no join barrier. Chains
      publish their bests to a shared {!Elite} pool and pull the
      global best at their own slice boundaries, so a slow chain never
      stalls the rest — this is the throughput mode. The outcome
      depends on domain interleaving (earlier-arriving bests change
      adoption points), but adoption is strictly improving, every
      adopted state passed [check] when published, and with
      [exchange_every <= 0] every chain replays its solo walk exactly,
      making the result [min] over independent restarts —
      deterministic again (tested).

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

val record_chain_qor :
  Telemetry.Sink.t ->
  ?engine:string ->
  mode:string ->
  best_cost:float ->
  rounds:int ->
  evaluated:int ->
  unit ->
  unit
(** Write one {!Telemetry.Qor.chain} record into a chain's child sink:
    best cost, effort, wall time read from the ["chain.slice_us"]
    counter, move tallies from the sink's counters, tagged with
    [engine] and [mode]. Exposed for {!Placer.Portfolio}, which runs
    its own race loop but reports chains the same way. *)

val run :
  ?mode:[ `Deterministic | `Async ] ->
  ?pool:Pool.t ->
  ?workers:int ->
  ?exchange_every:int ->
  ?check:('a -> unit) ->
  ?telemetry:Telemetry.Sink.t ->
  ?engine:string ->
  seeds:int list ->
  Sa.params ->
  (Telemetry.Sink.t -> Prelude.Rng.t -> 'a Sa.problem) ->
  'a outcome
(** [mode] (default [`Deterministic]) selects the exchange discipline
    described above. [pool] reuses a caller-owned {!Pool} (left
    running afterwards — how a long-lived service amortizes domain
    spawns across requests; [workers] is then ignored in favor of the
    pool's width); without it a private pool is created and shut down
    per call. [workers] defaults to {!default_workers}, capped at the
    number of seeds; [exchange_every] defaults to 32 rounds, and any
    non-positive value disables exchange entirely (fully independent
    restarts). Raises [Invalid_argument] on an empty seed list.

    [check] is a sanitizer hook; a raise from it aborts the run. In
    deterministic mode it runs on the globally best state at every
    exchange boundary (after the barrier, before the state is offered
    to the chains — the winner's best-snapshot buffer, treat it as
    read-only), on the calling domain. In async mode it runs on every
    state {e before} it is published, on the publishing chain's
    domain; other chains notice a raise at their next slice boundary
    and the first exception is re-raised on the caller. Published
    states are fresh {!Sa.best_copy} snapshots, never mutated
    afterwards, so cross-domain adoption blits read from immutable
    buffers. Either way [check] runs once more on the final winner, on
    the calling domain. The default does nothing.

    [engine] tags the per-chain QoR records (see below) with the
    engine name — placers pass ["sp"], ["bstar"], ["tcg"].

    [telemetry] (default {!Telemetry.Sink.null}) receives, in
    deterministic mode, ["parallel.slice"] / ["parallel.exchange"]
    spans and a ["parallel.exchanges"] counter from the coordinating
    domain; each chain records into a private child sink (tid = seed
    index + 1): per-round ["sa.round"] and per-slice ["chain.slice"]
    spans, a ["chain.slice_us"] counter accumulating slice wall time
    as slices close, and one final {!Telemetry.Qor.chain} record
    carrying the chain's best cost, rounds, evaluations, accumulated
    wall time, move-class tallies and the engine/mode tags. In async
    mode each child sink additionally counts ["chain.publishes"] /
    ["chain.pulls"]. Children are merged into [telemetry] after the
    final drain. Telemetry draws nothing from any rng, so
    deterministic results remain a pure function of
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
  ?mode:[ `Deterministic | `Async ] ->
  ?check:('a -> unit) ->
  ?telemetry:Telemetry.Sink.t ->
  engine:string ->
  rng:Prelude.Rng.t ->
  Sa.params ->
  (Telemetry.Sink.t -> Prelude.Rng.t -> 'a Sa.problem) ->
  'a multi_start
(** The multi-start policy of every placer. With neither [workers]
    nor [chains], one {!Sa.run} chain on [rng] itself (one worker, one
    chain; [mode], [check] and [engine] are unused). Otherwise [chains]
    chains (default [workers], default {!default_workers}; at least 1)
    whose seeds are drawn from [rng], handed to {!run} with the other
    arguments — so a fixed caller seed gives identical results for any
    [workers] value in deterministic mode. [workers] in the result is
    the width that ran: [min chains (workers or default_workers ())]. *)
