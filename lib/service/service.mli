(** The placement service engine: placement-as-a-service over a
    memoizing multi-placement cache.

    A request is (netlist, outline, constraint set, effort); a
    response is (placement, QoR summary). State held across requests:
    the {!Cache} of {!Multi} structures and one shared {!Anneal.Pool}
    (domains spawned once — no per-request spawns). Each miss builds
    its cache entry on a fresh {!Placer.Eval} arena.

    Misses anneal through {!Placer.Portfolio.race} on the shared pool,
    sequentially on the caller; hits instantiate concurrently as pool
    jobs, each re-checked by {!Analysis.Verify} before serving — a
    failed re-check evicts the entry and the request re-anneals
    ([served = "evict-miss"]). Every response is materialized from the
    cache entry by the same deterministic selection, so identical
    requests return byte-identical [result] objects on either path —
    and, since the race is itself deterministic, at any pool width.

    Telemetry (merged into the root sink per wave, never touched by
    workers directly): [service.requests] / [.hits] / [.misses] /
    [.instantiations] / [.verify_evictions] / [.unfit] counters and
    [service.hit_us] / [.miss_us] / [.instantiate_us] latency
    histograms — all visible through {!Telemetry.Prom.render} (see
    {!metrics}). *)

module Fingerprint = Fingerprint
module Multi = Multi
module Cache = Cache
module Request = Request

type t

val create :
  ?workers:int ->
  ?cache_capacity:int ->
  ?validate:bool ->
  ?telemetry:Telemetry.Sink.t ->
  unit ->
  t
(** [workers] sizes the shared pool (default
    {!Anneal.Parallel.default_workers}); [cache_capacity] the LRU
    cache (default 256); [validate] the move-level sanitizers on the
    miss path (default the [ANALOG_VALIDATE=1] switch); [telemetry]
    the root sink (default a fresh live sink, so hit-rate counters
    are always available — pass {!Telemetry.Sink.null} to opt out). *)

val shutdown : t -> unit
(** Drain and join the pool. Idempotent; the service rejects batches
    afterwards. *)

val with_service :
  ?workers:int ->
  ?cache_capacity:int ->
  ?validate:bool ->
  ?telemetry:Telemetry.Sink.t ->
  (t -> 'a) ->
  'a

val cache : t -> Cache.t
val pool : t -> Anneal.Pool.t

val run_batch :
  ?in_flight:int -> t -> Request.t list -> Request.response list
(** Process a batch, responses in request order. [in_flight] bounds
    how many requests are processed concurrently (default: the whole
    batch as one wave); within a wave, identical fingerprints anneal
    at most once and every hit instantiates in parallel on the pool. *)

val submit : t -> Request.t -> Request.response
(** One-request batch. *)

val metrics : t -> string
(** Prometheus text exposition of the root sink
    ({!Telemetry.Prom.render}) — hit/miss/instantiation counters and
    latency summaries. *)

val counter_value : t -> string -> int
(** A root-sink counter by registry name (0 when absent) — e.g.
    [counter_value t "service.hits"]. *)

val weights_of_outline : (int * int) option -> Placer.Cost.weights
(** The cost scale a request is annealed and instantiated under: the
    default weights, with the outline class's aspect target mixed in
    for fixed-outline requests. Exposed so benches compare cold runs
    under identical weights. *)

val params_of_effort : n:int -> Fingerprint.effort -> Anneal.Sa.params
(** The annealing schedule each effort tier maps to at circuit size
    [n]. *)
