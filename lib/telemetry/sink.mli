(** The telemetry sink: the single handle instrumented code threads
    through the placement pipeline.

    A sink owns a name-keyed registry of {!Counter.t}s and {!Hist.t}s,
    a bounded span ring ({!Tracer}), and a convergence series
    ({!Convergence}). The {!null} sink is dead: every operation on it
    (and on the dead handles it returns) is a single predictable branch,
    so instrumentation left in hot paths costs nothing measurable when
    telemetry is off — see the [telemetry_overhead] row of the E17
    benchmark.

    Sinks are single-domain mutable state. Parallel code derives one
    {!child} per worker before spawning and {!absorb}s the children
    after the join; counters and histograms merge by name. *)

type t

val null : t
(** The shared dead sink. [live null = false]; all recording operations
    are no-ops; handle lookups return dead handles. *)

val create : ?clock:(unit -> float) -> ?trace_capacity:int -> unit -> t
(** A live sink. [clock] defaults to [Unix.gettimeofday] (seconds);
    [trace_capacity] bounds the span ring (default [1 lsl 18] spans).
    The ring starts small and grows as spans arrive; only at the bound
    does it overwrite oldest-first, see {!Tracer}. *)

val live : t -> bool
val tid : t -> int

val epoch : t -> float
(** Clock reading at root-sink creation; children share the parent's
    epoch so all span timestamps live on one axis. *)

val child : t -> tid:int -> t
(** A fresh sink tagged [tid] sharing the parent's clock and epoch but
    owning private registries and ring — safe to hand to another
    domain. The child's ring has the parent's bound and starts small.
    [child null ~tid] is {!null}. *)

val counter : t -> string -> Counter.t
(** Find-or-create by name. Resolve once at setup; the returned handle
    is branch-cheap to bump on the hot path. On a dead sink returns
    {!Counter.null}. *)

val histogram : t -> string -> Hist.t

val now : t -> float
(** Current clock, or [0.0] when dead. *)

val span_begin : t -> float
(** Alias of {!now}, named for the idiom
    [let t0 = span_begin s in ... ; span_end s "stage" t0]. *)

val span_end : t -> string -> float -> unit
(** [span_end t name start] records a completed span
    [start .. now t]. *)

val lap : t -> string -> float -> float
(** [lap t name start] records the span and returns the stop time —
    for chains of back-to-back stages. Returns [0.0] when dead. *)

val time : t -> string -> (unit -> 'a) -> 'a
(** [time t name f] runs [f] inside a span. When dead, exactly
    [f ()]. *)

val register_moves : t -> string array -> Moves.t
(** Build a per-move-class tally whose counters are registered in this
    sink as [sa.moves.<class>.accept] / [.reject], and remember it so
    the engine can retrieve it with {!moves}. *)

val moves : t -> Moves.t
(** The tally last registered via {!register_moves} ({!Moves.null}
    if none). *)

val sample :
  t -> round:int -> temperature:float -> acceptance:float -> best_cost:float -> unit
(** Append one SA convergence sample (tagged with this sink's tid and
    clock). *)

val counters : t -> (string * int) list
(** Name-sorted snapshot. *)

val histograms : t -> (string * Hist.t) list
(** Name-sorted snapshot. *)

val spans : t -> Tracer.span list
(** Oldest-first surviving spans. *)

val dropped_spans : t -> int
val convergence : t -> Convergence.sample list

val record_qor : t -> Qor.t -> unit
(** Append one QoR record (no-op on a dead sink). Engines record one
    {!Qor.chain} per SA chain; the driver records the final {!Qor.run}
    before writing a {!Ledger} entry. *)

val qors : t -> Qor.t list
(** QoR records in recording order (absorbed children's records follow
    the parent's own, in absorb order). *)

val absorb : t -> t -> unit
(** [absorb parent child] merges the child's counters (by name, summed)
    and histograms (by name, bucket-wise), re-records its spans and
    dropped-count into the parent's ring, and appends its convergence
    samples and QoR records. Call only after the child's domain has
    joined. No-op if either side is dead. *)
