(** Prometheus text exposition of a sink snapshot.

    [render] turns a {!Sink.t} into the plain-text format every metrics
    scraper understands: counters as [counter] families, histograms as
    [summary] families (quantile-labelled samples plus [_sum]/[_count]),
    and the span ring's drop count as a gauge. Names are prefixed
    [analog_] and sanitized to the legal charset, so
    [sa.moves.seqpair.accept] becomes [analog_sa_moves_seqpair_accept].

    [check] is a hand-rolled validator for the same format — the test
    suite asserts that what we emit actually conforms, the same
    arrangement as {!Json.parse} re-reading the Chrome trace. *)

val metric_name : string -> string
(** [analog_] + the sink-registry name with every character outside
    [[a-zA-Z0-9_:]] replaced by ['_']. *)

val help : string -> string
(** HELP prose for a raw (dotted) sink-registry name: real text for
    the known [service.*] / [route.*] / [sa.moves.*] families, a
    generic fallback naming the metric otherwise. *)

val render : Sink.t -> string
(** Text exposition: one [# HELP] + [# TYPE] comment pair per family
    followed by its samples, families in name-sorted order, trailing
    newline. Empty sinks render to an empty string. *)

val check : string -> (unit, string) result
(** Validate a text exposition document: every sample line must parse
    (metric name, optional {name="value"} labels, a finite float value)
    and belong to a family declared by a preceding [# TYPE] line
    ([_sum]/[_count]/quantile samples attach to their summary family);
    [# HELP] lines must name a legal metric and carry text.
    Errors carry the offending line number. *)
