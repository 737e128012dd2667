(** Exporters over a {!Sink}. *)

val chrome_json : Sink.t -> string
(** Chrome trace_event format: a [{"traceEvents":[...]}] document with
    one ["ph":"X"] (complete) event per retained span — [ts] in
    microseconds since the sink's epoch, [dur] in microseconds, [pid] 1,
    [tid] the span's chain id — and one ["ph":"C"] (counter) event named ["convergence"]
    per SA sample carrying temperature / acceptance / best_cost args.
    Counter totals ride in ["otherData"]. Built as a {!Json.t} and
    emitted by {!Json.emit}, so {!Json.parse} reads it back. Load the file in
    [chrome://tracing] or {{:https://ui.perfetto.dev}Perfetto}. *)

val text : Sink.t -> string
(** Human-readable summary: counters (name-sorted), histograms with
    count/mean/p50/p90/p99/max, per-name span statistics (count, total,
    duration quantiles via {!Prelude.Stats.quantile}), a
    [spans dropped: N] disclosure whenever the ring evicted anything
    (even when no spans survive to summarize), and the final
    convergence sample. Sections with no data are omitted; empty sinks
    yield [""]. *)

val conv_csv : Sink.t -> string
(** Convergence series as CSV with header
    [chain,round,temperature,acceptance,best_cost], sorted by
    (chain, round). *)

val write_file : path:string -> string -> (unit, string) result
(** Write [content] to [path], truncating. I/O failures (unwritable
    directory, permission denied, disk full) come back as
    [Error strerror] instead of a raised [Sys_error], so CLI callers
    can report one clean line and pick an exit code. *)
