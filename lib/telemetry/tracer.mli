(** Span tracing over a ring buffer whose capacity is a bound, not an
    allocation.

    Recording is four array stores, allocation-free amortized: the ring
    starts small and doubles when full, up to its bound. Only when the
    ring is full at its bound is the {e oldest} span overwritten — the
    newest spans always survive — and every eviction is counted, so
    exporters can report how much history was shed (tested). *)

type span = {
  name : string;
  ts : float;  (** start time, sink clock units (seconds) *)
  dur : float;  (** duration, same units *)
  tid : int;  (** logical thread: 0 = main, 1.. = chains *)
}

type t

val create : int -> t
(** Ring bounded at the given number of spans (clamped to at least 1).
    It holds a few slots until spans arrive. *)

val record : t -> name:string -> ts:float -> dur:float -> tid:int -> unit

val spans : t -> span list
(** Retained spans, oldest first. *)

val length : t -> int

val capacity : t -> int
(** The bound given to {!create}. *)

val dropped : t -> int
(** Spans evicted so far. *)

val add_dropped : t -> int -> unit
(** Fold another ring's eviction count in (used when merging child
    sinks). *)
