(** Quality-of-results records.

    The survey evaluates every topological representation by what it
    produces — area, wirelength, satisfied symmetry / proximity /
    centroid constraints (§II–III, Tables 1–2) — and a placement
    service needs the same facts per request. A [Qor.t] is that record
    in machine-comparable form: the cost breakdown (the three
    {!Placer.Cost.compose} terms), geometric quality (dead-space %,
    outline fit), per-constraint-group violation counts, per-move-class
    accept rates, and the run's effort (rounds, evaluations, wall
    time).

    This module owns only the {e data} and its JSON round-trip; it
    depends on nothing above the telemetry layer. Extraction from a
    finished placement lives in [Placer.Qor] (which can see the cost
    function and the constraint checkers); per-chain records are minted
    by {!Anneal.Parallel} via {!chain} and ride through child
    {!Sink}s like every other telemetry stream. *)

type violation = {
  group : string;  (** constraint-group name *)
  ckind : string;  (** "symmetry" | "proximity" | "common-centroid" *)
  count : int;  (** 0 when the group holds *)
  members : int list;  (** module indices, for report-side highlighting *)
}

type t = {
  kind : string;  (** "run" for a whole placement, "chain" for one SA chain *)
  cost : float;  (** final best cost *)
  wall_s : float;
  sa_rounds : int;
  evaluated : int;
  area : int;  (** bounding-box area (0 for chain records) *)
  width : int;
  height : int;
  hpwl : float;
  term_area : float;  (** weighted area term of the cost *)
  term_wirelength : float;
  term_aspect : float;
  dead_space_pct : float;
  outline_fit : bool option;  (** fixed-outline satisfied; [None] = free *)
  engine : string option;
      (** which engine produced this ("sp" | "bstar" | "tcg" | …);
          [None] for records predating portfolio runs *)
  mode : string option;
      (** "deterministic" ("async" in ledgers written while a
          free-running mode existed); [None] when not a parallel run *)
  routed_wl : int option;
      (** routed wirelength in grid cells; [None] when the flow never
          routed — the field is then omitted from the JSON so ledgers
          predating the router re-emit byte-identically *)
  route_overflow : int option;
      (** residual track over-use after negotiation (0 = legal) *)
  route_failed : int option;  (** nets the router could not connect *)
  route_iterations : int option;
      (** negotiation passes the router spent converging; omitted from
          the JSON when absent like every routed field *)
  violations : violation list;
  move_rates : (string * int * int) list;
      (** (class, accepted, rejected), name-sorted *)
}

val run :
  ?outline_fit:bool ->
  ?engine:string ->
  ?mode:string ->
  ?routed_wl:int ->
  ?route_overflow:int ->
  ?route_failed:int ->
  ?route_iterations:int ->
  ?violations:violation list ->
  ?move_rates:(string * int * int) list ->
  cost:float ->
  wall_s:float ->
  sa_rounds:int ->
  evaluated:int ->
  area:int ->
  width:int ->
  height:int ->
  hpwl:float ->
  term_area:float ->
  term_wirelength:float ->
  term_aspect:float ->
  dead_space_pct:float ->
  unit ->
  t

val chain :
  ?engine:string ->
  ?mode:string ->
  ?move_rates:(string * int * int) list ->
  cost:float ->
  wall_s:float ->
  sa_rounds:int ->
  evaluated:int ->
  unit ->
  t
(** A per-chain record: search effort and best cost only; geometric
    fields are zero (the chain's state was never materialized).
    [engine]/[mode] tag which portfolio entrant and parallel mode
    produced the chain; both are omitted from the JSON when absent, so
    pre-portfolio ledger lines still round-trip byte-identically. *)

val violation_total : t -> int
(** Sum of all violation counts. *)

val accept_rate : t -> float
(** Accepted / (accepted + rejected) over all move classes; 0 when no
    tallies were recorded. *)

val move_rates_of_counters : (string * int) list -> (string * int * int) list
(** Extract per-class (accepted, rejected) pairs from a
    {!Sink.counters} snapshot by parsing the
    [sa.moves.<class>.accept] / [.reject] naming convention
    ({!Sink.register_moves}). Name-sorted. *)

val to_json : t -> Json.t
val of_json : Json.t -> (t, string) result
(** Inverse of {!to_json}: [of_json (to_json q) = Ok q], and re-emitting
    a parsed record is byte-identical (tested). *)
