(** Placements of a circuit: the common result type of every placer. *)

type t = private {
  circuit : Netlist.Circuit.t;
  placed : Geometry.Transform.placed list;
  by_cell : Geometry.Transform.placed option array;
      (** cell id -> placement, for O(1) [rect_of]; maintained by
          [make], hence the private row *)
}

val make : Netlist.Circuit.t -> Geometry.Transform.placed list -> t

type outcome = {
  placement : t;
  cost : float;  (** the engine's own best cost *)
  sa_rounds : int;  (** rounds of the winning chain; 0 if nothing annealed *)
  evaluated : int;  (** cost evaluations over all chains *)
  workers : int;  (** domains the search ran on *)
  chains : int;  (** annealing chains run *)
}
(** What every placer returns: {!Sa_seqpair}, {!Sa_bstar}, {!Sa_tcg}
    and {!Slicing} re-export it with its fields, and {!Engine.run}
    returns it for all seven engines. *)

val outcome_of : t -> _ Anneal.Parallel.multi_start -> outcome
(** A search's outcome around its materialized best state. *)

val bbox : t -> Geometry.Rect.t
(** Bounding box anchored at the origin (covers (0,0) .. max extents). *)

val area : t -> int
val width : t -> int
val height : t -> int

val hpwl : t -> float
(** Half-perimeter wirelength over the circuit's nets. *)

val dead_space : t -> int
(** Bounding-box area not covered by modules. *)

val rect_of : t -> int -> Geometry.Rect.t option
(** Placed rectangle of a module. *)

val validate : t -> (unit, string) result
(** Every module placed exactly once, inside the first quadrant, with
    no overlaps. *)

val pp : Format.formatter -> t -> unit
