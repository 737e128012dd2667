(** Placement cost functions.

    The weighted sum the survey's stochastic placers minimize: chip
    area, total (weighted half-perimeter) net length, and an optional
    aspect-ratio term pulling toward a target width/height ratio. *)

type weights = {
  area : float;
  wirelength : float;
  aspect : float;  (** weight of the aspect-ratio deviation term *)
  target_aspect : float;  (** desired w/h, usually 1.0 *)
  routability : float;
      (** weight of the routing-congestion estimate (see
          [Route.Estimate] and {!Eval.create}'s [estimator]); 0 in
          {!default}, which keeps every cost bit-identical to the
          pre-routability three-term sum *)
}

val area_only : weights
val default : weights
(** area 1.0, wirelength 0.2, aspect 0, routability 0. *)

val evaluate : weights -> Placement.t -> float
(** The list-path reference: the cost of a materialized placement.
    No placer calls it — every cost in [lib/] goes through the {!Eval}
    arena — it stays as what the arena is tested against and as the
    baseline of E17's [list_moves_per_s] rows. *)

val compose : weights -> width:int -> height:int -> hpwl:float -> float
(** The weighted sum from already-computed bounding-box extents and
    wirelength. [evaluate] and the allocation-free {!Eval} arena both
    delegate here, so list-based and array-based evaluation agree to
    the last bit. *)

val compose_routed :
  weights -> route:float -> width:int -> height:int -> hpwl:float -> float
(** {!compose} plus the routability addend [routability *. route],
    where [route] is a raw congestion estimate (see [Route.Estimate]
    and {!Eval.estimator}). Delegates to {!compose} for the first
    three terms, so with a zero [routability] weight or a zero
    estimate the sum is bit-identical to {!compose}. *)

val terms : weights -> width:int -> height:int -> hpwl:float -> float * float * float
(** The three addends of {!compose} — (area term, wirelength term,
    aspect term) — separately, for QoR cost breakdowns. [compose] is
    exactly their left-to-right sum. *)
