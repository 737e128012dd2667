(** Deterministic net ordering for the negotiation loop. Nets are
    their indices in the circuit's net list. *)

val bbox_semi : Grid.point list -> int
(** Half-perimeter of the pins' bounding box, in grid cells. *)

val initial :
  is_twin:(int -> bool) ->
  pins_of:(int -> Grid.point list) ->
  int list ->
  int list
(** First routing order: mirrored twins first (their paired claims are
    hardest to satisfy late), then ascending pin-bbox half-perimeter.
    Stable on the incoming order. *)

val by_congestion : overuse_of:(int -> int) -> int list -> int list
(** Between negotiation iterations: nets by descending overuse of
    their current routes, so the most contested nets reroute while the
    congestion picture is freshest. Stable, hence deterministic. *)
