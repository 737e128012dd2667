(** Half-perimeter wirelength (HPWL).

    The standard placement wirelength estimate: per net, the
    semi-perimeter of the bounding box of its pins' cell centers,
    weighted by the net weight. Used by every annealing cost function
    in this repository. *)

val hpwl :
  Net.t list -> center2:(int -> (int * int) option) -> float
(** [center2 m] is the doubled center of module [m]'s placed rectangle
    ([None] if unplaced; such pins are skipped). The result is in grid
    units (the doubling is compensated). *)

type flat = {
  off : int array;
      (** length [#nets + 1]: net [i] owns pins [off.(i)] ..
          [off.(i+1) - 1] *)
  pins : int array;  (** module indices, each net's in list order *)
  weight : float array;  (** per-net weight *)
}
(** Nets flattened to CSR-style offset/pin/weight arrays, one slot
    per net of the list in order (single-pin and pinless nets
    included), so hot paths walk every net allocation-free. This is
    the one net -> pin layout. Its readers: {!hpwl_flat}, the HPWL
    term; [Placer.Eval], which builds one per annealing chain and
    scores every move through {!hpwl_flat}; and [Route.Estimate],
    the RUDY congestion score, which skips nets of fewer than two
    pins. *)

val flatten : Net.t list -> flat

val hpwl_flat : flat -> cx2:int array -> cy2:int array -> float
(** HPWL over flattened nets; [cx2]/[cy2] hold each module's doubled
    center, indexed by cell. Every pin must be placed. Agrees exactly
    with {!hpwl} in that case (tested). *)
