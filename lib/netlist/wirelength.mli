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
    term and the only pin walk of an annealing cost query; and
    [Placer.Eval], which builds one per annealing chain and scores
    every move through {!hpwl_flat}. [Route.Estimate], the RUDY
    congestion score, keeps one too, for the net weights and to skip
    nets of fewer than two pins. *)

val flatten : Net.t list -> flat

type boxes = {
  min_x2 : int array;
  max_x2 : int array;
  min_y2 : int array;
  max_y2 : int array;
}
(** Per-net bounding boxes over doubled pin centres, indexed like the
    nets of a {!flat}. {!hpwl_flat} writes the box of every net of two
    or more pins and leaves the other slots as they were. *)

val boxes : flat -> boxes
(** Zeroed box arrays sized to the nets of a {!flat}. *)

val hpwl_flat :
  flat -> cx2:int array -> cy2:int array -> boxes:boxes -> float
(** HPWL over flattened nets; [cx2]/[cy2] hold each module's doubled
    center, indexed by cell. Every pin must be placed. Agrees exactly
    with {!hpwl} in that case (tested). Writes each net's box into
    [boxes] on the way, so a congestion estimate can read the boxes
    without a second pin walk. Allocation-free. *)
