(** Post-placement finishing: guard rings for proximity groups.

    §III-A: a proximity sub-circuit is placed connected so it "can
    share a connected substrate/well region or be surrounded by a
    common guard ring". This pass generates that ring for every
    proximity node of the hierarchy from the finished placement.

    Rings are legal ([clear = true]) when they avoid every cell outside
    the group — guaranteed when the placement reserved room, e.g.
    {!Sa_hbstar.place} with [~halo >= clearance + thickness]. *)

type ring = {
  node : string;  (** hierarchy node name *)
  members : int list;
  segments : Geometry.Rect.t list;
  clear : bool;  (** no overlap with any cell outside the group *)
  sealed : bool;  (** the ring fully encloses the group *)
}

val guard_rings :
  ?clearance:int ->
  ?thickness:int ->
  Placement.t ->
  Netlist.Hierarchy.t ->
  ring list
(** One ring per proximity node whose members are all placed. Defaults:
    clearance 10, thickness 20 grid units. *)
