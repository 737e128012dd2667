(** Verification of layout constraints on finished placements.

    The placers in this repository construct placements that satisfy
    their constraints {e by construction}; these independent checkers
    are what the test-suite and benchmark harness use to prove it. All
    take the placed cells as a list of {!Geometry.Transform.placed}
    and look cells up by their [cell] index. *)

type violation = { subject : string; detail : string }

val overlap_free : Geometry.Transform.placed list -> (unit, violation) result
(** No two placed cells overlap. *)

val symmetry :
  group:Symmetry_group.t ->
  Geometry.Transform.placed list ->
  (int, violation) result
(** All pairs mirror about one common vertical axis with equal [y] and
    matched dimensions; selfs are centered on it. Returns the doubled
    axis coordinate on success. *)

val mirror_symmetric :
  members:int list -> Geometry.Transform.placed list -> (int, violation) result
(** Pairing-free mirror check: the member set is mirror-symmetric about
    {e some} vertical axis — every member has a same-size, same-[y]
    member (possibly itself) mirrored about the set's bounding-box
    axis, which any mirror symmetry must fix. Returns the doubled axis
    coordinate. Weaker than {!symmetry} (it does not enforce a declared
    pairing); used by the engine-independent verifier when only the
    member set survives, e.g. in a QoR ledger record. *)

val proximity :
  members:int list -> Geometry.Transform.placed list -> (unit, violation) result
(** The union of the members' rectangles is edge-connected. *)

val common_centroid :
  members:int list -> Geometry.Transform.placed list -> (unit, violation) result
(** The members are point-symmetric about their common centroid: for
    every member there is a member (possibly itself) of the same size
    mirrored through the centroid. *)

val common_centroid_units :
  (int * Geometry.Rect.t) list -> (unit, violation) result
(** Unit-decomposed variant (see {!Bstar.Centroid.interdigitated}):
    units are (owner, rect) pairs; {e each owner's} unit multiset must
    be point-symmetric about the centroid of all units, and no two
    units may overlap. This is the matching property interdigitation
    exists to provide — every device sees the same linear process
    gradient. *)

val pp_violation : Format.formatter -> violation -> unit
