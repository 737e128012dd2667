(** Hierarchical B*-trees (HB*-trees, survey §III-B, ref [17]).

    One B*-tree per hierarchical sub-circuit plus one for the top
    design. Packed sub-circuits enter their parent's tree as {e macros
    carrying their top rectilinear outline} (the survey's "contour
    nodes"), so parent-level cells can settle into the valleys of a
    sub-circuit's skyline. Sub-circuits are packed according to their
    constraint:

    - symmetry nodes by ASF-B*-trees ({!Asf}) — nested sub-circuits
      become self-symmetric blocks centered on the axis (hierarchical
      symmetry, Fig. 4);
    - common-centroid nodes by the fixed interdigitated pattern
      ({!Centroid}); groups with unmatched cell sizes degrade to a free
      B*-tree (documented substitution — true unit-decomposed
      common-centroid needs device splitting);
    - proximity and free nodes by plain B*-trees; proximity
      connectivity is enforced by the annealer's cost
      ([Placer.Sa_hbstar] penalizes every disconnected proximity
      group).

    This module is the representation only — state, move and packer;
    it knows no cost. [Placer.Sa_hbstar] anneals it: each move
    perturbs {e one} of the trees and repacks the whole design — the
    "simultaneous optimization of all hierarchy levels" the survey
    describes, as opposed to frozen bottom-up integration. *)

type state
(** All per-node trees for one design. *)

val initial :
  ?halo:int -> Prelude.Rng.t -> Netlist.Circuit.t -> Netlist.Hierarchy.t -> state
(** [halo] reserves an empty margin (grid units) around every proximity
    macro so a guard ring fits afterwards (see Placer's finishing pass);
    default 0. Raises [Invalid_argument] if the hierarchy does not cover
    the circuit's modules exactly once. *)

val perturb : Prelude.Rng.t -> state -> state
(** Perturb one randomly chosen node's tree. *)

val pack : state -> Geometry.Transform.placed list
(** Deterministic bottom-up packing of the current trees; absolute
    coordinates for every module, overlap-free by construction. *)
