(** Runtime invariant sanitizer for the topological representations.

    The annealing placers trust their move sets to preserve the
    representation invariants (S-F feasibility, B*-tree shape, exact
    symmetric packing). These checkers re-verify them independently so
    a debug mode can audit every SA move and fail fast — with a full
    diagnostic dump — at the move that broke an invariant, instead of
    returning a silently asymmetric layout.

    This module checks codes, not placements: the placers' sanitizers
    hand the packed placement of every audited state to
    {!Verify.placement} (with the run's symmetry groups) and raise its
    findings through {!raise_if_any}.

    Checks are opt-in: the placers take [?validate] (defaulting to
    {!enabled_from_env}, the [ANALOG_VALIDATE=1] environment switch)
    and install the checkers only when it is set, so the disabled mode
    runs the exact closures it always ran — zero overhead.

    Codes emitted here (invariants, [AL1xx]):

    - [AL101] error: sequence-pair permutations inconsistent
    - [AL102] error: sequence-pair not symmetric-feasible for a group
    - [AL103] error: flat B*-tree malformed (size, labeling, links,
      reachability or leaf set)

    [AL104]-[AL108] are retired: island overlap, island mirror,
    placement multiplicity, bounds and mirror symmetry are {!Verify}'s
    [AL212], [AL214], [AL211], [AL213] and [AL214]. *)

exception Violation of string * Diagnostic.t list
(** [(context, diagnostics)]; a printer is registered, so an uncaught
    violation renders the whole dump. *)

val enabled_from_env : unit -> bool
(** True when [ANALOG_VALIDATE] is set to anything but [""], ["0"] or
    ["false"]. Read on every call (cheap), so tests can toggle it. *)

val raise_if_any : context:string -> Diagnostic.t list -> unit
(** Raise {!Violation} when the list is non-empty. *)

val check_sp : n:int -> Seqpair.Sp.t -> Diagnostic.t list
(** Both permutations have size [n] and are position/cell consistent. *)

val check_sf :
  Seqpair.Sp.t -> Constraints.Symmetry_group.t list -> Diagnostic.t list
(** Symmetric-feasibility (survey property (1)) of every group. *)

val check_flat : Bstar.Flat.t -> Diagnostic.t list
(** Well-formedness of a flat-array B*-tree (AL103): the cell/node
    labelings are mutually inverse, child and parent links agree, every
    node is reachable from the (single) root — the traversal is
    budgeted, so a (deliberately corrupted) cyclic structure is
    reported rather than looped on — and the O(1)-draw leaf set lists
    exactly the current leaves. *)
