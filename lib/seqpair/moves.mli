(** Perturbation moves on sequence-pairs.

    For unconstrained placement the classic move set applies: swap two
    cells in alpha, in beta, or in both. With symmetry groups the moves
    come in "companion" form (survey §II): whenever two group cells are
    interchanged in one sequence, their symmetric counterparts are
    interchanged in the other, so property (1) is preserved and the
    whole annealing walk stays inside the symmetric-feasible
    subspace. Every generated neighbour is additionally checked and
    repaired, so the invariant holds unconditionally.

    The moves work in place on a code the caller owns (see
    {!Sp.copy}): O(1) exchanges, the S-F check and repair of a
    {!Symmetry.plan}, and an undo log that reverts the last move.
    Nothing on that path allocates beyond the random draws. The
    persistent forms are thin wrappers that copy the code first and
    draw the same numbers. *)

type t = Sp.t

type undo
(** What the last in-place move did, enough to revert it: the cells it
    exchanged and, when it repaired the code, beta before the repair.
    One per working code. *)

val undo_log : int -> undo
(** An undo log for codes of [n] cells. *)

val propose : Prelude.Rng.t -> t -> undo -> unit
(** One of the three unconstrained moves, uniformly, in place. *)

val propose_sf : Prelude.Rng.t -> Symmetry.plan -> t -> undo -> unit
(** A random move with symmetric companion application, in place; the
    code stays symmetric-feasible for the plan's groups (it is
    repaired by {!Symmetry.repair}, and ultimately left as it was, if
    a proposed move broke property (1)). *)

val undo : t -> undo -> unit
(** Revert the last {!propose} or {!propose_sf} recorded in the log;
    a second call is a no-op. *)

val random_neighbor : Prelude.Rng.t -> t -> t
(** {!propose} on a copy. *)

val random_neighbor_sf :
  Prelude.Rng.t -> t -> Constraints.Symmetry_group.t list -> t
(** {!propose_sf} on a copy, under a fresh plan. *)
