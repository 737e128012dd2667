(** Negotiated-congestion routing state (PathFinder).

    Shared substrate for the rip-up-and-reroute loop in {!Router}:
    per-cell capacity / present-usage / history arrays and a
    deterministic A* searcher whose entering cost

    {[ (base + history) * (1 + pres_fac * overuse) ]}

    lets nets share cells cheaply in early iterations and prices the
    sharing out as [pres_fac] grows, while history accumulated on
    chronically over-used cells steers later routes around them even
    when they are momentarily free. This converges where one-shot
    sequential routing deadlocks on net ordering.

    The search is goal-directed: its heap key is the cost so far plus
    [base_cost * Manhattan(cell, target)]. Every entered cell costs at
    least {!base_cost} (history is [>= 0], congestion [>= 1]), plain
    or mirrored — a twin stepping onto its own axis column may cost no
    more than that — and a step moves the Manhattan distance by one, so
    the bound is admissible and consistent. Each search therefore finds
    a path of Dijkstra's optimal cost, popping only cells whose key is
    at most the target's; among equal-cost paths it may pick another.

    Determinism: the heap orders by (key, cell index), expansion
    visits neighbours in a fixed order, and nothing reads a clock or an
    RNG — identical inputs give byte-identical routes. *)

type t
(** Cells are addressed by their row-major index [r * cols + c]
    (see {!Grid.index}); every function below takes and returns
    indices, which must be in bounds. *)

val base_cost : float
(** The [base] of the entering cost: 1.0, the price of a free cell
    with no history. Every entered cell costs at least this much. *)

val create : cols:int -> rows:int -> capacity:int -> t
(** Every cell holds [capacity] nets (clamped at 0; the router passes
    2, a gcell with one horizontal and one vertical track, which makes
    orthogonal crossings legal); no usage, no history. Raises
    [Invalid_argument] on non-positive sizes. *)

val set_capacity : t -> int -> int -> unit
(** [set_capacity t cell cap], clamped at 0. Capacity-0 cells are
    impassable to the search except as a net's own terminals. *)

val claim : t -> int list -> unit
(** Add one present use to each cell (a routed net's tree). *)

val release : t -> int list -> unit
(** Undo {!claim} before rerouting a net. *)

val overflow : t -> int
(** Total overuse: sum over cells of [max 0 (present - capacity)].
    Zero means the current routes are simultaneously legal. *)

val overused_cells : t -> int
(** Number of cells with [present > capacity]. *)

val cell_overuse : t -> int -> int

val add_history : t -> hfac:float -> unit
(** End-of-iteration update: every over-used cell's history grows by
    [hfac * overuse]. *)

val search_pops : t -> int
(** Cumulative A* heap pops across every search this state has
    run — the router diffs it per iteration for the
    [route.search.pops] counter. Plain integer bookkeeping: always on,
    deterministic, no telemetry dependency. *)

module Snapshot : sig
  type t = {
    cols : int;
    rows : int;
    capacity : int array;  (** row-major, index [r * cols + c] *)
    present : int array;
    history : float array;
  }
end

val snapshot : t -> Snapshot.t
(** Deep copy of the per-gcell capacity / occupancy / history state —
    the congestion-heatmap export. Mutating the snapshot never touches
    the live router state. *)

val reflect : t -> axis:int -> int -> int
(** The cell's image under column reflection [c -> axis - c], or -1
    when the image falls off the grid. *)

val route_tree :
  t ->
  ?mirror:int ->
  pres_fac:float ->
  terminals:int list ->
  unit ->
  int list option
(** Grow a Steiner-ish tree connecting [terminals]: route each
    terminal to the tree-so-far by one A* wave. Returns the
    tree's cells (deduplicated, deterministic order), [Some []] for no
    terminals, a singleton for one terminal, or [None] when some
    terminal is unreachable.

    With [~mirror:axis] every step is priced {e and} gated on both
    the cell and its {!reflect}ion: the returned reference tree is
    legal and equally costed for the twin's image, which is what makes
    mirrored pairs identical in wirelength by construction. Cells on
    the axis column (self-mirror) count their own double use. A tree
    whose first terminal reflects off the grid is [None]. The caller
    claims the tree (and its image) via {!claim}. *)
