(** Slicing-floorplan baseline (normalized Polish expressions,
    Wong–Liu moves, Stockmeyer shape-function evaluation).

    The survey recalls that ILAC used the slicing model and that
    slicing "limits the set of reachable layout topologies, degrading
    the layout density especially when cells are very different in
    size". This placer exists to reproduce that claim (ablation
    experiment E10): same annealing engine, same cost, but the
    representation can only express slicing structures. *)

type token = Operand of int | H | V
(** [H]: horizontal cut (children stacked); [V]: vertical cut (children
    side by side). *)

val is_normalized : token list -> bool
(** Balloting property plus no two equal adjacent operators — i.e. a
    well-formed normalized Polish expression. *)

val initial : int -> token list
(** The alternating-cut starting expression over [n] modules. *)

val neighbor : Prelude.Rng.t -> token list -> token list
(** One Wong–Liu move (operand swap, chain complement, or
    operand/operator swap); normalization-preserving. *)

type outcome = Placement.outcome = {
  placement : Placement.t;
  cost : float;
  sa_rounds : int;
  evaluated : int;
  workers : int;
  chains : int;
}

val place :
  ?weights:Cost.weights ->
  ?params:Anneal.Sa.params ->
  rng:Prelude.Rng.t ->
  Netlist.Circuit.t ->
  outcome
