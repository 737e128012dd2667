(** Permutations of cell indices.

    A permutation is stored as the array [order] with [order.(pos)] =
    the cell at position [pos]; its inverse gives each cell's
    position — the alpha^-1 / beta^-1 maps of the survey's property (1). *)

type t

val of_array : int array -> t
(** Validates that the array is a permutation of [0 .. n-1]; the array
    is copied. *)

val identity : int -> t
val random : Prelude.Rng.t -> int -> t
val size : t -> int

val cell_at : t -> int -> int
(** [cell_at p pos] is the cell at position [pos]. *)

val pos_of : t -> int -> int
(** [pos_of p cell] is the position of [cell] (the inverse map), O(1). *)

val swap_positions : t -> int -> int -> t
(** Exchange the cells at two positions (pure). *)

val swap_cells : t -> int -> int -> t
(** Exchange the positions of two cells (pure). *)


(** {2 In place}

    A working permutation that one annealing chain owns and mutates
    instead of rebuilding per move. Nothing else may hold it: the pure
    operations above never mutate, so copy before sharing. *)

val copy : t -> t
(** A fresh permutation equal to the argument. *)

val blit : src:t -> dst:t -> unit
(** Overwrite [dst] with [src]; raises [Invalid_argument] on a size
    mismatch. *)

val exchange : t -> int -> int -> unit
(** Exchange the positions of two cells in place, O(1): the mutating
    {!swap_cells}. *)

val to_list : t -> int list
val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
