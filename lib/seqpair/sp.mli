(** The sequence-pair floorplan representation (Murata et al., survey
    ref [22]).

    A sequence-pair [(alpha, beta)] over [n] cells encodes the
    pairwise spatial relations of a packed placement:

    - [a] precedes [b] in both sequences iff [a] is {e left of} [b];
    - [a] follows [b] in [alpha] but precedes it in [beta] iff [a] is
      {e below} [b].

    Every pair of distinct cells is in exactly one of the four
    relations, so packing to the relation's constraint graphs yields an
    overlap-free placement. *)

type t = { alpha : Perm.t; beta : Perm.t }

type relation = Left_of | Right_of | Below | Above

val make : alpha:Perm.t -> beta:Perm.t -> t
(** Raises [Invalid_argument] if the two permutations have different
    sizes. *)

val size : t -> int
val identity : int -> t
val random : Prelude.Rng.t -> int -> t

val relation : t -> int -> int -> relation
(** [relation sp a b] is the relation of [a] to [b]; raises
    [Invalid_argument] when [a = b]. *)

val left_of : t -> int -> int -> bool
val below : t -> int -> int -> bool

val of_strings : alpha:string -> beta:string -> t * (char * int) list
(** Convenience for the paper's letter examples: cells are the distinct
    characters of [alpha] in alphabetical order, mapped to indices
    0,1,..; returns the mapping. Raises [Invalid_argument] if [beta] is
    not a permutation of [alpha]'s characters. *)

val copy : t -> t
(** Fresh copies of both sequences: a code the caller may mutate in
    place ({!Perm.exchange}, {!Moves.propose}). *)

val blit : src:t -> dst:t -> unit
(** Overwrite both sequences of [dst] with those of [src]. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
