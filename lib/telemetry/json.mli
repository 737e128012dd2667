(** A minimal JSON value tree — parser, canonical emitter, accessors.

    The environment carries no JSON library, so this is the one codec:
    the QoR run ledger ({!Ledger}) reads its own records back, and the
    CLI and tests check emitted documents (Chrome traces, reports) by
    parsing them. Numbers are kept as their validated source lexemes,
    so [parse] followed by {!emit} reproduces a document emitted by
    this module byte for byte — the property the ledger's
    deterministic round-trip rests on. *)

type t =
  | Null
  | Bool of bool
  | Num of string  (** a validated RFC 8259 number lexeme, emitted verbatim *)
  | Str of string  (** decoded text; escaped canonically on emission *)
  | Arr of t list
  | Obj of (string * t) list  (** field order is preserved *)

val int : int -> t
val float : float -> t
(** Canonical float lexeme: integral magnitudes below 1e15 print as
    integers, otherwise the shortest of %.12g/%.15g/%.17g that parses
    back to the same float. NaN emits as 0 and infinities clamp to
    ±1e308 (JSON has no encoding for them). *)

val str : string -> t
val bool : bool -> t

val emit : t -> string
(** Compact single-line document: no insignificant whitespace, object
    fields in listed order, [Num] lexemes verbatim. *)

val parse : string -> (t, string) result
(** Full RFC 8259 parse of one document (no trailing garbage). String
    escapes are decoded ([\uXXXX] to UTF-8, surrogate pairs handled);
    numbers keep their lexeme. *)

val member : string -> t -> t option
(** First binding of the name in an [Obj]; [None] otherwise. *)

val to_float : t -> float option
(** [Num] lexeme as a float. *)

val to_int : t -> int option
(** [Num] lexeme as an int (must be integral). *)

val to_str : t -> string option
val to_bool : t -> bool option
val to_list : t -> t list option
