(** Minimal HTML+SVG emission and a hand-rolled well-formedness
    checker.

    The flight-recorder dashboard ({!Dashboard}) must be a single
    self-contained file with no external assets and no HTML-library
    dependency, so this module owns the two halves of that contract:
    string builders that escape everything they interpolate, and
    {!check}, an independent scanner that re-parses a finished document
    and rejects unbalanced tags, unquoted attributes and stray
    [&]/[<] — the same self-audit arrangement as {!Json.parse} for
    traces and {!Prom.check} for metric text. *)

val escape : string -> string
(** Escape the five HTML metacharacters (ampersand, angle brackets,
    double and single quote) for text nodes and attribute values. *)

val el : string -> (string * string) list -> string list -> string
(** [el name attrs children] — an element with escaped attribute
    values and already-rendered children concatenated in order. Child
    strings are trusted markup; escape text with {!text} first. *)

val leaf : string -> (string * string) list -> string
(** Self-closing element, [<name attr="v"/>]. *)

val text : string -> string
(** An escaped text node. *)

val page : title:string -> css:string -> string list -> string
(** A complete [<!DOCTYPE html>] document: [title] (escaped) in
    [<head>], [css] inlined in a [<style>] block (must not contain
    ["</"]), body children in order. *)

val check : string -> (unit, string) result
(** Well-formedness scan of a finished document: tags balance (void
    elements excepted), attribute values are quoted, text uses
    entities for [&] and contains no bare [<], comments terminate, and
    [<style>]/[<script>] raw text reaches its closing tag. Errors name
    the byte offset. *)
