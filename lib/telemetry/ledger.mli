(** Append-only JSONL run ledger.

    One self-describing line per placement run: schema version, netlist
    hash, seed, schedule, worker/chain counts, the run {!Qor.t}, the
    per-chain {!Qor.t}s, the placed rectangles (so a report can redraw
    the layout without re-running the placer), git revision, and an
    ISO-8601 timestamp. The file is plain JSONL — append with a text
    editor, diff with [git], read with any JSON tool.

    Round-trip contract (tested): [read] followed by re-[append]ing
    every entry reproduces the file byte for byte. {!Json}'s
    lexeme-preserving numbers carry the property; this module only has
    to keep field order fixed. *)

val schema_version : int
(** Bumped whenever the line format changes shape. *)

type rect = { cell : string; x : int; y : int; w : int; h : int }
(** One placed module, enough to redraw the floorplan. *)

type entry = {
  schema : int;
  generated_at : string;  (** ISO-8601 UTC, e.g. "2026-08-05T12:00:00Z" *)
  git_rev : string;  (** short hash, or "unknown" outside a checkout *)
  label : string;  (** benchmark / design name *)
  netlist_hash : string;
  engine : string;  (** "seqpair" | "bstar" | ... *)
  seed : int;
  schedule : string;  (** rendered {!Anneal.Schedule.t} *)
  workers : int;
  chains : int;
  qor : Qor.t;
  chain_qors : Qor.t list;
  placement : rect list;
}

val make :
  ?generated_at:string ->
  ?git_rev:string ->
  ?chain_qors:Qor.t list ->
  ?placement:rect list ->
  label:string ->
  netlist_hash:string ->
  engine:string ->
  seed:int ->
  schedule:string ->
  workers:int ->
  chains:int ->
  qor:Qor.t ->
  unit ->
  entry
(** [generated_at] defaults to {!timestamp}[ ()], [git_rev] to
    {!git_rev}[ ()]. *)

val timestamp : unit -> string
(** Current UTC time, ISO-8601 with seconds precision. *)

val git_rev : unit -> string
(** [git rev-parse --short HEAD] of the working directory, or
    ["unknown"] when git is unavailable or this is not a checkout. *)

val to_line : entry -> string
(** One JSON object, no trailing newline. *)

val of_line : string -> (entry, string) result

val append : string -> entry -> (unit, string) result
(** Append one line (plus newline) to the ledger file, creating it if
    missing. Errors are returned, never raised. *)

val read : string -> (entry list, string) result
(** All entries, oldest first. Blank lines are skipped. A last line
    with no terminating newline that does not parse — the torn tail a
    crash part-way through {!append} leaves — is skipped too; any other
    malformed line fails the whole read as [path:lineno: msg]. *)

val last : ?n:int -> string -> (entry list, string) result
(** The last [n] entries (default 1), oldest first. *)

val constraint_sets : entry -> (string * string * int list * int) list
(** The constraint obligations the run was checked against, re-hydrated
    from the run QoR's violation list (which records every checked
    group, satisfied ones at count 0): [(name, kind, members, count)]
    with [kind] one of ["symmetry"], ["proximity"],
    ["common-centroid"] and [count] the violation count the run
    recorded — 0 is a claim of satisfaction, positive a disclosed
    violation. Member indices refer to [placement] in list order — the
    rects are written in cell order. This is what [Analysis.Verify]
    re-audits a ledger record from, independently of the engine that
    wrote it. *)
