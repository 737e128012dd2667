(** Independent placement verifier.

    {!Invariant} checks the {e representations} (codes) while the
    annealers run; this module checks {e placements}, and is the only
    placement audit: the packing of every state a sanitizer audits,
    each portfolio exchange, a finished engine result, or one
    re-hydrated from a QoR ledger record. It uses only
    {!Constraints.Placement_check} arithmetic and shares no code with
    any packer or evaluator, so an
    engine bug that survives its own invariants (a wrong contour
    update, a stale mirror axis) is still caught here, the way a DRC
    deck catches a router's mistakes.

    Codes emitted here (verification findings, [AL21x]):

    - [AL210] error: a placed cell indexes no module, or its rectangle
      matches the module's dimensions in no orientation (a
      self-symmetric cell may carry the symmetric packer's one-unit
      parity pad on its mirrored extent when [groups] are supplied)
    - [AL211] error: a module is placed zero or several times
    - [AL212] error: two placed rectangles overlap (every offending
      pair is reported, DRC style)
    - [AL213] error: a cell leaves the first quadrant or the outline
    - [AL214] error: a symmetry obligation is not exactly mirrored
    - [AL215] error: a common-centroid obligation is not
      point-symmetric
    - [AL216] error: a proximity obligation is not edge-connected
    - [AL217] warning: a recorded constraint of unknown kind could not
      be verified
    - [AL218] info: a violation the record itself disclosed (positive
      recorded count) re-confirmed — not a new finding
    - [AL219] warning: the record claims a violation the placement does
      not show; the QoR extractor and this verifier disagree *)

val placement :
  ?groups:Constraints.Symmetry_group.t list ->
  ?hierarchy:Netlist.Hierarchy.t ->
  ?constraint_sets:(string * string * int list) list ->
  ?recorded_sets:(string * string * int list * int) list ->
  ?outline:int * int ->
  Netlist.Circuit.t ->
  Geometry.Transform.placed list ->
  Diagnostic.t list
(** Verify a placement of [circuit]. [groups] obligations use the
    exact declared pairing ({!Constraints.Placement_check.symmetry});
    [hierarchy] contributes its proximity and common-centroid nodes
    (symmetry nodes are expected in [groups], as every placer consumes
    them); [constraint_sets] are [(name, kind, members)] triples —
    obligations the caller asserts, so failures are errors; their
    symmetry obligations use the pairing-free mirror check.
    [recorded_sets] adds a recorded violation count to each triple, as
    {!Telemetry.Ledger.constraint_sets} re-hydrates them: count 0 is a
    claim of satisfaction and re-verifies as an error, a positive count
    is a disclosed violation and re-verifies as AL218 info (or AL219
    warning when it no longer reproduces). When the multiplicity check
    (AL211) fails, obligation checks are suppressed: they would only
    echo the missing cells as lookup noise. *)

val circuit_of_entry : Telemetry.Ledger.entry -> Netlist.Circuit.t
(** Rebuild an opaque-block circuit from an entry's placed rectangles,
    one block per rect in cell order — the same re-hydration
    [analog_place report] draws from. *)

val entry :
  ?outline:int * int ->
  Telemetry.Ledger.entry ->
  (Diagnostic.t list, string) result
(** Re-hydrate a ledger entry (rectangles via {!circuit_of_entry},
    obligations via {!Telemetry.Ledger.constraint_sets}) and verify it.
    [Error] when the entry embeds no placed rectangles. *)
