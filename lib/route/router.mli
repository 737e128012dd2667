(** Negotiated-congestion multi-net routing with mirrored symmetric
    nets and power distribution (§II: "symmetric placement (and
    routing, as well)" matches the layout-induced parasitics of the
    two differential half-circuits).

    The flow is PathFinder-shaped: the power comb ({!Power}) claims
    its cells first at capacity 0; then every signal net is ripped up
    and rerouted each iteration under a growing present-sharing factor
    ({!Negotiate}), with history accumulating on over-used cells,
    until no cell is over-used or the iteration cap is hit.

    Twin detection runs once per symmetry group that the placement
    actually satisfies: the group's first pair (or self-symmetric
    module) fixes a doubled grid axis, and scanning the routable nets
    in circuit order, each net not yet paired is matched with the
    first later unpaired net whose pins are its pins' reflection, up
    to one grid cell of rounding. A matched pair is routed together:
    one mirror-priced search produces the reference tree, its
    reflection is claimed for the twin, so both halves see
    {e identical} wirelength and topology by construction.

    Internally nets are their index in the circuit's net list and
    cells their row-major index ({!Grid.index}); names and
    (column, row) points appear only in the {!result}.

    Everything is deterministic: same placement, same nets, same
    options give byte-identical routes. *)

type route = { net : string; points : Grid.point list }

type reason =
  | Single_pin  (** fewer than two pins: nothing to connect *)
  | Unplaced of string  (** this pin's module has no placed rectangle *)
  | No_path  (** negotiation could not connect the terminals *)

type failure = { failed_net : string; reason : reason }

type iteration = {
  it_index : int;  (** 1-based negotiation pass number *)
  it_pres_fac : float;  (** present-sharing factor the pass ran at *)
  it_overflow : int;  (** total over-capacity usage after the pass *)
  it_overused : int;  (** over-capacity gcells after the pass *)
  it_ripped : int;  (** previously-routed nets ripped up this pass *)
  it_pops : int;
      (** A* heap pops spent this pass: cells the goal-directed search
          settled across every net it routed, a deterministic measure of
          search work *)
}
(** One negotiation pass, always recorded (the log is at most
    [max_iterations] entries): this is what distinguishes a healthy
    converging run from one thrashing against the iteration cap. *)

type result = {
  routed : route list;
  failed : failure list;
      (** every net that was not routed, with why — including
          single-pin and unplaced-module nets that older versions
          silently dropped *)
  wirelength : int;  (** total grid cells used by signal routes *)
  mirrored_pairs : (string * string) list;
      (** twin pairs whose final routes are mirror images *)
  overflow : int;
      (** residual over-use after the last iteration; 0 = all routes
          simultaneously legal *)
  iterations : int;  (** negotiation iterations performed *)
  negotiation : iteration list;  (** per-pass log, oldest first *)
  occupancy : Negotiate.Snapshot.t;
      (** final per-gcell capacity / occupancy / history — the
          congestion-heatmap export *)
  power : Grid.point list list;  (** claimed rail segments, VDD then GND *)
}

val default_pitch : int
(** {!Grid.default_pitch}. *)

val default_max_iterations : int

val reason_to_string : reason -> string
(** ["single-pin"], ["unplaced:<module>"], ["no-path"] — stable
    strings for reports and ledgers. *)

val route_all :
  ?pitch:int ->
  ?margin:int ->
  ?symmetric:Constraints.Symmetry_group.t list ->
  ?power:bool ->
  ?max_iterations:int ->
  ?telemetry:Telemetry.Sink.t ->
  Placer.Placement.t ->
  result
(** Route every net of the placement's circuit (pins at module
    centers). [symmetric] groups contribute their placement axes; twin
    nets across each axis are routed mirrored. [power] (default true)
    lays the trunk-and-strap comb before any signal net. Defaults:
    [pitch] {!Grid.default_pitch} (20 layout units per track),
    [margin] {!Grid.default_margin} (4 tracks), [max_iterations] 40.

    [telemetry] (default {!Telemetry.Sink.null}) records
    [route.iteration] / [route.total] spans, [route.*] counters
    (iterations, ripped nets, search pops, routed / failed nets,
    residual overflow) and per-iteration [route.iter.*] histograms.
    Instrumentation draws no randomness and the null sink costs one
    branch per site: traced routes are bit-identical to untraced
    ones. *)

val is_mirror_route :
  axis2_grid:int -> Grid.point list -> Grid.point list -> bool
(** Do two routes map onto each other under grid-column reflection
    [c -> axis2_grid - c]? (Used by tests.) *)
