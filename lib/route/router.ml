open Geometry

type route = { net : string; points : Grid.point list }

type reason =
  | Single_pin  (** fewer than two pins: nothing to connect *)
  | Unplaced of string  (** a pin's module has no placed rectangle *)
  | No_path  (** negotiation could not connect the terminals *)

type failure = { failed_net : string; reason : reason }

type iteration = {
  it_index : int;
  it_pres_fac : float;
  it_overflow : int;
  it_overused : int;
  it_ripped : int;
  it_pops : int;
}

type result = {
  routed : route list;
  failed : failure list;
  wirelength : int;
  mirrored_pairs : (string * string) list;
  overflow : int;
  iterations : int;
  negotiation : iteration list;
  occupancy : Negotiate.Snapshot.t;
  power : Grid.point list list;
}

let default_pitch = Grid.default_pitch
let default_max_iterations = 40
let first_pres_fac = 0.5
let pres_mult = 1.8

(* Each routing cell is a gcell holding one horizontal and one
   vertical track, so two orthogonal wires may legally cross in it.
   Strictly planar capacity 1 would make zero overflow unattainable
   for any circuit whose net topology forces a crossing — which is
   nearly all of them. *)
let gcell_capacity = 2

(* pres_fac saturates here: unbounded exponential growth reaches
   [infinity] within ~40 iterations, where every congested candidate
   costs the same and the search degenerates into tie-breaking on cell
   index instead of actual congestion. 1e6 is already far beyond any
   finite detour on a realistic grid. *)
let max_pres_fac = 1.0e6
let hfac = 0.4

let reason_to_string = function
  | Single_pin -> "single-pin"
  | Unplaced m -> "unplaced:" ^ m
  | No_path -> "no-path"

let pin_point ~pitch ~margin placement m =
  match Placer.Placement.rect_of placement m with
  | None -> None
  | Some r ->
      let cx2, cy2 = Rect.center2 r in
      Some (Grid.snap ~pitch ~margin (cx2 / 2, cy2 / 2))

(* Routability triage: a net either yields its grid terminals or the
   reason it can never route. An unplaced pin is refused, not dropped:
   the net goes to [failed] with the module's name instead of quietly
   routing a partial tree. *)
let classify ~pitch ~margin placement (net : Netlist.Net.t) =
  match net.Netlist.Net.pins with
  | [] | [ _ ] -> Error Single_pin
  | pins ->
      let circuit = placement.Placer.Placement.circuit in
      let rec go acc = function
        | [] -> Ok (List.rev acc)
        | m :: rest -> (
            match pin_point ~pitch ~margin placement m with
            | Some p -> go (p :: acc) rest
            | None ->
                Error
                  (Unplaced circuit.Netlist.Circuit.modules.(m).Netlist.Circuit.name))
      in
      go [] pins

(* Grid-column reflection constant for a group: derived from an actual
   mirrored pair so pin images land exactly on pins. *)
let axis2_grid_of_group ~pitch ~margin placement
    (g : Constraints.Symmetry_group.t) =
  match
    Constraints.Placement_check.symmetry ~group:g
      placement.Placer.Placement.placed
  with
  | Error _ -> None
  | Ok _ -> (
      match (g.Constraints.Symmetry_group.pairs, g.Constraints.Symmetry_group.selfs) with
      | (a, b) :: _, _ -> (
          match
            ( pin_point ~pitch ~margin placement a,
              pin_point ~pitch ~margin placement b )
          with
          | Some (ca, _), Some (cb, _) -> Some (ca + cb)
          | _ -> None)
      | [], f :: _ -> (
          match pin_point ~pitch ~margin placement f with
          | Some (cf, _) -> Some (2 * cf)
          | None -> None)
      | [], [] -> None)

let close (c1, r1) (c2, r2) = abs (c1 - c2) <= 1 && abs (r1 - r2) <= 1

(* multiset match with tolerance: greedy bipartite *)
let pins_match mirrored actual =
  let rec go remaining = function
    | [] -> remaining = []
    | p :: rest -> (
        match List.partition (close p) remaining with
        | _ :: extra, others -> go (extra @ others) rest
        | [], _ -> false)
  in
  List.length mirrored = List.length actual && go actual mirrored

let is_mirror_route ~axis2_grid a b =
  let reflect (c, r) = (axis2_grid - c, r) in
  let norm pts = List.sort_uniq compare pts in
  norm (List.map reflect a) = norm b

let route_all ?(pitch = default_pitch) ?(margin = Grid.default_margin)
    ?(symmetric = []) ?(power = true)
    ?(max_iterations = default_max_iterations)
    ?(telemetry = Telemetry.Sink.null) placement =
  (* Instrumentation discipline, as everywhere else: handles resolved
     once, every op on a dead sink is one branch, and nothing here
     consumes randomness — traced routes are bit-identical to
     untraced ones (tested). *)
  let c_ripped = Telemetry.Sink.counter telemetry "route.ripped" in
  let c_pops = Telemetry.Sink.counter telemetry "route.search.pops" in
  let h_ovf = Telemetry.Sink.histogram telemetry "route.iter.overflow" in
  let h_ripped = Telemetry.Sink.histogram telemetry "route.iter.ripped" in
  let h_pops = Telemetry.Sink.histogram telemetry "route.iter.pops" in
  let h_pres = Telemetry.Sink.histogram telemetry "route.iter.pres_fac" in
  let t_total = Telemetry.Sink.span_begin telemetry in
  let cols, rows = Grid.size ~pitch ~margin placement in
  let in_bounds (c, r) = c >= 0 && c < cols && r >= 0 && r < rows in
  (* nets are their index in the circuit's net list from here on;
     names reappear only in the result *)
  let nets =
    Array.of_list placement.Placer.Placement.circuit.Netlist.Circuit.nets
  in
  let k = Array.length nets in
  let name id = nets.(id).Netlist.Net.name in
  (* triage: routable nets carry pins, the rest carry reasons *)
  let pins = Array.make k [] and pre_failed = Array.make k None in
  let routable =
    List.filter
      (fun id ->
        match classify ~pitch ~margin placement nets.(id) with
        | Ok ps ->
            pins.(id) <- ps;
            true
        | Error reason ->
            pre_failed.(id) <- Some reason;
            false)
      (List.init k Fun.id)
  in
  (* search terminals: the pins clamped onto the grid, as cells *)
  let terminals =
    Array.map
      (List.map (fun (c, r) ->
           Grid.index ~cols
             (Int.max 0 (Int.min (cols - 1) c), Int.max 0 (Int.min (rows - 1) r))))
      pins
  in
  (* twin detection per symmetry axis, first match wins, disjoint:
     [twin.(id)] is the partner's id, [axis.(id)] the pair's doubled
     grid axis *)
  let axes =
    List.filter_map (axis2_grid_of_group ~pitch ~margin placement) symmetric
  in
  let twin = Array.make k (-1) and axis = Array.make k 0 in
  List.iter
    (fun axis2_grid ->
      let reflect (c, r) = (axis2_grid - c, r) in
      let rec scan = function
        | [] -> ()
        | a :: rest ->
            (if twin.(a) < 0 then
               let mirrored = List.map reflect pins.(a) in
               match
                 List.find_opt
                   (fun b -> twin.(b) < 0 && pins_match mirrored pins.(b))
                   rest
               with
               | Some b ->
                   twin.(a) <- b;
                   twin.(b) <- a;
                   axis.(a) <- axis2_grid;
                   axis.(b) <- axis2_grid
               | None -> ());
            scan rest
      in
      scan routable)
    axes;
  (* power before signals: the comb claims its cells at capacity 0, so
     every signal net negotiates around the rails from the start; each
     symmetry axis keeps a channel through the straps so twin pairs
     retain a self-mirror crossing *)
  let channels =
    List.sort_uniq Int.compare
      (List.concat_map
         (fun a -> [ (a / 2) - 1; a / 2; (a + 1) / 2; ((a + 1) / 2) + 1 ])
         axes)
  in
  let rails =
    if power then
      Power.distribute ~channels ~cols ~rows
        ~keepout:(List.concat_map (fun id -> pins.(id)) routable)
        ()
    else { Power.vdd = []; gnd = [] }
  in
  let nego = Negotiate.create ~cols ~rows ~capacity:gcell_capacity in
  List.iter
    (fun p -> Negotiate.set_capacity nego (Grid.index ~cols p) 0)
    (Power.all_points rails);
  (* a module center is one grid cell shared by every net pinning on
     that module; when more nets pin there than the gcell holds, give
     the cell exactly that much capacity so legitimate pin fan-out is
     neither negotiated against nor counted as residual overflow *)
  let pin_demand = Array.make (cols * rows) 0 in
  List.iter
    (fun id ->
      List.iter
        (fun p ->
          if in_bounds p then begin
            let i = Grid.index ~cols p in
            pin_demand.(i) <- pin_demand.(i) + 1
          end)
        (List.sort_uniq compare pins.(id)))
    routable;
  Array.iteri
    (fun i n -> if n > gcell_capacity then Negotiate.set_capacity nego i n)
    pin_demand;
  (* negotiation: rip up and reroute every net each iteration under a
     growing present-sharing factor until no cell is over-used.
     [routes.(id)] holds the net's claimed cells, [led.(id)] the twin
     a mirrored pair was routed from [id] onto, [visited.(id)] the
     last pass that handled the net *)
  let routes = Array.make k None in
  let led = Array.make k (-1) in
  let no_path = Array.make k false in
  let visited = Array.make k (-1) in
  let iter_ripped = ref 0 in
  let rip id =
    match routes.(id) with
    | Some cells ->
        Negotiate.release nego cells;
        routes.(id) <- None;
        incr iter_ripped
    | None -> ()
  in
  let set_route id cells =
    Negotiate.claim nego cells;
    routes.(id) <- Some cells
  in
  let route_plain pres_fac id =
    rip id;
    match Negotiate.route_tree nego ~pres_fac ~terminals:terminals.(id) () with
    | Some cells -> set_route id cells
    | None -> no_path.(id) <- true
  in
  let process pass pres_fac id =
    if visited.(id) <> pass && not no_path.(id) then begin
      visited.(id) <- pass;
      let tw = twin.(id) in
      if tw >= 0 && not no_path.(tw) then begin
        visited.(tw) <- pass;
        rip id;
        rip tw;
        match
          Negotiate.route_tree nego ~mirror:axis.(id) ~pres_fac
            ~terminals:terminals.(id) ()
        with
        | Some tree ->
            set_route id tree;
            set_route tw
              (List.map (Negotiate.reflect nego ~axis:axis.(id)) tree);
            (* the pair may have been led from the other side in an
               earlier iteration; keep exactly one direction so
               [mirrored_pairs] lists each pair once *)
            led.(id) <- tw;
            led.(tw) <- -1
        | None ->
            (* asymmetric blockage: fall back to independent routes *)
            led.(id) <- -1;
            led.(tw) <- -1;
            route_plain pres_fac id;
            route_plain pres_fac tw
      end
      else route_plain pres_fac id
    end
  in
  let overuse_of id =
    match routes.(id) with
    | None -> 0
    | Some cells ->
        List.fold_left
          (fun acc i -> acc + Negotiate.cell_overuse nego i)
          0 cells
  in
  let iterations = ref 0 in
  let converged = ref (routable = []) in
  let nego_log = ref [] in
  while (not !converged) && !iterations < max_iterations do
    let t_iter = Telemetry.Sink.span_begin telemetry in
    let pops0 = Negotiate.search_pops nego in
    iter_ripped := 0;
    let pres_fac =
      min max_pres_fac (first_pres_fac *. (pres_mult ** float_of_int !iterations))
    in
    (* Iteration 0 routes everything in the initial order. Later
       iterations rip up only nets that currently sit on an over-used
       cell: rerouting clean nets too re-randomizes the whole instance
       every round and the endgame (two nets contesting one corridor)
       never settles. Every 8th iteration still reroutes everything,
       so a clean net pinned across the only escape corridor cannot
       deadlock the offenders forever. *)
    let order =
      if !iterations = 0 then
        Order.initial
          ~is_twin:(fun id -> twin.(id) >= 0)
          ~pins_of:(Array.get pins) routable
      else
        let pool =
          if !iterations mod 8 = 0 then routable
          else List.filter (fun id -> overuse_of id > 0) routable
        in
        Order.by_congestion ~overuse_of pool
    in
    List.iter (process !iterations pres_fac) order;
    incr iterations;
    let ovf = Negotiate.overflow nego in
    if ovf = 0 then converged := true else Negotiate.add_history nego ~hfac;
    let pops = Negotiate.search_pops nego - pops0 in
    nego_log :=
      {
        it_index = !iterations;
        it_pres_fac = pres_fac;
        it_overflow = ovf;
        it_overused = Negotiate.overused_cells nego;
        it_ripped = !iter_ripped;
        it_pops = pops;
      }
      :: !nego_log;
    Telemetry.Counter.add c_ripped !iter_ripped;
    Telemetry.Counter.add c_pops pops;
    Telemetry.Hist.observe h_ovf (float_of_int ovf);
    Telemetry.Hist.observe h_ripped (float_of_int !iter_ripped);
    Telemetry.Hist.observe h_pops (float_of_int pops);
    Telemetry.Hist.observe h_pres pres_fac;
    Telemetry.Sink.span_end telemetry "route.iteration" t_iter
  done;
  (* materialize, in circuit net order for determinism; cells become
     grid points again here and only here *)
  let ids = List.init k Fun.id in
  let routed =
    List.filter_map
      (fun id ->
        Option.map
          (fun cells ->
            { net = name id; points = List.map (Grid.point ~cols) cells })
          routes.(id))
      ids
  in
  let failed =
    List.filter_map
      (fun id ->
        let reason = if no_path.(id) then Some No_path else pre_failed.(id) in
        Option.map (fun reason -> { failed_net = name id; reason }) reason)
      ids
  in
  let mirrored =
    List.filter_map
      (fun id -> if led.(id) >= 0 then Some (name id, name led.(id)) else None)
      ids
  in
  let final_overflow = Negotiate.overflow nego in
  Telemetry.Counter.add
    (Telemetry.Sink.counter telemetry "route.iterations")
    !iterations;
  Telemetry.Counter.add
    (Telemetry.Sink.counter telemetry "route.overflow")
    final_overflow;
  Telemetry.Counter.add
    (Telemetry.Sink.counter telemetry "route.nets.routed")
    (List.length routed);
  Telemetry.Counter.add
    (Telemetry.Sink.counter telemetry "route.nets.failed")
    (List.length failed);
  Telemetry.Sink.span_end telemetry "route.total" t_total;
  {
    routed;
    failed;
    wirelength =
      List.fold_left (fun acc r -> acc + List.length r.points) 0 routed;
    mirrored_pairs = mirrored;
    overflow = final_overflow;
    iterations = !iterations;
    negotiation = List.rev !nego_log;
    occupancy = Negotiate.snapshot nego;
    power = rails.Power.vdd @ rails.Power.gnd;
  }
