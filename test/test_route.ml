let sym_placement () =
  (* a mirrored pair + an on-axis tail, nets mirroring each other *)
  let circuit =
    Netlist.Circuit.make ~name:"dp"
      ~modules:
        [
          Netlist.Circuit.block ~name:"l" ~w:100 ~h:100;
          Netlist.Circuit.block ~name:"r" ~w:100 ~h:100;
          Netlist.Circuit.block ~name:"tail" ~w:100 ~h:100;
          Netlist.Circuit.block ~name:"outl" ~w:60 ~h:60;
          Netlist.Circuit.block ~name:"outr" ~w:60 ~h:60;
        ]
      ~nets:
        [
          Netlist.Net.make ~name:"nl" ~pins:[ 0; 3 ] ();
          Netlist.Net.make ~name:"nr" ~pins:[ 1; 4 ] ();
        ]
  in
  let place cell x y w h =
    Geometry.Transform.place ~cell ~x ~y ~w ~h ~orient:Geometry.Orientation.R0
  in
  (* axis at x = 300 (axis2 = 600) *)
  let placed =
    [
      place 0 100 0 100 100;
      place 1 400 0 100 100;
      place 2 250 120 100 100;
      place 3 0 240 60 60;
      place 4 540 240 60 60;
    ]
  in
  (Placer.Placement.make circuit placed,
   Constraints.Symmetry_group.make ~pairs:[ (0, 1); (3, 4) ] ~selfs:[ 2 ] ())

let test_mirrored_routing () =
  let placement, grp = sym_placement () in
  let result = Route.Router.route_all ~pitch:20 ~symmetric:[ grp ] placement in
  Alcotest.(check (list string)) "nothing failed" []
    (List.map
       (fun f -> f.Route.Router.failed_net)
       result.Route.Router.failed);
  Alcotest.(check int) "both nets routed" 2
    (List.length result.Route.Router.routed);
  Alcotest.(check int) "one mirrored pair" 1
    (List.length result.Route.Router.mirrored_pairs);
  (* exact mirror images *)
  let route name =
    (List.find (fun r -> r.Route.Router.net = name) result.Route.Router.routed)
      .Route.Router.points
  in
  let nl = route "nl" and nr = route "nr" in
  Alcotest.(check int) "equal lengths" (List.length nl) (List.length nr);
  (* recover the reflection constant from the outer pin pair *)
  let axis2_grid =
    let gc x = fst (Route.Grid.snap ~pitch:20 ~margin:4 (x, 0)) in
    gc 150 + gc 450
  in
  Alcotest.(check bool) "exact mirror" true
    (Route.Router.is_mirror_route ~axis2_grid nl nr)

(* A gcell holds one horizontal and one vertical track: two routes may
   legally cross in a cell, but three sharing one cell (or any residual
   overflow) means negotiation failed. *)
let test_routes_within_capacity () =
  let placement, grp = sym_placement () in
  let result = Route.Router.route_all ~pitch:20 ~symmetric:[ grp ] placement in
  Alcotest.(check int) "no overflow" 0 result.Route.Router.overflow;
  let usage = Hashtbl.create 97 in
  List.iter
    (fun (r : Route.Router.route) ->
      List.iter
        (fun p ->
          Hashtbl.replace usage p
            (1 + Option.value ~default:0 (Hashtbl.find_opt usage p)))
        r.Route.Router.points)
    result.Route.Router.routed;
  let worst = Hashtbl.fold (fun _ n acc -> max n acc) usage 0 in
  Alcotest.(check bool) "within gcell capacity" true (worst <= 2)

(* Randomized mirrored fixture: [k] units of a device pair plus a load
   pair, exactly mirrored about doubled-layout axis 1200, one net per
   side connecting device to load. Geometry is derived from [seed] so
   QCheck shrinks over a compact space. *)
let random_sym_fixture ~k ~seed =
  let rng = Prelude.Rng.create (seed + 1) in
  let axis2 = 1200 in
  let modules = ref [] and nets = ref [] and placed = ref [] in
  let pairs = ref [] in
  let place cell x y w h =
    Geometry.Transform.place ~cell ~x ~y ~w ~h ~orient:Geometry.Orientation.R0
  in
  for i = 0 to k - 1 do
    let base = 4 * i in
    let w = 40 + (20 * Prelude.Rng.int rng 5)
    and h = 40 + (20 * Prelude.Rng.int rng 5)
    and xl = 20 * Prelude.Rng.int rng 15
    and y = 300 * i in
    let w2 = 40 + (20 * Prelude.Rng.int rng 3)
    and x2 = 20 * Prelude.Rng.int rng 10
    and y2 = (300 * i) + 160 in
    modules :=
      !modules
      @ [
          Netlist.Circuit.block ~name:(Printf.sprintf "dl%d" i) ~w ~h;
          Netlist.Circuit.block ~name:(Printf.sprintf "dr%d" i) ~w ~h;
          Netlist.Circuit.block ~name:(Printf.sprintf "ol%d" i) ~w:w2 ~h:40;
          Netlist.Circuit.block ~name:(Printf.sprintf "or%d" i) ~w:w2 ~h:40;
        ];
    nets :=
      !nets
      @ [
          Netlist.Net.make ~name:(Printf.sprintf "nl%d" i)
            ~pins:[ base; base + 2 ] ();
          Netlist.Net.make ~name:(Printf.sprintf "nr%d" i)
            ~pins:[ base + 1; base + 3 ] ();
        ];
    placed :=
      !placed
      @ [
          place base xl y w h;
          place (base + 1) (axis2 - xl - w) y w h;
          place (base + 2) x2 y2 w2 40;
          place (base + 3) (axis2 - x2 - w2) y2 w2 40;
        ];
    pairs := !pairs @ [ (base, base + 1); (base + 2, base + 3) ]
  done;
  let circuit =
    Netlist.Circuit.make ~name:"qsym" ~modules:!modules ~nets:!nets
  in
  let group = Constraints.Symmetry_group.make ~pairs:!pairs ~selfs:[] () in
  (Placer.Placement.make circuit !placed, group)

(* every twin pair the router reports mirrored must be an exact mirror
   image with equal per-pair wirelength — by construction, not luck *)
let prop_twin_mirror =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:25 ~name:"twin routes are exact mirrors"
       QCheck.(pair (int_range 1 3) (int_range 0 999))
       (fun (k, seed) ->
         (* the shrinker can step outside int_range; clamp to the
            fixture's domain *)
         let k = max 1 (min 3 k) and seed = abs seed in
         let placement, grp = random_sym_fixture ~k ~seed in
         let result =
           Route.Router.route_all ~pitch:20 ~symmetric:[ grp ] placement
         in
         if result.Route.Router.failed <> [] then
           QCheck.Test.fail_reportf "failed nets on a sparse fixture";
         if List.length result.Route.Router.mirrored_pairs <> k then
           QCheck.Test.fail_reportf "expected %d mirrored pairs, got %d" k
             (List.length result.Route.Router.mirrored_pairs);
         (* recover the reflection constant exactly as the router does:
            from the first pair's snapped pin cells *)
         let route name =
           (List.find
              (fun r -> r.Route.Router.net = name)
              result.Route.Router.routed)
             .Route.Router.points
         in
         let gc m =
           match Placer.Placement.rect_of placement m with
           | None -> QCheck.Test.fail_reportf "unplaced module"
           | Some r ->
               fst
                 (Route.Grid.snap ~pitch:20 ~margin:Route.Grid.default_margin
                    (r.Geometry.Rect.x + (r.Geometry.Rect.w / 2), 0))
         in
         let axis2_grid = gc 0 + gc 1 in
         List.for_all
           (fun i ->
             let nl = route (Printf.sprintf "nl%d" i)
             and nr = route (Printf.sprintf "nr%d" i) in
             List.length nl = List.length nr
             && Route.Router.is_mirror_route ~axis2_grid nl nr)
           (List.init k (fun i -> i))))

let test_route_deterministic () =
  (* identical inputs give byte-identical routes: same nets, points,
     wirelength, iteration count *)
  let placement, grp = sym_placement () in
  let r1 = Route.Router.route_all ~pitch:20 ~symmetric:[ grp ] placement in
  let r2 = Route.Router.route_all ~pitch:20 ~symmetric:[ grp ] placement in
  Alcotest.(check int) "same wirelength" r1.Route.Router.wirelength
    r2.Route.Router.wirelength;
  Alcotest.(check int) "same iterations" r1.Route.Router.iterations
    r2.Route.Router.iterations;
  Alcotest.(check bool) "identical routes" true
    (List.for_all2
       (fun (a : Route.Router.route) (b : Route.Router.route) ->
         a.Route.Router.net = b.Route.Router.net
         && a.Route.Router.points = b.Route.Router.points)
       r1.Route.Router.routed r2.Route.Router.routed);
  let b = Netlist.Benchmarks.table1_suite () |> List.hd in
  let r =
    Shapefn.Combine.place ~mode:Shapefn.Combine.Esf b.Netlist.Benchmarks.circuit
      b.Netlist.Benchmarks.hierarchy
  in
  let pl =
    Placer.Placement.make b.Netlist.Benchmarks.circuit r.Shapefn.Combine.placed
  in
  let r1 = Route.Router.route_all pl and r2 = Route.Router.route_all pl in
  Alcotest.(check int) "bench route deterministic" r1.Route.Router.wirelength
    r2.Route.Router.wirelength

let test_traced_route_identical () =
  (* the flight-recorder contract: routing under a live sink draws no
     randomness and changes nothing — routes, wirelength, overflow and
     the iteration log are bit-identical to the untraced run, and the
     sink actually observed the run *)
  let b = Netlist.Benchmarks.table1_suite () |> List.hd in
  let r =
    Shapefn.Combine.place ~mode:Shapefn.Combine.Esf b.Netlist.Benchmarks.circuit
      b.Netlist.Benchmarks.hierarchy
  in
  let pl =
    Placer.Placement.make b.Netlist.Benchmarks.circuit r.Shapefn.Combine.placed
  in
  let groups =
    Constraints.Symmetry_group.of_hierarchy b.Netlist.Benchmarks.hierarchy
  in
  let quiet = Route.Router.route_all ~symmetric:groups pl in
  let sink = Telemetry.Sink.create () in
  let traced = Route.Router.route_all ~symmetric:groups ~telemetry:sink pl in
  Alcotest.(check int) "same wirelength" quiet.Route.Router.wirelength
    traced.Route.Router.wirelength;
  Alcotest.(check int) "same overflow" quiet.Route.Router.overflow
    traced.Route.Router.overflow;
  Alcotest.(check int) "same iterations" quiet.Route.Router.iterations
    traced.Route.Router.iterations;
  Alcotest.(check bool) "identical routes" true
    (List.for_all2
       (fun (a : Route.Router.route) (b : Route.Router.route) ->
         a.Route.Router.net = b.Route.Router.net
         && a.Route.Router.points = b.Route.Router.points)
       quiet.Route.Router.routed traced.Route.Router.routed);
  Alcotest.(check bool) "identical negotiation log" true
    (quiet.Route.Router.negotiation = traced.Route.Router.negotiation);
  let counters = Telemetry.Sink.counters sink in
  let v name =
    match List.assoc_opt name counters with Some n -> n | None -> 0
  in
  Alcotest.(check int) "route.iterations counter matches"
    traced.Route.Router.iterations (v "route.iterations");
  Alcotest.(check int) "route.nets.routed counter matches"
    (List.length traced.Route.Router.routed)
    (v "route.nets.routed")

let test_negotiation_log_shape () =
  (* the per-pass log: one entry per iteration, 1-based and ordered,
     ending at the result's residual overflow *)
  let placement, grp = sym_placement () in
  let r = Route.Router.route_all ~pitch:20 ~symmetric:[ grp ] placement in
  let log = r.Route.Router.negotiation in
  Alcotest.(check int) "one entry per iteration" r.Route.Router.iterations
    (List.length log);
  List.iteri
    (fun i (it : Route.Router.iteration) ->
      Alcotest.(check int) "indices count from 1" (i + 1)
        it.Route.Router.it_index;
      Alcotest.(check bool) "pres_fac positive" true
        (it.Route.Router.it_pres_fac > 0.0);
      Alcotest.(check bool) "pops non-negative" true
        (it.Route.Router.it_pops >= 0))
    log;
  match List.rev log with
  | [] -> Alcotest.fail "empty negotiation log"
  | last :: _ ->
      Alcotest.(check int) "last pass overflow is the residual"
        r.Route.Router.overflow last.Route.Router.it_overflow

let test_occupancy_snapshot () =
  (* the heatmap export: snapshot dimensions cover the grid, rails are
     capacity-0 cells, and total present occupancy equals the routed
     wirelength exactly (each tree claims each of its cells once) *)
  let b = Netlist.Benchmarks.table1_suite () |> List.hd in
  let r =
    Shapefn.Combine.place ~mode:Shapefn.Combine.Esf b.Netlist.Benchmarks.circuit
      b.Netlist.Benchmarks.hierarchy
  in
  let pl =
    Placer.Placement.make b.Netlist.Benchmarks.circuit r.Shapefn.Combine.placed
  in
  let res = Route.Router.route_all pl in
  let s = res.Route.Router.occupancy in
  let cells =
    s.Route.Negotiate.Snapshot.cols * s.Route.Negotiate.Snapshot.rows
  in
  Alcotest.(check int) "capacity array covers the grid" cells
    (Array.length s.Route.Negotiate.Snapshot.capacity);
  Alcotest.(check int) "present array covers the grid" cells
    (Array.length s.Route.Negotiate.Snapshot.present);
  Alcotest.(check int) "history array covers the grid" cells
    (Array.length s.Route.Negotiate.Snapshot.history);
  Alcotest.(check int) "occupancy sums to routed wirelength"
    res.Route.Router.wirelength
    (Array.fold_left ( + ) 0 s.Route.Negotiate.Snapshot.present);
  if res.Route.Router.power <> [] then
    Alcotest.(check bool) "power rails appear as capacity-0 cells" true
      (Array.exists (fun c -> c = 0) s.Route.Negotiate.Snapshot.capacity)

let test_negotiation_converges () =
  (* the Buffer bench forces nets through contested gcells: negotiation
     must actually iterate (rip-up engaged) and still end overflow-free
     with every net routed *)
  let b =
    List.find
      (fun (b : Netlist.Benchmarks.bench) ->
        b.Netlist.Benchmarks.label = "Buffer")
      (Netlist.Benchmarks.table1_suite ())
  in
  let groups =
    Constraints.Symmetry_group.of_hierarchy b.Netlist.Benchmarks.hierarchy
  in
  let r =
    Shapefn.Combine.place ~mode:Shapefn.Combine.Esf b.Netlist.Benchmarks.circuit
      b.Netlist.Benchmarks.hierarchy
  in
  let pl =
    Placer.Placement.make b.Netlist.Benchmarks.circuit r.Shapefn.Combine.placed
  in
  let result = Route.Router.route_all ~symmetric:groups pl in
  Alcotest.(check bool) "negotiation engaged" true
    (result.Route.Router.iterations > 1);
  Alcotest.(check int) "zero overflow" 0 result.Route.Router.overflow;
  Alcotest.(check (list string)) "no failed nets" []
    (List.map
       (fun f -> f.Route.Router.failed_net)
       result.Route.Router.failed)

let estimate_fixture () =
  (* four routable 50x50 modules, one far 10x10 marker pinning the die
     extents so crowded and spread variants share bin geometry *)
  Netlist.Circuit.make ~name:"est"
    ~modules:
      [
        Netlist.Circuit.block ~name:"a" ~w:50 ~h:50;
        Netlist.Circuit.block ~name:"b" ~w:50 ~h:50;
        Netlist.Circuit.block ~name:"c" ~w:50 ~h:50;
        Netlist.Circuit.block ~name:"d" ~w:50 ~h:50;
        Netlist.Circuit.block ~name:"far" ~w:10 ~h:10;
      ]
    ~nets:
      [
        Netlist.Net.make ~name:"n1" ~pins:[ 0; 1 ] ();
        Netlist.Net.make ~name:"n2" ~pins:[ 2; 3 ] ();
      ]

let test_estimate_properties () =
  let place cell x y w h =
    Geometry.Transform.place ~cell ~x ~y ~w ~h ~orient:Geometry.Orientation.R0
  in
  let placement coords =
    Placer.Placement.make (estimate_fixture ())
      (List.mapi (fun i (x, y, w, h) -> place i x y w h) coords)
  in
  let far = (2000, 2000, 10, 10) in
  let est = Route.Estimate.create (estimate_fixture ()) in
  (* two identical-demand nets crowded into one region score strictly
     worse than the same nets spread across the die *)
  let crowded =
    placement
      [ (0, 0, 50, 50); (200, 0, 50, 50); (0, 100, 50, 50); (200, 100, 50, 50); far ]
  in
  let spread =
    placement
      [ (0, 0, 50, 50); (200, 0, 50, 50); (0, 1800, 50, 50); (200, 1800, 50, 50); far ]
  in
  let sc = Route.Estimate.score_placement est crowded
  and ss = Route.Estimate.score_placement est spread in
  Alcotest.(check bool) "crowding costs more" true (sc > ss);
  Alcotest.(check bool) "both positive" true (sc > 0.0 && ss > 0.0);
  (* determinism *)
  Alcotest.(check (float 0.0)) "score deterministic" sc
    (Route.Estimate.score_placement est crowded);
  (* a circuit with no multi-pin nets carries no demand *)
  let lonely =
    Netlist.Circuit.make ~name:"lonely"
      ~modules:[ Netlist.Circuit.block ~name:"a" ~w:50 ~h:50 ]
      ~nets:[ Netlist.Net.make ~name:"n" ~pins:[ 0 ] () ]
  in
  let e0 = Route.Estimate.create lonely in
  Alcotest.(check (float 0.0)) "zero demand scores zero" 0.0
    (Route.Estimate.score_placement e0
       (Placer.Placement.make lonely [ place 0 0 0 50 50 ]))

(* The RUDY estimate as it was computed before the arena shared its
   net boxes: a walk over every net's pins from the placement's own
   rectangles, the die from the same rectangles, and the 8x8
   difference-array spread with polymorphic clamps. It shares no code
   with [Route.Estimate] or [Netlist.Wirelength], and does the float
   operations in the same order, so it must agree bit for bit. *)
let reference_rudy (circuit : Netlist.Circuit.t) placement =
  let bins = 8 and utilization = 0.5 in
  let pitch = float_of_int Route.Grid.default_pitch in
  let fmin (a : float) b = if a < b then a else b
  and fmax (a : float) b = if a > b then a else b in
  let n = Netlist.Circuit.size circuit in
  let rect c =
    match Placer.Placement.rect_of placement c with
    | Some r -> r
    | None -> { Geometry.Rect.x = 0; y = 0; w = 0; h = 0 }
  in
  let die_w = ref 0 and die_h = ref 0 in
  for c = 0 to n - 1 do
    let r = rect c in
    die_w := max !die_w (r.Geometry.Rect.x + r.Geometry.Rect.w);
    die_h := max !die_h (r.Geometry.Rect.y + r.Geometry.Rect.h)
  done;
  if !die_w = 0 || !die_h = 0 then 0.0
  else begin
    let bw = float_of_int !die_w /. float_of_int bins
    and bh = float_of_int !die_h /. float_of_int bins in
    let inv_bw = 1.0 /. bw and inv_bh = 1.0 /. bh in
    let stride = bins + 1 in
    let diff = Array.make (stride * stride) 0.0 in
    let add ax bx ay by v =
      let at i d = diff.(i) <- diff.(i) +. d in
      at ((ay * stride) + ax) v;
      at ((ay * stride) + bx + 1) (-.v);
      at (((by + 1) * stride) + ax) (-.v);
      at (((by + 1) * stride) + bx + 1) v
    in
    let row ix0 ix1 fx_lo fx_mid fx_hi ay by vy =
      if ix0 = ix1 then add ix0 ix0 ay by vy
      else begin
        add ix0 ix0 ay by (vy *. fx_lo);
        if ix1 > ix0 + 1 then add (ix0 + 1) (ix1 - 1) ay by (vy *. fx_mid);
        add ix1 ix1 ay by (vy *. fx_hi)
      end
    in
    let frac lo hi i inv_ext step =
      let a = fmax lo (float_of_int i *. step)
      and b = fmin hi (float_of_int (i + 1) *. step) in
      fmax 0.0 (fmin 1.0 ((b -. a) *. inv_ext))
    in
    let bin top v = max 0 (min top (int_of_float v)) in
    List.iter
      (fun (net : Netlist.Net.t) ->
        match net.Netlist.Net.pins with
        | [] | [ _ ] -> ()
        | pins ->
            let centre c =
              let r = rect c in
              ( (2 * r.Geometry.Rect.x) + r.Geometry.Rect.w,
                (2 * r.Geometry.Rect.y) + r.Geometry.Rect.h )
            in
            let xs = List.map (fun c -> fst (centre c)) pins
            and ys = List.map (fun c -> snd (centre c)) pins in
            let lo l = float_of_int (List.fold_left min max_int l) /. 2.0
            and hi l = float_of_int (List.fold_left max min_int l) /. 2.0 in
            let bx0 = lo xs and bx1 = hi xs and by0 = lo ys and by1 = hi ys in
            let demand =
              net.Netlist.Net.weight *. fmax pitch (bx1 -. bx0 +. (by1 -. by0))
            in
            let ix0 = bin (bins - 1) (bx0 *. inv_bw)
            and ix1 = bin (bins - 1) (bx1 *. inv_bw)
            and iy0 = bin (bins - 1) (by0 *. inv_bh)
            and iy1 = bin (bins - 1) (by1 *. inv_bh) in
            if ix0 = ix1 && iy0 = iy1 then add ix0 ix0 iy0 iy0 demand
            else begin
              let inv_ext_x = 1.0 /. fmax 1.0 (bx1 -. bx0)
              and inv_ext_y = 1.0 /. fmax 1.0 (by1 -. by0) in
              let one = ix0 = ix1 in
              let fx_lo = if one then 1.0 else frac bx0 bx1 ix0 inv_ext_x bw
              and fx_mid = if one then 1.0 else fmin 1.0 (bw *. inv_ext_x)
              and fx_hi = if one then 1.0 else frac bx0 bx1 ix1 inv_ext_x bw in
              let row = row ix0 ix1 fx_lo fx_mid fx_hi in
              if iy0 = iy1 then row iy0 iy0 demand
              else begin
                row iy0 iy0 (demand *. frac by0 by1 iy0 inv_ext_y bh);
                if iy1 > iy0 + 1 then
                  row (iy0 + 1) (iy1 - 1) (demand *. fmin 1.0 (bh *. inv_ext_y));
                row iy1 iy1 (demand *. frac by0 by1 iy1 inv_ext_y bh)
              end
            end)
      circuit.Netlist.Circuit.nets;
    let cap = utilization *. 2.0 *. bw *. bh /. pitch in
    if cap <= 0.0 then 0.0
    else begin
      for iy = 0 to bins - 1 do
        for ix = 1 to bins - 1 do
          let i = (iy * stride) + ix in
          diff.(i) <- diff.(i) +. diff.(i - 1)
        done
      done;
      let acc = ref 0.0 in
      for iy = 0 to bins - 1 do
        for ix = 0 to bins - 1 do
          let i = (iy * stride) + ix in
          if iy > 0 then diff.(i) <- diff.(i) +. diff.(i - stride);
          acc := !acc +. (diff.(i) *. diff.(i))
        done
      done;
      !acc *. (1.0 /. cap)
    end
  end

(* The estimate an annealer sees reads the net boxes its arena's HPWL
   pass wrote. Over B*-tree walks with rotations it must equal both
   [score_placement] of the materialized placement and the reference
   above, bit for bit. *)
let test_estimate_shared_boxes () =
  List.iter
    (fun n ->
      let b = Netlist.Benchmarks.synthetic ~label:"rudy" ~n ~seed:3 in
      let c = b.Netlist.Benchmarks.circuit in
      let seen = ref nan in
      let estimator =
        let f = Route.Estimate.estimator c () in
        fun boxes ~width ~height ->
          let v = f boxes ~width ~height in
          seen := v;
          v
      in
      let arena = Placer.Eval.create ~estimator c in
      let weights = { Placer.Cost.default with Placer.Cost.routability = 1.0 } in
      let est = Route.Estimate.create c in
      let rng = Prelude.Rng.create n in
      let flat = Bstar.Flat.of_tree (Bstar.Tree.random rng (List.init n Fun.id)) in
      let rot = Array.make n false in
      let bits = Int64.bits_of_float in
      for move = 1 to 2000 do
        if Prelude.Rng.bool rng then ignore (Bstar.Flat.perturb rng flat)
        else begin
          let k = Prelude.Rng.int rng n in
          rot.(k) <- not rot.(k)
        end;
        ignore (Placer.Eval.cost_bstar arena weights flat ~rot : float);
        let dims cell =
          let w, h = Netlist.Circuit.dims c cell in
          if rot.(cell) then (h, w) else (w, h)
        in
        let placement =
          Placer.Placement.make c (Bstar.Tree.pack (Bstar.Flat.to_tree flat) dims)
        in
        let expect = reference_rudy c placement in
        if bits !seen <> bits expect then
          Alcotest.failf "n=%d move %d: arena estimate %h, reference %h" n move
            !seen expect;
        let placed = Route.Estimate.score_placement est placement in
        if bits placed <> bits expect then
          Alcotest.failf "n=%d move %d: score_placement %h, reference %h" n move
            placed expect
      done)
    [ 12; 38; 110 ]

let test_route_random_circuits () =
  let rng = Prelude.Rng.create 4 in
  List.iter
    (fun seed ->
      let b = Netlist.Benchmarks.synthetic ~label:"r" ~n:12 ~seed in
      let out =
        Placer.Sa_seqpair.place
          ~params:
            {
              (Anneal.Sa.default_params ~n:12) with
              Anneal.Sa.max_rounds = 40;
            }
          ~rng b.Netlist.Benchmarks.circuit
      in
      let result = Route.Router.route_all out.Placer.Sa_seqpair.placement in
      let total =
        List.length result.Route.Router.routed
        + List.length result.Route.Router.failed
      in
      Alcotest.(check int) "every net accounted for"
        (List.length b.Netlist.Benchmarks.circuit.Netlist.Circuit.nets)
        total;
      Alcotest.(check bool) "wirelength positive" true
        (result.Route.Router.wirelength > 0))
    [ 1; 2; 3 ]

(* ---- search optimality against a Dijkstra oracle ------------------- *)

(* The documented cost of entering cell [i]: (base + history) times
   (1 + pres_fac * overuse), where the overuse counts this entry and
   [extra] further uses, and base is {!Route.Negotiate.base_cost}. *)
let oracle_enter (s : Route.Negotiate.Snapshot.t) ~pres_fac ~extra i =
  let over =
    s.Route.Negotiate.Snapshot.present.(i) + 1 + extra
    - s.Route.Negotiate.Snapshot.capacity.(i)
  in
  let congestion =
    if over > 0 then 1.0 +. (pres_fac *. float_of_int over) else 1.0
  in
  (Route.Negotiate.base_cost +. s.Route.Negotiate.Snapshot.history.(i))
  *. congestion

let oracle_reflect (s : Route.Negotiate.Snapshot.t) ~axis i =
  let cols = s.Route.Negotiate.Snapshot.cols in
  let mc = axis - (i mod cols) in
  if mc < 0 || mc >= cols then -1 else (i / cols * cols) + mc

(* Cost of stepping onto [v] for a net whose terminals are [terms], or
   None when the step is closed: capacity-0 cells (and, mirrored,
   cells whose image is capacity-0 or off the grid) admit only the
   net's own terminals. A mirrored step prices the cell and its image;
   a cell on the axis column is its own image and counts twice. *)
let oracle_step (s : Route.Negotiate.Snapshot.t) ~pres_fac ~mirror ~terms v =
  let open_cell i = s.Route.Negotiate.Snapshot.capacity.(i) > 0 in
  let term = List.mem v terms in
  match mirror with
  | None ->
      if term || open_cell v then Some (oracle_enter s ~pres_fac ~extra:0 v)
      else None
  | Some axis -> (
      match oracle_reflect s ~axis v with
      | -1 -> None
      | m when m = v ->
          if term || open_cell v then Some (oracle_enter s ~pres_fac ~extra:1 v)
          else None
      | m ->
          if term || (open_cell v && open_cell m) then
            Some
              (oracle_enter s ~pres_fac ~extra:0 v
              +. oracle_enter s ~pres_fac ~extra:0 m)
          else None)

let oracle_neighbours (s : Route.Negotiate.Snapshot.t) u =
  let cols = s.Route.Negotiate.Snapshot.cols
  and rows = s.Route.Negotiate.Snapshot.rows in
  let c = u mod cols and r = u / cols in
  List.filter_map
    (fun (ok, v) -> if ok then Some v else None)
    [ (c + 1 < cols, u + 1); (c > 0, u - 1); (r + 1 < rows, u + cols); (r > 0, u - cols) ]

(* Plain Dijkstra from [src] to [dst] over the snapshot: the optimum a
   two-terminal tree must cost, or None when [dst] is unreachable (or,
   mirrored, when [src] reflects off the grid). *)
let oracle_optimum s ~pres_fac ~mirror ~src ~dst =
  let module Q = Set.Make (struct
    type t = float * int

    let compare = compare
  end) in
  let seed_ok =
    match mirror with Some axis -> oracle_reflect s ~axis src >= 0 | None -> true
  in
  if not seed_ok then None
  else begin
    let n = Array.length s.Route.Negotiate.Snapshot.capacity in
    let dist = Array.make n infinity and settled = Array.make n false in
    dist.(src) <- 0.0;
    let q = ref (Q.singleton (0.0, src)) and found = ref None in
    while !found = None && not (Q.is_empty !q) do
      let ((d, u) as top) = Q.min_elt !q in
      q := Q.remove top !q;
      if not settled.(u) then begin
        settled.(u) <- true;
        if u = dst then found := Some d
        else
          List.iter
            (fun v ->
              match oracle_step s ~pres_fac ~mirror ~terms:[ src; dst ] v with
              | Some c when d +. c < dist.(v) ->
                  dist.(v) <- d +. c;
                  q := Q.add (dist.(v), v) !q
              | _ -> ())
            (oracle_neighbours s u)
      end
    done;
    !found
  end

(* A random priced grid: capacity-0 cells, claimed present counts and
   accumulated history, all derived from [seed]. *)
let random_priced_grid seed =
  let rng = Prelude.Rng.create (seed + 17) in
  let cols = Prelude.Rng.int_in rng 2 12 and rows = Prelude.Rng.int_in rng 2 12 in
  let n = cols * rows in
  let t =
    Route.Negotiate.create ~cols ~rows ~capacity:(Prelude.Rng.int_in rng 1 3)
  in
  let cell () = Prelude.Rng.int rng n in
  for _ = 1 to Prelude.Rng.int rng (1 + (n / 5)) do
    Route.Negotiate.set_capacity t (cell ()) 0
  done;
  for _ = 1 to Prelude.Rng.int_in rng 0 3 do
    for _ = 1 to Prelude.Rng.int rng (2 * n) do
      Route.Negotiate.claim t [ cell () ]
    done;
    Route.Negotiate.add_history t ~hfac:(Prelude.Rng.float rng 2.0)
  done;
  let pres_fac = 0.5 +. Prelude.Rng.float rng 8.0 in
  let src = cell () in
  let dst = (src + 1 + Prelude.Rng.int rng (n - 1)) mod n in
  (* mostly an axis the source reflects onto, sometimes any axis *)
  let mirror =
    match Prelude.Rng.int rng 4 with
    | 0 | 1 -> None
    | 2 -> Some ((src mod cols) + Prelude.Rng.int rng cols)
    | _ -> Some (Prelude.Rng.int rng ((2 * cols) - 1))
  in
  (t, pres_fac, mirror, src, dst)

(* The returned path must be a legal walk from [src] to [dst]; its
   cost is the sum of its steps. *)
let path_cost s ~pres_fac ~mirror ~src ~dst path =
  match path with
  | first :: _ when first = src && List.nth path (List.length path - 1) = dst ->
      let rec go acc = function
        | u :: (v :: _ as rest) -> (
            if not (List.mem v (oracle_neighbours s u)) then
              QCheck.Test.fail_reportf "step %d -> %d is not adjacent" u v;
            match oracle_step s ~pres_fac ~mirror ~terms:[ src; dst ] v with
            | None -> QCheck.Test.fail_reportf "step onto closed cell %d" v
            | Some c -> go (acc +. c) rest)
        | _ -> acc
      in
      go 0.0 path
  | _ -> QCheck.Test.fail_reportf "path does not run from %d to %d" src dst

let prop_search_optimal =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:400
       ~name:"two-terminal tree costs the Dijkstra optimum"
       QCheck.(int_range 0 99_999)
       (fun seed ->
         let seed = abs seed in
         let t, pres_fac, mirror, src, dst = random_priced_grid seed in
         let s = Route.Negotiate.snapshot t in
         let got =
           Route.Negotiate.route_tree t ?mirror ~pres_fac ~terminals:[ src; dst ] ()
         in
         match (got, oracle_optimum s ~pres_fac ~mirror ~src ~dst) with
         | None, None -> true
         | Some path, Some best ->
             let c = path_cost s ~pres_fac ~mirror ~src ~dst path in
             if Float.abs (c -. best) > 1e-9 *. Float.max 1.0 best then
               QCheck.Test.fail_reportf "path costs %.17g, optimum %.17g" c best;
             true
         | Some _, None -> QCheck.Test.fail_reportf "routed an unreachable pair"
         | None, Some best ->
             QCheck.Test.fail_reportf "no path, optimum %.17g" best))

(* ---- pinned route digests ------------------------------------------ *)

(* One routing run reduced to a digest of everything it reports: each
   net's points, the failures with their reasons, the mirrored pairs,
   wirelength, overflow, the iteration count, every negotiation pass's
   pops / rip-ups / overflow, the power rails, the final occupancy
   snapshot and the RUDY estimate of the same placement (floats as
   [%h], so a single changed bit shows). A change to how the router
   represents nets or cells must leave all of it bit for bit as it
   was; the wirelength rides along in clear so a mismatch reads. *)
let route_digest ?(symmetric = []) placement =
  let r = Route.Router.route_all ~symmetric placement in
  let b = Buffer.create 4096 in
  let points ps = List.iter (fun (c, r) -> Printf.bprintf b " %d,%d" c r) ps in
  List.iter
    (fun (rt : Route.Router.route) ->
      Printf.bprintf b "net %s:" rt.Route.Router.net;
      points rt.Route.Router.points;
      Buffer.add_char b '\n')
    r.Route.Router.routed;
  List.iter
    (fun (f : Route.Router.failure) ->
      Printf.bprintf b "failed %s %s\n" f.Route.Router.failed_net
        (Route.Router.reason_to_string f.Route.Router.reason))
    r.Route.Router.failed;
  List.iter
    (fun (a, c) -> Printf.bprintf b "mirrored %s %s\n" a c)
    r.Route.Router.mirrored_pairs;
  Printf.bprintf b "wirelength %d overflow %d iterations %d\n"
    r.Route.Router.wirelength r.Route.Router.overflow
    r.Route.Router.iterations;
  List.iter
    (fun (it : Route.Router.iteration) ->
      Printf.bprintf b "pass %d pres %h pops %d ripped %d overflow %d\n"
        it.Route.Router.it_index it.Route.Router.it_pres_fac
        it.Route.Router.it_pops it.Route.Router.it_ripped
        it.Route.Router.it_overflow)
    r.Route.Router.negotiation;
  List.iter
    (fun seg ->
      Buffer.add_string b "rail:";
      points seg;
      Buffer.add_char b '\n')
    r.Route.Router.power;
  let s = r.Route.Router.occupancy in
  Printf.bprintf b "grid %d x %d\n" s.Route.Negotiate.Snapshot.cols
    s.Route.Negotiate.Snapshot.rows;
  Array.iter (Printf.bprintf b "%d ") s.Route.Negotiate.Snapshot.capacity;
  Buffer.add_char b '\n';
  Array.iter (Printf.bprintf b "%d ") s.Route.Negotiate.Snapshot.present;
  Buffer.add_char b '\n';
  Array.iter (Printf.bprintf b "%h ") s.Route.Negotiate.Snapshot.history;
  Buffer.add_char b '\n';
  let est =
    Route.Estimate.create placement.Placer.Placement.circuit
  in
  Printf.bprintf b "estimate %h\n" (Route.Estimate.score_placement est placement);
  (r.Route.Router.wirelength, Digest.to_hex (Digest.string (Buffer.contents b)))

(* E13's differential pair, placed exactly as the routing experiment
   places it: the one input where a mirrored pair fires *)
let e13_placement () =
  let circuit =
    Netlist.Circuit.make ~name:"dp"
      ~modules:
        [
          Netlist.Circuit.block ~name:"Ml" ~w:120 ~h:100;
          Netlist.Circuit.block ~name:"Mr" ~w:120 ~h:100;
          Netlist.Circuit.block ~name:"Mtail" ~w:140 ~h:100;
          Netlist.Circuit.block ~name:"Ll" ~w:80 ~h:80;
          Netlist.Circuit.block ~name:"Lr" ~w:80 ~h:80;
        ]
      ~nets:
        [
          Netlist.Net.make ~name:"outl" ~pins:[ 0; 3 ] ();
          Netlist.Net.make ~name:"outr" ~pins:[ 1; 4 ] ();
        ]
  in
  let grp =
    Constraints.Symmetry_group.make ~pairs:[ (0, 1); (3, 4) ] ~selfs:[ 2 ] ()
  in
  let out =
    Placer.Sa_seqpair.place ~groups:[ grp ] ~rng:(Prelude.Rng.create 3) circuit
  in
  (out.Placer.Sa_seqpair.placement, grp)

(* every triage outcome at once: a routable net, a single-pin net, a
   pinless net and a net on a module left unplaced *)
let triage_placement () =
  let circuit =
    Netlist.Circuit.make ~name:"triage"
      ~modules:
        [
          Netlist.Circuit.block ~name:"a" ~w:80 ~h:60;
          Netlist.Circuit.block ~name:"b" ~w:60 ~h:80;
          Netlist.Circuit.block ~name:"c" ~w:100 ~h:40;
          Netlist.Circuit.block ~name:"lost" ~w:40 ~h:40;
        ]
      ~nets:
        [
          Netlist.Net.make ~name:"ab" ~pins:[ 0; 1 ] ();
          Netlist.Net.make ~name:"solo" ~pins:[ 2 ] ();
          Netlist.Net.make ~name:"none" ~pins:[] ();
          Netlist.Net.make ~name:"stranded" ~pins:[ 0; 3 ] ();
          Netlist.Net.make ~name:"bc" ~pins:[ 1; 2 ] ~weight:2.0 ();
        ]
  in
  let place cell x y w h =
    Geometry.Transform.place ~cell ~x ~y ~w ~h ~orient:Geometry.Orientation.R0
  in
  Placer.Placement.make circuit
    [ place 0 0 0 80 60; place 1 200 40 60 80; place 2 60 260 100 40 ]

let esf_placement (b : Netlist.Benchmarks.bench) =
  let r =
    Shapefn.Combine.place ~mode:Shapefn.Combine.Esf b.Netlist.Benchmarks.circuit
      b.Netlist.Benchmarks.hierarchy
  in
  ( Placer.Placement.make b.Netlist.Benchmarks.circuit r.Shapefn.Combine.placed,
    Constraints.Symmetry_group.of_hierarchy b.Netlist.Benchmarks.hierarchy )

(* label, input, (wirelength, digest) *)
let pinned_routes =
  List.map
    (fun (b : Netlist.Benchmarks.bench) ->
      ( b.Netlist.Benchmarks.label,
        (fun () ->
          let pl, groups = esf_placement b in
          route_digest ~symmetric:groups pl),
        List.assoc b.Netlist.Benchmarks.label
          [
            ("Miller V2", (243, "520b5a2c44a9a0ae5e03dd5d58949ea1"));
            ("Comparator V2", (110, "f506ce144fd8249b0dff06541e947020"));
            ("Folded casc.", (542, "1a3fe7dbdeca5568968941b1c15e4e58"));
            ("Buffer", (1269, "9c2896b366c097f55e164ea679f429e8"));
            ("biasynth", (2601, "11678c4f71e87dfa7e1c1c018c5756e6"));
            ("lnamixbias", (4894, "cc0fd1ffa2470abf081a70b71bab7642"));
          ] ))
    (Netlist.Benchmarks.table1_suite ())
  @ [
      ( "E13 dp",
        (fun () ->
          let pl, grp = e13_placement () in
          route_digest ~symmetric:[ grp ] pl),
        (14, "33b37aed9f0d8759fcb85e51e41c6c02") );
      ( "triage",
        (fun () -> route_digest (triage_placement ())),
        (30, "3633506bfbb833e135b353971fbacd04") );
    ]

let check_pinned (run, (wl, digest)) () =
  let wl', digest' = run () in
  Alcotest.(check int) "wirelength" wl wl';
  Alcotest.(check string) "digest" digest digest'

let () =
  Alcotest.run "route"
    [
      ( "router",
        [
          Alcotest.test_case "mirrored routing" `Quick test_mirrored_routing;
          prop_twin_mirror;
          Alcotest.test_case "deterministic" `Quick test_route_deterministic;
          Alcotest.test_case "traced run bit-identical" `Quick
            test_traced_route_identical;
          Alcotest.test_case "negotiation log shape" `Quick
            test_negotiation_log_shape;
          Alcotest.test_case "occupancy snapshot" `Quick
            test_occupancy_snapshot;
          Alcotest.test_case "negotiation converges" `Quick
            test_negotiation_converges;
          Alcotest.test_case "estimate properties" `Quick
            test_estimate_properties;
          Alcotest.test_case "estimate over shared boxes" `Quick
            test_estimate_shared_boxes;
          Alcotest.test_case "within capacity" `Quick
            test_routes_within_capacity;
          Alcotest.test_case "random circuits" `Quick test_route_random_circuits;
          prop_search_optimal;
        ] );
      ( "pinned route digests",
        List.map
          (fun (name, run, expected) ->
            Alcotest.test_case name `Quick (check_pinned (run, expected)))
          pinned_routes );
    ]
