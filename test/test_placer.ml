let small_params =
  {
    Anneal.Sa.initial_temperature = None;
    final_temperature = 1e-2;
    moves_per_round = 60;
    schedule = Anneal.Schedule.default;
    frozen_rounds = 4;
    max_rounds = 40;
  }

let tiny_circuit () =
  Netlist.Circuit.make ~name:"tiny"
    ~modules:
      [
        Netlist.Circuit.block ~name:"a" ~w:10 ~h:6;
        Netlist.Circuit.block ~name:"b" ~w:10 ~h:6;
        Netlist.Circuit.block ~name:"c" ~w:4 ~h:12;
        Netlist.Circuit.block ~name:"d" ~w:8 ~h:8;
        Netlist.Circuit.block ~name:"e" ~w:6 ~h:6;
      ]
    ~nets:
      [
        Netlist.Net.make ~name:"n1" ~pins:[ 0; 1 ] ();
        Netlist.Net.make ~name:"n2" ~pins:[ 2; 3; 4 ] ();
      ]

let test_validate () =
  let c = tiny_circuit () in
  let good =
    List.mapi
      (fun i (w, h) ->
        Geometry.Transform.place ~cell:i ~x:(i * 12) ~y:0 ~w ~h
          ~orient:Geometry.Orientation.R0)
      [ (10, 6); (10, 6); (4, 12); (8, 8); (6, 6) ]
  in
  Alcotest.(check bool) "valid placement accepted" true
    (Result.is_ok (Placer.Placement.validate (Placer.Placement.make c good)));
  let missing = List.tl good in
  Alcotest.(check bool) "missing module caught" true
    (Result.is_error
       (Placer.Placement.validate (Placer.Placement.make c missing)));
  let negative =
    Geometry.Transform.place ~cell:0 ~x:(-1) ~y:0 ~w:10 ~h:6
      ~orient:Geometry.Orientation.R0
    :: List.tl good
  in
  Alcotest.(check bool) "negative coordinate caught" true
    (Result.is_error
       (Placer.Placement.validate (Placer.Placement.make c negative)))

let test_metrics () =
  let c = tiny_circuit () in
  let placed =
    List.mapi
      (fun i (w, h) ->
        Geometry.Transform.place ~cell:i ~x:(i * 12) ~y:0 ~w ~h
          ~orient:Geometry.Orientation.R0)
      [ (10, 6); (10, 6); (4, 12); (8, 8); (6, 6) ]
  in
  let p = Placer.Placement.make c placed in
  Alcotest.(check int) "width" 54 (Placer.Placement.width p);
  Alcotest.(check int) "height" 12 (Placer.Placement.height p);
  Alcotest.(check bool) "hpwl positive" true (Placer.Placement.hpwl p > 0.0);
  Alcotest.(check bool) "dead space positive" true
    (Placer.Placement.dead_space p > 0)

let test_sa_seqpair_flat () =
  let rng = Prelude.Rng.create 1 in
  let out = Placer.Sa_seqpair.place ~params:small_params ~rng (tiny_circuit ()) in
  match Placer.Placement.validate out.Placer.Sa_seqpair.placement with
  | Ok () -> ()
  | Error m -> Alcotest.fail m

let test_sa_seqpair_symmetric () =
  let rng = Prelude.Rng.create 2 in
  let grp = Constraints.Symmetry_group.make ~pairs:[ (0, 1) ] ~selfs:[ 2 ] () in
  let out =
    Placer.Sa_seqpair.place ~params:small_params ~groups:[ grp ] ~rng
      (tiny_circuit ())
  in
  (match Placer.Placement.validate out.Placer.Sa_seqpair.placement with
  | Ok () -> ()
  | Error m -> Alcotest.fail m);
  match
    Constraints.Placement_check.symmetry ~group:grp
      out.Placer.Sa_seqpair.placement.Placer.Placement.placed
  with
  | Ok _ -> ()
  | Error v ->
      Alcotest.failf "SA result not symmetric: %a"
        Constraints.Placement_check.pp_violation v

let test_sa_bstar () =
  let rng = Prelude.Rng.create 3 in
  let out = Placer.Sa_bstar.place ~params:small_params ~rng (tiny_circuit ()) in
  match Placer.Placement.validate out.Placer.Sa_bstar.placement with
  | Ok () -> ()
  | Error m -> Alcotest.fail m

let test_slicing_normalized () =
  let open Placer.Slicing in
  Alcotest.(check bool) "valid" true
    (is_normalized [ Operand 0; Operand 1; V; Operand 2; H ]);
  Alcotest.(check bool) "balloting violated" false
    (is_normalized [ Operand 0; V; Operand 1; Operand 2; H ]);
  Alcotest.(check bool) "double operator" false
    (is_normalized [ Operand 0; Operand 1; V; Operand 2; V; V ]);
  Alcotest.(check bool) "adjacent same ops" false
    (is_normalized [ Operand 0; Operand 1; Operand 2; H; H ]);
  Alcotest.(check bool) "skewed chain with separating operand ok" true
    (is_normalized [ Operand 0; Operand 1; H; Operand 2; H ]);
  Alcotest.(check bool) "single operand" true (is_normalized [ Operand 0 ]);
  Alcotest.(check bool) "empty invalid" false (is_normalized [])

let test_slicing_place () =
  let rng = Prelude.Rng.create 4 in
  let out = Placer.Slicing.place ~params:small_params ~rng (tiny_circuit ()) in
  match Placer.Placement.validate out.Placer.Slicing.placement with
  | Ok () -> ()
  | Error m -> Alcotest.fail m

let test_sa_improves () =
  (* annealing should beat the un-annealed initial packing on average *)
  let c = Netlist.Benchmarks.synthetic ~label:"s" ~n:12 ~seed:77 in
  let rng = Prelude.Rng.create 5 in
  let out =
    Placer.Sa_seqpair.place ~params:small_params ~rng
      c.Netlist.Benchmarks.circuit
  in
  let total = Netlist.Circuit.total_module_area c.Netlist.Benchmarks.circuit in
  let usage =
    float_of_int (Placer.Placement.area out.Placer.Sa_seqpair.placement)
    /. float_of_int total
  in
  Alcotest.(check bool)
    (Printf.sprintf "area usage %.2f within 2x of ideal" usage)
    true (usage < 2.0)

let test_plot_ascii () =
  let c = tiny_circuit () in
  let placed =
    List.mapi
      (fun i (w, h) ->
        Geometry.Transform.place ~cell:i ~x:(i * 12) ~y:0 ~w ~h
          ~orient:Geometry.Orientation.R0)
      [ (10, 6); (10, 6); (4, 12); (8, 8); (6, 6) ]
  in
  let p = Placer.Placement.make c placed in
  let art = Placer.Plot.ascii ~width:40 p in
  Alcotest.(check bool) "non-empty" true (String.length art > 0);
  Alcotest.(check bool) "contains module glyph" true (String.contains art 'a');
  let svg = Placer.Plot.svg p in
  Alcotest.(check bool) "svg wellformed" true
    (String.length svg > 0
    && String.sub svg 0 4 = "<svg"
    && String.length svg >= 7
    && String.sub svg (String.length svg - 7) 6 = "</svg>")

let test_sa_absolute () =
  let rng = Prelude.Rng.create 6 in
  let out =
    Placer.Sa_absolute.place ~params:small_params ~rng (tiny_circuit ())
  in
  (* legalization must always produce a valid placement *)
  (match Placer.Placement.validate out.Placer.Sa_absolute.placement with
  | Ok () -> ()
  | Error m -> Alcotest.fail m);
  Alcotest.(check bool) "overlap reported non-negative" true
    (out.Placer.Sa_absolute.raw_overlap >= 0)

let prop_absolute_legalizes =
  QCheck.Test.make ~name:"absolute placer always legalizes" ~count:30
    QCheck.(pair small_int (int_range 2 10))
    (fun (seed, n) ->
      let b = Netlist.Benchmarks.synthetic ~label:"a" ~n ~seed in
      let rng = Prelude.Rng.create seed in
      let out =
        Placer.Sa_absolute.place ~params:small_params ~rng
          b.Netlist.Benchmarks.circuit
      in
      Result.is_ok (Placer.Placement.validate out.Placer.Sa_absolute.placement))

let test_compact_basics () =
  let c = tiny_circuit () in
  (* placement with obvious slack *)
  let placed =
    List.mapi
      (fun i (w, h) ->
        Geometry.Transform.place ~cell:i ~x:((i * 20) + 5) ~y:10 ~w ~h
          ~orient:Geometry.Orientation.R0)
      [ (10, 6); (10, 6); (4, 12); (8, 8); (6, 6) ]
  in
  let p = Placer.Placement.make c placed in
  let q = Placer.Compact.compact p in
  Alcotest.(check bool) "still valid" true
    (Result.is_ok (Placer.Placement.validate q));
  Alcotest.(check bool) "area shrank" true
    (Placer.Placement.area q < Placer.Placement.area p);
  Alcotest.(check bool) "relations preserved by x pass" true
    (Placer.Compact.preserves p (Placer.Compact.compact_x p));
  Alcotest.(check int) "row compacts to zero slack" 38
    (Placer.Placement.width (Placer.Compact.compact_x p))

let prop_compact_never_grows =
  QCheck.Test.make ~name:"compaction keeps validity, never grows" ~count:150
    QCheck.(pair small_int (int_range 2 15))
    (fun (seed, n) ->
      let rng = Prelude.Rng.create seed in
      let b = Netlist.Benchmarks.synthetic ~label:"c" ~n ~seed in
      let c = b.Netlist.Benchmarks.circuit in
      (* random valid placement from a random sequence-pair *)
      let sp = Seqpair.Sp.random rng n in
      (* spread it out to create slack *)
      let placed =
        List.map
          (fun (p : Geometry.Transform.placed) ->
            Geometry.Transform.translate p
              ~dx:(Prelude.Rng.int rng 40)
              ~dy:(Prelude.Rng.int rng 40))
          (Seqpair.Pack.pack sp (Netlist.Circuit.dims c))
      in
      let p = Placer.Placement.make c placed in
      if Result.is_error (Placer.Placement.validate p) then true
      else
        let q = Placer.Compact.compact p in
        Result.is_ok (Placer.Placement.validate q)
        && Placer.Placement.area q <= Placer.Placement.area p)

let test_finishing_well () =
  let rects =
    [
      Geometry.Rect.make ~x:10 ~y:10 ~w:20 ~h:10;
      Geometry.Rect.make ~x:30 ~y:10 ~w:10 ~h:25;
    ]
  in
  let well = Geometry.Guard_ring.well ~clearance:5 rects in
  Alcotest.(check bool) "nonempty" true (well <> []);
  (* every cell inside the well union *)
  (* well rects are disjoint, so summed intersections measure coverage *)
  List.iter
    (fun cell ->
      let inter =
        List.fold_left
          (fun acc w -> acc + Geometry.Rect.intersection_area cell w)
          0 well
      in
      Alcotest.(check int) "cell fully in well" (Geometry.Rect.area cell) inter)
    rects

let test_rect_of_index () =
  let c = tiny_circuit () in
  let sizes = [ (10, 6); (10, 6); (4, 12); (8, 8); (6, 6) ] in
  let placed =
    List.mapi
      (fun i (w, h) ->
        Geometry.Transform.place ~cell:i ~x:(i * 12) ~y:0 ~w ~h
          ~orient:Geometry.Orientation.R0)
      sizes
  in
  let p = Placer.Placement.make c placed in
  List.iteri
    (fun i (w, _) ->
      match Placer.Placement.rect_of p i with
      | Some r ->
          Alcotest.(check int) "x" (i * 12) r.Geometry.Rect.x;
          Alcotest.(check int) "w" w r.Geometry.Rect.w
      | None -> Alcotest.failf "cell %d not indexed" i)
    sizes;
  Alcotest.(check bool) "negative id" true
    (Placer.Placement.rect_of p (-1) = None);
  Alcotest.(check bool) "past the end" true
    (Placer.Placement.rect_of p 5 = None);
  (* partial placements leave the missing cells unindexed *)
  let partial = Placer.Placement.make c (List.tl placed) in
  Alcotest.(check bool) "unplaced cell" true
    (Placer.Placement.rect_of partial 0 = None)

(* The arena must agree with the list-based cost path to the last
   bit: both delegate to Cost.compose over identical coordinates. *)
let test_eval_cost_parity () =
  let b = Netlist.Benchmarks.synthetic ~label:"e" ~n:15 ~seed:21 in
  let c = b.Netlist.Benchmarks.circuit in
  let arena = Placer.Eval.create c in
  let weights = Placer.Cost.default in
  let rng = Prelude.Rng.create 9 in
  let n = Netlist.Circuit.size c in
  for _ = 1 to 50 do
    let sp = Seqpair.Sp.random rng n in
    let rot = Array.init n (fun _ -> Prelude.Rng.int rng 2 = 0) in
    let arena_cost = Placer.Eval.cost_seqpair arena weights sp ~rot in
    let dims cell =
      let w, h = Netlist.Circuit.dims c cell in
      if rot.(cell) then (h, w) else (w, h)
    in
    let reference =
      Placer.Cost.evaluate weights
        (Placer.Placement.make c (Seqpair.Pack.pack_fast sp dims))
    in
    Alcotest.(check (float 0.0)) "arena = list cost" reference arena_cost
  done

let test_eval_cost_parity_symmetric () =
  let c = tiny_circuit () in
  let grp = Constraints.Symmetry_group.make ~pairs:[ (0, 1) ] ~selfs:[ 2 ] () in
  let arena = Placer.Eval.create c in
  let weights = Placer.Cost.default in
  let rng = Prelude.Rng.create 10 in
  let n = Netlist.Circuit.size c in
  let plan = Seqpair.Symmetry.plan ~n [ grp ] in
  for _ = 1 to 50 do
    let sp = Seqpair.Symmetry.random_feasible rng ~n [ grp ] in
    let rot = Array.make n false in
    let arena_cost =
      Placer.Eval.cost_seqpair arena weights ~plan sp ~rot
    in
    let placed =
      match
        Seqpair.Symmetry.pack_symmetric sp (Netlist.Circuit.dims c) [ grp ]
      with
      | Ok placed -> placed
      | Error m -> Alcotest.fail m
    in
    let reference =
      Placer.Cost.evaluate weights (Placer.Placement.make c placed)
    in
    Alcotest.(check (float 0.0))
      "symmetric arena = list cost" reference arena_cost
  done

(* Minor words per cost query on the arena's two heaviest paths: a
   B*-tree pack scored with the RUDY estimate under a non-zero
   routability weight, and a symmetric sequence-pair pack. Both stay at
   a small constant whatever the circuit size -- the boxed cost and the
   optional-argument wrappers, never a per-cell or per-net buffer. *)
let test_eval_allocation () =
  let per_query f =
    ignore (f () : float);
    let k = 50 in
    let w0 = Gc.minor_words () in
    for _ = 1 to k do
      ignore (Sys.opaque_identity (f ()) : float)
    done;
    (Gc.minor_words () -. w0) /. float_of_int k
  in
  List.iter
    (fun n ->
      let b = Netlist.Benchmarks.synthetic ~label:"alloc" ~n ~seed:7 in
      let c = b.Netlist.Benchmarks.circuit in
      let rng = Prelude.Rng.create n in
      let rot = Array.make n false in
      let routed =
        let arena =
          Placer.Eval.create ~estimator:(Route.Estimate.estimator c ()) c
        in
        let weights =
          { Placer.Cost.default with Placer.Cost.routability = 60.0 }
        in
        let flat =
          Bstar.Flat.of_tree (Bstar.Tree.random rng (List.init n Fun.id))
        in
        per_query (fun () -> Placer.Eval.cost_bstar arena weights flat ~rot)
      in
      let groups =
        Constraints.Symmetry_group.of_hierarchy b.Netlist.Benchmarks.hierarchy
      in
      Alcotest.(check bool) "the circuit has symmetry groups" true (groups <> []);
      let symmetric =
        let arena = Placer.Eval.create c in
        let plan = Some (Seqpair.Symmetry.plan ~n groups) in
        let sp = Seqpair.Symmetry.random_feasible rng ~n groups in
        per_query (fun () ->
            Placer.Eval.cost_seqpair arena Placer.Cost.default ?plan sp ~rot)
      in
      List.iter
        (fun (what, words) ->
          if words > 32.0 then
            Alcotest.failf "%s query at n=%d allocates %.0f minor words" what n
              words)
        [ ("routed cost_bstar", routed); ("symmetric cost_seqpair", symmetric) ])
    [ 12; 30; 38 ]

let test_eval_cost_placed_parity () =
  let b = Netlist.Benchmarks.synthetic ~label:"p" ~n:12 ~seed:33 in
  let c = b.Netlist.Benchmarks.circuit in
  let arena = Placer.Eval.create c in
  let weights = Placer.Cost.default in
  let rng = Prelude.Rng.create 11 in
  let n = Netlist.Circuit.size c in
  for _ = 1 to 50 do
    let tree = Bstar.Tree.random rng (List.init n Fun.id) in
    let placed = Bstar.Tree.pack tree (Netlist.Circuit.dims c) in
    let arena_cost = Placer.Eval.cost_placed arena weights placed in
    let reference =
      Placer.Cost.evaluate weights (Placer.Placement.make c placed)
    in
    Alcotest.(check (float 0.0)) "placed arena = list cost" reference arena_cost
  done

let test_eval_cost_bstar_parity () =
  let b = Netlist.Benchmarks.synthetic ~label:"f" ~n:12 ~seed:44 in
  let c = b.Netlist.Benchmarks.circuit in
  let arena = Placer.Eval.create c in
  let weights = Placer.Cost.default in
  let rng = Prelude.Rng.create 12 in
  let n = Netlist.Circuit.size c in
  (* walk a flat tree through random O(1) perturbations so the parity
     covers annealing states, not just freshly converted trees *)
  let flat = Bstar.Flat.of_tree (Bstar.Tree.random rng (List.init n Fun.id)) in
  for _ = 1 to 50 do
    ignore (Bstar.Flat.perturb rng flat);
    let rot = Array.init n (fun _ -> Prelude.Rng.int rng 2 = 0) in
    let arena_cost = Placer.Eval.cost_bstar arena weights flat ~rot in
    let dims cell =
      let w, h = Netlist.Circuit.dims c cell in
      if rot.(cell) then (h, w) else (w, h)
    in
    let reference =
      Placer.Cost.evaluate weights
        (Placer.Placement.make c
           (Bstar.Tree.pack (Bstar.Flat.to_tree flat) dims))
    in
    Alcotest.(check (float 0.0)) "bstar arena = list cost" reference arena_cost
  done

let test_sa_seqpair_parallel () =
  let c = tiny_circuit () in
  let place workers =
    Placer.Sa_seqpair.place ~params:small_params ~workers ~chains:3
      ~rng:(Prelude.Rng.create 7) c
  in
  let a = place 1 and b = place 2 in
  Alcotest.(check (float 0.0))
    "worker count does not change the result" a.Placer.Sa_seqpair.cost
    b.Placer.Sa_seqpair.cost;
  (match Placer.Placement.validate a.Placer.Sa_seqpair.placement with
  | Ok () -> ()
  | Error m -> Alcotest.fail m);
  Alcotest.(check bool) "chains counted" true
    (a.Placer.Sa_seqpair.evaluated > 0)

let test_sa_bstar_parallel () =
  let c = tiny_circuit () in
  let place workers =
    Placer.Sa_bstar.place ~params:small_params ~workers ~chains:2
      ~rng:(Prelude.Rng.create 8) c
  in
  let a = place 1 and b = place 2 in
  Alcotest.(check (float 0.0))
    "worker count does not change the result" a.Placer.Sa_bstar.cost
    b.Placer.Sa_bstar.cost;
  match Placer.Placement.validate a.Placer.Sa_bstar.placement with
  | Ok () -> ()
  | Error m -> Alcotest.fail m

(* Symmetric multi-chain placement across two domains with the
   sanitizer on: validate:true audits symmetric feasibility of every
   barrier's best on the calling domain, so reaching the end means it
   held; the result does not depend on the width. *)
let test_sa_seqpair_symmetric_parallel () =
  let c = tiny_circuit () in
  let grp = Constraints.Symmetry_group.make ~pairs:[ (0, 1) ] ~selfs:[ 2 ] () in
  let place workers =
    Placer.Sa_seqpair.place ~params:small_params ~groups:[ grp ] ~chains:2
      ~workers ~validate:true
      ~rng:(Prelude.Rng.create 9) c
  in
  let a = place 1 and b = place 2 in
  Alcotest.(check (float 0.0))
    "worker count does not change the result" a.Placer.Sa_seqpair.cost
    b.Placer.Sa_seqpair.cost;
  match Placer.Placement.validate b.Placer.Sa_seqpair.placement with
  | Ok () -> ()
  | Error m -> Alcotest.fail m

let test_sa_tcg_parallel () =
  let c = tiny_circuit () in
  let place workers =
    Placer.Sa_tcg.place ~params:small_params ~workers ~chains:2
      ~rng:(Prelude.Rng.create 4) c
  in
  let a = place 1 and b = place 2 in
  Alcotest.(check (float 0.0))
    "worker count does not change the result" a.Placer.Sa_tcg.cost
    b.Placer.Sa_tcg.cost;
  (match Placer.Placement.validate a.Placer.Sa_tcg.placement with
  | Ok () -> ()
  | Error m -> Alcotest.fail m);
  (* the sanitizer audits every barrier's best and leaves the walk as
     it was *)
  let checked =
    Placer.Sa_tcg.place ~params:small_params ~chains:2 ~workers:2
      ~validate:true
      ~rng:(Prelude.Rng.create 4) c
  in
  Alcotest.(check (float 0.0))
    "validate does not change the result" b.Placer.Sa_tcg.cost
    checked.Placer.Sa_tcg.cost

(* The heterogeneous portfolio race. *)

(* Run [go workers] at one, two and four pool domains and require the
   same outcome each time: cost bits, winner, every entrant's seed,
   cost bits, rounds and evaluations, and the placed list. *)
let same_at_widths label go =
  let summary (o : Placer.Portfolio.outcome) =
    ( Placer.Portfolio.engine_name o.Placer.Portfolio.winner,
      List.map
        (fun (e : Placer.Portfolio.entrant) ->
          ( Placer.Portfolio.engine_name e.Placer.Portfolio.engine,
            e.Placer.Portfolio.seed,
            Int64.bits_of_float e.Placer.Portfolio.cost,
            e.Placer.Portfolio.sa_rounds,
            e.Placer.Portfolio.evaluated ))
        o.Placer.Portfolio.entrants,
      o.Placer.Portfolio.evaluated,
      o.Placer.Portfolio.placement.Placer.Placement.placed )
  in
  let base = go 1 in
  List.iter
    (fun workers ->
      let o = go workers in
      Alcotest.(check int64)
        (Printf.sprintf "%s: cost bits at %d workers" label workers)
        (Int64.bits_of_float base.Placer.Portfolio.cost)
        (Int64.bits_of_float o.Placer.Portfolio.cost);
      Alcotest.(check bool)
        (Printf.sprintf "%s: identical race at %d workers" label workers)
        true
        (summary base = summary o))
    [ 2; 4 ]

let test_portfolio_race () =
  let b = Netlist.Benchmarks.synthetic ~label:"pf" ~n:10 ~seed:55 in
  let c = b.Netlist.Benchmarks.circuit in
  let go workers =
    Placer.Portfolio.race ~params:small_params ~workers ~validate:true
      ~rng:(Prelude.Rng.create 13) c
  in
  let out = go 1 in
  (match Placer.Placement.validate out.Placer.Portfolio.placement with
  | Ok () -> ()
  | Error m -> Alcotest.fail m);
  (* n = 10, no groups, no hierarchy: sp, bstar and tcg all enter *)
  Alcotest.(check int) "three engines entered" 3
    (List.length out.Placer.Portfolio.entrants);
  let entrant_min =
    List.fold_left
      (fun acc (e : Placer.Portfolio.entrant) -> min acc e.Placer.Portfolio.cost)
      infinity out.Placer.Portfolio.entrants
  in
  Alcotest.(check (float 0.0))
    "outcome is the best entrant's cost" entrant_min out.Placer.Portfolio.cost;
  Alcotest.(check bool) "winner actually entered" true
    (List.exists
       (fun (e : Placer.Portfolio.entrant) ->
         e.Placer.Portfolio.engine = out.Placer.Portfolio.winner)
       out.Placer.Portfolio.entrants);
  Alcotest.(check bool) "evaluations counted" true
    (out.Placer.Portfolio.evaluated > 0);
  (* the race runs on the lockstep schedule: the outcome is a pure
     function of the caller seed at any pool width *)
  same_at_widths "flat" go

(* Flat SP/B*-tree/TCG at two chains each, a hierarchical circuit with
   the ESF entrant, and a symmetric circuit: each race reproduces bit
   for bit at one, two and four pool domains. *)
let test_portfolio_widths () =
  let flat =
    (Netlist.Benchmarks.synthetic ~label:"pw" ~n:10 ~seed:56)
      .Netlist.Benchmarks.circuit
  in
  same_at_widths "flat, two chains" (fun workers ->
      Placer.Portfolio.race ~params:small_params ~workers ~chains:2
        ~validate:true ~rng:(Prelude.Rng.create 14) flat);
  let fig2 = Netlist.Benchmarks.fig2_design () in
  same_at_widths "hierarchical with esf" (fun workers ->
      let out =
        Placer.Portfolio.race ~params:small_params ~workers ~validate:true
          ~hierarchy:fig2.Netlist.Benchmarks.hierarchy
          ~rng:(Prelude.Rng.create 15) fig2.Netlist.Benchmarks.circuit
      in
      Alcotest.(check bool) "esf entered" true
        (List.exists
           (fun (e : Placer.Portfolio.entrant) ->
             e.Placer.Portfolio.engine = Placer.Portfolio.Esf)
           out.Placer.Portfolio.entrants);
      out);
  let grp = Constraints.Symmetry_group.make ~pairs:[ (0, 1) ] ~selfs:[ 2 ] () in
  same_at_widths "symmetric" (fun workers ->
      Placer.Portfolio.race ~params:small_params ~groups:[ grp ] ~workers
        ~chains:2 ~validate:true ~rng:(Prelude.Rng.create 16)
        (tiny_circuit ()))

let test_portfolio_symmetric () =
  let c = tiny_circuit () in
  let grp = Constraints.Symmetry_group.make ~pairs:[ (0, 1) ] ~selfs:[ 2 ] () in
  let out =
    Placer.Portfolio.race ~params:small_params ~groups:[ grp ] ~workers:1
      ~chains:2 ~validate:true
      ~rng:(Prelude.Rng.create 21) c
  in
  (* with symmetry groups only the sequence-pair arm may enter by
     default — the other representations cannot hold the constraint *)
  Alcotest.(check int) "sp chains only" 2
    (List.length out.Placer.Portfolio.entrants);
  Alcotest.(check bool) "sp wins by default" true
    (out.Placer.Portfolio.winner = Placer.Portfolio.Sp);
  match Placer.Placement.validate out.Placer.Portfolio.placement with
  | Ok () -> ()
  | Error m -> Alcotest.fail m

(* The ESF entrant only enters a symmetric race when a hierarchy is
   given; a short race lets its one-shot placement lead, so the winner
   must still mirror every group exactly. *)
let test_portfolio_esf_symmetric () =
  let fig2 = Netlist.Benchmarks.fig2_design () in
  let c = fig2.Netlist.Benchmarks.circuit in
  let groups =
    Constraints.Symmetry_group.of_hierarchy fig2.Netlist.Benchmarks.hierarchy
  in
  let params =
    {
      (Anneal.Sa.default_params ~n:(Netlist.Circuit.size c)) with
      Anneal.Sa.max_rounds = 30;
    }
  in
  List.iter
    (fun seed ->
      let out =
        Placer.Portfolio.race ~params ~groups
          ~hierarchy:fig2.Netlist.Benchmarks.hierarchy ~workers:1
          ~rng:(Prelude.Rng.create seed) c
      in
      Alcotest.(check (list string))
        (Printf.sprintf "seed %d: winner verifies clean" seed)
        []
        (Analysis.Diagnostic.codes
           (Analysis.Verify.placement ~groups c
              out.Placer.Portfolio.placement.Placer.Placement.placed)))
    [ 1; 2; 3 ]

let test_portfolio_rejects_bad_configs () =
  let c = tiny_circuit () in
  Alcotest.check_raises "empty engine list"
    (Invalid_argument "Portfolio.race: empty engine list") (fun () ->
      ignore
        (Placer.Portfolio.race ~engines:[] ~rng:(Prelude.Rng.create 1) c));
  Alcotest.check_raises "Esf without hierarchy"
    (Invalid_argument "Portfolio.race: Esf entrant needs ?hierarchy") (fun () ->
      ignore
        (Placer.Portfolio.race ~params:small_params
           ~engines:[ Placer.Portfolio.Esf ]
           ~rng:(Prelude.Rng.create 1) c))

let prop_slicing_moves_normalized =
  QCheck.Test.make ~name:"slicing moves stay normalized" ~count:200
    QCheck.(pair (int_range 2 12) small_int)
    (fun (n, seed) ->
      let rng = Prelude.Rng.create seed in
      let expr = ref (Placer.Slicing.initial n) in
      let ok = ref (Placer.Slicing.is_normalized !expr) in
      for _ = 1 to 40 do
        expr := Placer.Slicing.neighbor rng !expr;
        if not (Placer.Slicing.is_normalized !expr) then ok := false
      done;
      !ok)

(* ---- the engine runner and Anneal.Parallel.multi_start ---- *)

(* Every engine through [Engine.run] places and costs exactly as its
   own entry point does on the same seed. *)
let test_engine_run () =
  let b = Netlist.Benchmarks.miller () in
  let circuit = b.Netlist.Benchmarks.circuit
  and hierarchy = b.Netlist.Benchmarks.hierarchy in
  let groups = Constraints.Symmetry_group.of_hierarchy hierarchy in
  let rng () = Prelude.Rng.create 1 in
  let one_shot placed =
    let p = Placer.Placement.make circuit placed in
    (placed, Placer.Cost.evaluate Placer.Cost.default p)
  in
  let of_outcome (o : Placer.Placement.outcome) =
    (o.Placer.Placement.placement.Placer.Placement.placed, o.Placer.Placement.cost)
  in
  let direct = function
    | Placer.Engine.Sp ->
        of_outcome (Placer.Sa_seqpair.place ~groups ~rng:(rng ()) circuit)
    | Bstar -> of_outcome (Placer.Sa_bstar.place ~rng:(rng ()) circuit)
    | Tcg -> of_outcome (Placer.Sa_tcg.place ~rng:(rng ()) circuit)
    | Slicing -> of_outcome (Placer.Slicing.place ~rng:(rng ()) circuit)
    | Hbstar ->
        of_outcome (Placer.Sa_hbstar.place ~rng:(rng ()) circuit hierarchy)
    | Esf ->
        one_shot
          (Shapefn.Combine.place ~mode:Shapefn.Combine.Esf circuit hierarchy)
            .Shapefn.Combine.placed
    | Rsf ->
        one_shot
          (Shapefn.Combine.place ~mode:Shapefn.Combine.Rsf circuit hierarchy)
            .Shapefn.Combine.placed
  in
  List.iter
    (fun e ->
      let name = Placer.Engine.name e in
      Alcotest.(check bool) (name ^ " name round-trips") true
        (Placer.Engine.of_string name = Some e);
      let placed, cost = direct e in
      let placed', cost' =
        of_outcome (Placer.Engine.run ~groups ~rng:(rng ()) e circuit hierarchy)
      in
      Alcotest.(check bool) (name ^ " same placed list") true (placed = placed');
      Alcotest.(check int64) (name ^ " same cost bits")
        (Int64.bits_of_float cost) (Int64.bits_of_float cost'))
    Placer.Engine.all;
  (* the HB* anneal minimizes the common cost: its best equals the
     list-path reference (miller declares no proximity group, so no
     penalty applies) *)
  let placed, cost = direct Placer.Engine.Hbstar in
  Alcotest.(check int64) "hbstar cost is Cost.evaluate"
    (Int64.bits_of_float cost)
    (Int64.bits_of_float (snd (one_shot placed)));
  Alcotest.(check bool) "seqpair alias" true
    (Placer.Engine.of_string "seqpair" = Some Placer.Engine.Sp);
  Alcotest.(check bool) "unknown engine" true
    (Placer.Engine.of_string "anneal" = None)

(* HB* through the engine runner records the annealing telemetry of
   every other annealed engine. *)
let test_hbstar_telemetry () =
  let b = Netlist.Benchmarks.fig2_design () in
  let telemetry = Telemetry.Sink.create () in
  let o =
    Placer.Engine.run ~telemetry ~rng:(Prelude.Rng.create 3)
      Placer.Engine.Hbstar b.Netlist.Benchmarks.circuit
      b.Netlist.Benchmarks.hierarchy
  in
  Alcotest.(check bool) "annealed" true
    (Placer.Engine.annealed Placer.Engine.Hbstar);
  let rounds =
    List.length
      (List.filter
         (fun (sp : Telemetry.Tracer.span) ->
           String.equal sp.Telemetry.Tracer.name "sa.round")
         (Telemetry.Sink.spans telemetry))
  in
  Alcotest.(check bool) "sa.round spans" true (rounds > 0);
  (* the arena also costs the temperature probe, which [evaluated]
     leaves out *)
  let costs = List.assoc "eval.costs" (Telemetry.Sink.counters telemetry) in
  Alcotest.(check bool) "every evaluation through the arena" true
    (o.Placer.Placement.evaluated > 0 && costs >= o.Placer.Placement.evaluated)

(* Every HB* move and the final state pass the Verify audit. *)
let test_hbstar_validate () =
  List.iter
    (fun (b : Netlist.Benchmarks.bench) ->
      let o =
        Placer.Sa_hbstar.place ~params:small_params ~validate:true
          ~rng:(Prelude.Rng.create 4) b.Netlist.Benchmarks.circuit
          b.Netlist.Benchmarks.hierarchy
      in
      Alcotest.(check bool) "annealed" true (o.Placer.Sa_hbstar.sa_rounds > 0))
    [ Netlist.Benchmarks.fig2_design (); Netlist.Benchmarks.miller () ]

(* The (workers, chains) multi_start reports: the width that ran, not
   the width asked for. *)
let test_multi_start_geometry () =
  let geometry ?workers ?chains () =
    let r =
      Anneal.Parallel.multi_start ?workers ?chains ~engine:"sp"
        ~rng:(Prelude.Rng.create 5) small_params
        (Placer.Sa_seqpair.problem_of ~weights:Placer.Cost.default ~groups:[]
           (tiny_circuit ()))
    in
    (r.Anneal.Parallel.workers, r.Anneal.Parallel.chains)
  in
  let pair = Alcotest.(pair int int) in
  Alcotest.check pair "single chain" (1, 1) (geometry ());
  Alcotest.check pair "2 workers, 3 chains" (2, 3)
    (geometry ~workers:2 ~chains:3 ());
  Alcotest.check pair "8 workers capped at 2 chains" (2, 2)
    (geometry ~workers:8 ~chains:2 ());
  Alcotest.check pair "4 chains on the default width"
    (min 4 (Anneal.Parallel.default_workers ()), 4)
    (geometry ~chains:4 ());
  let o =
    Placer.Sa_bstar.place ~params:small_params ~workers:8 ~chains:2
      ~rng:(Prelude.Rng.create 5) (tiny_circuit ())
  in
  Alcotest.check pair "placer outcome carries the geometry" (2, 2)
    (o.Placer.Sa_bstar.workers, o.Placer.Sa_bstar.chains)

let () =
  Alcotest.run "placer"
    [
      ( "placement",
        [
          Alcotest.test_case "validate" `Quick test_validate;
          Alcotest.test_case "metrics" `Quick test_metrics;
          Alcotest.test_case "rect_of index" `Quick test_rect_of_index;
        ] );
      ( "eval",
        [
          Alcotest.test_case "seqpair cost parity" `Quick test_eval_cost_parity;
          Alcotest.test_case "symmetric cost parity" `Quick
            test_eval_cost_parity_symmetric;
          Alcotest.test_case "allocation per query" `Quick
            test_eval_allocation;
          Alcotest.test_case "placed cost parity" `Quick
            test_eval_cost_placed_parity;
          Alcotest.test_case "bstar cost parity" `Quick
            test_eval_cost_bstar_parity;
        ] );
      ( "sa",
        [
          Alcotest.test_case "seqpair flat" `Quick test_sa_seqpair_flat;
          Alcotest.test_case "seqpair symmetric" `Quick test_sa_seqpair_symmetric;
          Alcotest.test_case "seqpair parallel" `Quick test_sa_seqpair_parallel;
          Alcotest.test_case "seqpair symmetric parallel" `Quick
            test_sa_seqpair_symmetric_parallel;
          Alcotest.test_case "bstar" `Quick test_sa_bstar;
          Alcotest.test_case "bstar parallel" `Quick test_sa_bstar_parallel;
          Alcotest.test_case "tcg parallel" `Quick test_sa_tcg_parallel;
          Alcotest.test_case "improves" `Quick test_sa_improves;
        ] );
      ( "portfolio",
        [
          Alcotest.test_case "race" `Quick test_portfolio_race;
          Alcotest.test_case "reproduces at any width" `Quick
            test_portfolio_widths;
          Alcotest.test_case "symmetric" `Quick test_portfolio_symmetric;
          Alcotest.test_case "esf under symmetry" `Quick
            test_portfolio_esf_symmetric;
          Alcotest.test_case "bad configs" `Quick
            test_portfolio_rejects_bad_configs;
        ] );
      ( "slicing",
        [
          Alcotest.test_case "normalized" `Quick test_slicing_normalized;
          Alcotest.test_case "place" `Quick test_slicing_place;
        ] );
      ( "engine",
        [
          Alcotest.test_case "run matches each placer" `Quick test_engine_run;
          Alcotest.test_case "hbstar telemetry" `Quick test_hbstar_telemetry;
          Alcotest.test_case "hbstar validate" `Quick test_hbstar_validate;
          Alcotest.test_case "multi-start geometry" `Quick
            test_multi_start_geometry;
        ] );
      ( "plot",
        [ Alcotest.test_case "ascii/svg" `Quick test_plot_ascii ] );
      ( "compact",
        [ Alcotest.test_case "basics" `Quick test_compact_basics ] );
      ( "absolute",
        [ Alcotest.test_case "legalizes" `Quick test_sa_absolute ] );
      ( "finishing",
        [ Alcotest.test_case "well generation" `Quick test_finishing_well ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_slicing_moves_normalized;
            prop_compact_never_grows;
            prop_absolute_legalizes;
          ] );
    ]
