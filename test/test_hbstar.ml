module H = Netlist.Hierarchy
module Check = Constraints.Placement_check

let small_params =
  {
    Anneal.Sa.initial_temperature = None;
    final_temperature = 1e-2;
    moves_per_round = 60;
    schedule = Anneal.Schedule.default;
    frozen_rounds = 4;
    max_rounds = 40;
  }

let placed_of (o : Placer.Sa_hbstar.outcome) =
  o.Placer.Sa_hbstar.placement.Placer.Placement.placed

let test_fig2_constraints () =
  let b = Netlist.Benchmarks.fig2_design () in
  let rng = Prelude.Rng.create 42 in
  let placed =
    placed_of
      (Placer.Sa_hbstar.place ~params:small_params ~rng
         b.Netlist.Benchmarks.circuit b.Netlist.Benchmarks.hierarchy)
  in
  (match Check.overlap_free placed with
  | Ok () -> ()
  | Error v -> Alcotest.failf "overlap: %a" Check.pp_violation v);
  (* all 11 modules placed *)
  Alcotest.(check int) "all modules" 11 (List.length placed);
  (* the hierarchical symmetry group D,E (+A self) holds *)
  let groups = Constraints.Symmetry_group.of_hierarchy b.Netlist.Benchmarks.hierarchy in
  List.iter
    (fun g ->
      match Check.symmetry ~group:g placed with
      | Ok _ -> ()
      | Error v -> Alcotest.failf "symmetry: %a" Check.pp_violation v)
    groups;
  (* common-centroid {H, I} *)
  (match Check.common_centroid ~members:[ 7; 8 ] placed with
  | Ok () -> ()
  | Error v -> Alcotest.failf "centroid: %a" Check.pp_violation v);
  (* proximity {G, J, K} is connected in the annealed result *)
  match Check.proximity ~members:[ 6; 9; 10 ] placed with
  | Ok () -> ()
  | Error v -> Alcotest.failf "proximity: %a" Check.pp_violation v

let test_pack_deterministic () =
  let b = Netlist.Benchmarks.fig2_design () in
  let st =
    Bstar.Hbstar.initial (Prelude.Rng.create 1) b.Netlist.Benchmarks.circuit
      b.Netlist.Benchmarks.hierarchy
  in
  Alcotest.(check bool) "same state packs identically" true
    (Bstar.Hbstar.pack st = Bstar.Hbstar.pack st)

let test_perturb_keeps_validity () =
  let b = Netlist.Benchmarks.fig2_design () in
  let rng = Prelude.Rng.create 11 in
  let st =
    ref
      (Bstar.Hbstar.initial rng b.Netlist.Benchmarks.circuit
         b.Netlist.Benchmarks.hierarchy)
  in
  for _ = 1 to 100 do
    st := Bstar.Hbstar.perturb rng !st;
    let placed = Bstar.Hbstar.pack !st in
    (match Check.overlap_free placed with
    | Ok () -> ()
    | Error v -> Alcotest.failf "overlap after perturb: %a" Check.pp_violation v);
    Alcotest.(check int) "module count stable" 11 (List.length placed)
  done

let test_miller_place () =
  let b = Netlist.Benchmarks.miller () in
  let rng = Prelude.Rng.create 3 in
  let placed =
    placed_of
      (Placer.Sa_hbstar.place ~params:small_params ~rng
         b.Netlist.Benchmarks.circuit b.Netlist.Benchmarks.hierarchy)
  in
  Alcotest.(check int) "9 modules" 9 (List.length placed);
  Alcotest.(check bool) "overlap-free" true
    (Result.is_ok (Check.overlap_free placed));
  (* DP symmetry from recognition must hold in the placement *)
  let groups =
    Constraints.Symmetry_group.of_hierarchy b.Netlist.Benchmarks.hierarchy
  in
  Alcotest.(check bool) "at least one group" true (groups <> []);
  List.iter
    (fun g ->
      match Check.symmetry ~group:g placed with
      | Ok _ -> ()
      | Error v -> Alcotest.failf "miller symmetry: %a" Check.pp_violation v)
    groups

let test_synthetic_designs () =
  let rng = Prelude.Rng.create 8 in
  List.iter
    (fun seed ->
      let b = Netlist.Benchmarks.synthetic ~label:"t" ~n:18 ~seed in
      let st =
        Bstar.Hbstar.initial rng b.Netlist.Benchmarks.circuit
          b.Netlist.Benchmarks.hierarchy
      in
      let placed = Bstar.Hbstar.pack st in
      Alcotest.(check int) "all placed" 18 (List.length placed);
      Alcotest.(check bool) "overlap-free" true
        (Result.is_ok (Check.overlap_free placed)))
    [ 1; 2; 3; 4; 5 ]

let test_leaf_hierarchy () =
  let c =
    Netlist.Circuit.make ~name:"one"
      ~modules:[ Netlist.Circuit.block ~name:"m" ~w:10 ~h:5 ]
      ~nets:[]
  in
  let st = Bstar.Hbstar.initial (Prelude.Rng.create 0) c (H.Leaf 0) in
  Alcotest.(check int) "single module" 1 (List.length (Bstar.Hbstar.pack st))

let test_invalid_hierarchy_rejected () =
  let c =
    Netlist.Circuit.make ~name:"two"
      ~modules:
        [
          Netlist.Circuit.block ~name:"a" ~w:10 ~h:5;
          Netlist.Circuit.block ~name:"b" ~w:10 ~h:5;
        ]
      ~nets:[]
  in
  match Bstar.Hbstar.initial (Prelude.Rng.create 0) c (H.Leaf 0) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "incomplete hierarchy accepted"

let test_halo_makes_rings_clear () =
  let b = Netlist.Benchmarks.fig2_design () in
  let rng = Prelude.Rng.create 21 in
  let placement =
    (Placer.Sa_hbstar.place ~params:small_params ~halo:40 ~rng
       b.Netlist.Benchmarks.circuit b.Netlist.Benchmarks.hierarchy)
      .Placer.Sa_hbstar.placement
  in
  (match Placer.Placement.validate placement with
  | Ok () -> ()
  | Error m -> Alcotest.fail m);
  let rings =
    Placer.Finishing.guard_rings ~clearance:10 ~thickness:20 placement
      b.Netlist.Benchmarks.hierarchy
  in
  Alcotest.(check int) "one proximity ring" 1 (List.length rings);
  List.iter
    (fun r ->
      Alcotest.(check bool) "sealed" true r.Placer.Finishing.sealed;
      Alcotest.(check bool) "clear with halo" true r.Placer.Finishing.clear)
    rings

let () =
  Alcotest.run "hbstar"
    [
      ( "fig2",
        [
          Alcotest.test_case "constraints hold" `Slow test_fig2_constraints;
          Alcotest.test_case "deterministic pack" `Quick test_pack_deterministic;
          Alcotest.test_case "perturb validity" `Quick test_perturb_keeps_validity;
        ] );
      ( "circuits",
        [
          Alcotest.test_case "miller" `Slow test_miller_place;
          Alcotest.test_case "synthetic" `Quick test_synthetic_designs;
          Alcotest.test_case "single leaf" `Quick test_leaf_hierarchy;
          Alcotest.test_case "invalid hierarchy" `Quick
            test_invalid_hierarchy_rejected;
        ] );
      ( "finishing",
        [
          Alcotest.test_case "halo + guard rings" `Slow
            test_halo_makes_rings_clear;
        ] );
    ]
