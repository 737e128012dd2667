(* The survey's Fig. 2 layout-design hierarchy placed with HB*-trees:
   hierarchical symmetry (a differential pair, a self-symmetric cell
   and a nested common-centroid group sharing one axis, cf. Fig. 4),
   a proximity cluster sharing a well, and free cells.

     dune exec examples/hierarchical.exe
*)

let () =
  let b = Netlist.Benchmarks.fig2_design () in
  let circuit = b.Netlist.Benchmarks.circuit in
  let hierarchy = b.Netlist.Benchmarks.hierarchy in
  Format.printf "design hierarchy (cf. Fig. 2): %a@.@." Netlist.Hierarchy.pp
    hierarchy;

  let rng = Prelude.Rng.create 7 in
  let placement =
    (Placer.Sa_hbstar.place ~rng circuit hierarchy).Placer.Sa_hbstar.placement
  in
  print_string (Placer.Plot.ascii ~width:64 placement);
  Printf.printf "\narea %d   HPWL %.0f   dead space %d\n"
    (Placer.Placement.area placement)
    (Placer.Placement.hpwl placement)
    (Placer.Placement.dead_space placement);

  (* verify every constraint the hierarchy declares *)
  let placed = placement.Placer.Placement.placed in
  List.iter
    (fun (name, kind, members) ->
      match kind with
      | Netlist.Hierarchy.Symmetry ->
          () (* flat groups are checked below via of_hierarchy *)
      | Netlist.Hierarchy.Common_centroid ->
          Printf.printf "common-centroid %s: %b\n" name
            (Result.is_ok
               (Constraints.Placement_check.common_centroid ~members placed))
      | Netlist.Hierarchy.Proximity ->
          Printf.printf "proximity %s connected: %b\n" name
            (Result.is_ok
               (Constraints.Placement_check.proximity ~members placed))
      | Netlist.Hierarchy.Free -> ())
    (Netlist.Hierarchy.constraint_nodes hierarchy);
  List.iter
    (fun g ->
      match
        Constraints.Placement_check.symmetry ~group:g placed
      with
      | Ok axis2 ->
          Printf.printf "symmetry %s holds about x = %.1f\n"
            g.Constraints.Symmetry_group.name
            (float_of_int axis2 /. 2.0)
      | Error v ->
          Format.printf "symmetry %s VIOLATED: %a@."
            g.Constraints.Symmetry_group.name
            Constraints.Placement_check.pp_violation v)
    (Constraints.Symmetry_group.of_hierarchy hierarchy);
  Placer.Plot.write_svg ~path:"hierarchical.svg" placement;
  print_endline "wrote hierarchical.svg"
