(* The survey's Fig. 6 Miller op amp, end to end: netlist -> automatic
   hierarchy -> both placement engines (deterministic enhanced-shape-
   function and annealed HB*-tree) -> SVG.

     dune exec examples/miller.exe
*)

let () =
  let b = Netlist.Benchmarks.miller () in
  let circuit = b.Netlist.Benchmarks.circuit in
  let hierarchy = b.Netlist.Benchmarks.hierarchy in
  Format.printf "netlist:@.%s@." Netlist.Benchmarks.miller_netlist;
  Format.printf "recognized hierarchy (cf. Fig. 6): %a@.@." Netlist.Hierarchy.pp
    hierarchy;

  (* deterministic placement (survey SIV) *)
  let det = Shapefn.Combine.place ~mode:Shapefn.Combine.Esf circuit hierarchy in
  let det_placement = Placer.Placement.make circuit det.Shapefn.Combine.placed in
  Printf.printf "deterministic ESF placement: area usage %.2f%% in %.3fs\n"
    det.Shapefn.Combine.area_usage det.Shapefn.Combine.seconds;
  print_string (Placer.Plot.ascii ~width:60
       ~labels:(Placer.Plot.device_labels det_placement) det_placement);
  Placer.Plot.write_svg ~path:"miller_esf.svg" det_placement;

  (* annealed HB*-tree placement (survey SIII) *)
  let rng = Prelude.Rng.create 11 in
  let hb = Placer.Sa_hbstar.place ~rng circuit hierarchy in
  let hb_placement = hb.Placer.Sa_hbstar.placement in
  Printf.printf "\nHB*-tree placement: area %d, HPWL %.0f, %d SA rounds\n"
    (Placer.Placement.area hb_placement)
    (Placer.Placement.hpwl hb_placement)
    hb.Placer.Sa_hbstar.sa_rounds;
  print_string (Placer.Plot.ascii ~width:60
       ~labels:(Placer.Plot.device_labels hb_placement) hb_placement);
  Placer.Plot.write_svg ~path:"miller_hbstar.svg" hb_placement;

  (* the differential pair must be mirror-symmetric in both flows *)
  let groups = Constraints.Symmetry_group.of_hierarchy hierarchy in
  List.iter
    (fun g ->
      Printf.printf "group %s symmetric: ESF %b / HB* %b\n"
        g.Constraints.Symmetry_group.name
        (Result.is_ok
           (Constraints.Placement_check.symmetry ~group:g
              det.Shapefn.Combine.placed))
        (Result.is_ok
           (Constraints.Placement_check.symmetry ~group:g
              hb_placement.Placer.Placement.placed)))
    groups;
  print_endline "wrote miller_esf.svg and miller_hbstar.svg"
