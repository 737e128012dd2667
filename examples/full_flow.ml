(* The whole pipeline on the survey's Fig. 2 design: HB*-tree placement
   with guard-ring halos, guard-ring generation for the proximity
   group, maze routing with mirrored differential nets, and a combined
   SVG.

     dune exec examples/full_flow.exe
*)

let () =
  let b = Netlist.Benchmarks.fig2_design () in
  let circuit = b.Netlist.Benchmarks.circuit in
  let hierarchy = b.Netlist.Benchmarks.hierarchy in
  let rng = Prelude.Rng.create 12 in

  (* 1. place, reserving room around the proximity group *)
  let halo = 35 in
  let placement =
    (Placer.Sa_hbstar.place ~halo ~rng circuit hierarchy).Placer.Sa_hbstar
      .placement
  in
  Printf.printf "placed: area %d, HPWL %.0f\n" (Placer.Placement.area placement)
    (Placer.Placement.hpwl placement);

  (* 2. guard rings around proximity groups *)
  let rings =
    Placer.Finishing.guard_rings ~clearance:8 ~thickness:16 placement hierarchy
  in
  List.iter
    (fun r ->
      Printf.printf "guard ring %s: %d segments, clear of other cells %b, \
                     sealed %b\n"
        r.Placer.Finishing.node
        (List.length r.Placer.Finishing.segments)
        r.Placer.Finishing.clear r.Placer.Finishing.sealed)
    rings;

  (* 3. route, mirroring the differential nets *)
  let groups = Constraints.Symmetry_group.of_hierarchy hierarchy in
  let pitch = 20 and margin = 4 in
  let result = Route.Router.route_all ~pitch ~margin ~symmetric:groups placement in
  Printf.printf "routing: %d routed, %d failed, %d mirrored pairs, \
                 wirelength %d tracks\n"
    (List.length result.Route.Router.routed)
    (List.length result.Route.Router.failed)
    (List.length result.Route.Router.mirrored_pairs)
    result.Route.Router.wirelength;

  (* 4. one SVG with everything *)
  let wires =
    List.map
      (fun r ->
        List.map
          (fun (c, row) -> ((c - margin) * pitch, (row - margin) * pitch))
          r.Route.Router.points)
      result.Route.Router.routed
  in
  let ring_rects =
    List.concat_map (fun r -> r.Placer.Finishing.segments) rings
  in
  Placer.Plot.write_svg_full ~path:"full_flow.svg" ~rings:ring_rects ~wires
    placement;
  print_endline "wrote full_flow.svg (cells + guard rings + routes)"
