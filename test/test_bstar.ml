open Bstar

let sorted_cells t = List.sort Int.compare (Tree.cells t)

let test_row_column () =
  let r = Tree.row [ 0; 1; 2 ] in
  let placed = Tree.pack r (fun _ -> (4, 3)) in
  List.iteri
    (fun i (p : Geometry.Transform.placed) ->
      Alcotest.(check int) "row x" (4 * i) p.Geometry.Transform.rect.Geometry.Rect.x;
      Alcotest.(check int) "row y" 0 p.Geometry.Transform.rect.Geometry.Rect.y)
    placed;
  let c = Tree.column [ 0; 1; 2 ] in
  let placed = Tree.pack c (fun _ -> (4, 3)) in
  List.iteri
    (fun i (p : Geometry.Transform.placed) ->
      Alcotest.(check int) "col x" 0 p.Geometry.Transform.rect.Geometry.Rect.x;
      Alcotest.(check int) "col y" (3 * i) p.Geometry.Transform.rect.Geometry.Rect.y)
    placed

let test_left_child_abuts () =
  (* root 10x5 with left child: child starts at x=10 *)
  let t =
    { Tree.cell = 0; left = Some (Tree.leaf 1); right = Some (Tree.leaf 2) }
  in
  let dims = function 0 -> (10, 5) | 1 -> (4, 4) | _ -> (6, 2) in
  let rects = Tree.pack_rects t dims in
  let r c = List.assoc c rects in
  Alcotest.(check int) "left child x" 10 (r 1).Geometry.Rect.x;
  Alcotest.(check int) "left child on ground" 0 (r 1).Geometry.Rect.y;
  Alcotest.(check int) "right child same x" 0 (r 2).Geometry.Rect.x;
  Alcotest.(check int) "right child above" 5 (r 2).Geometry.Rect.y

let test_contour_tuck () =
  (* a tall root, a short left child, then the root's right child can
     span over the short child only where the contour allows *)
  let t =
    {
      Tree.cell = 0;
      left = Some (Tree.leaf 1);
      right = Some (Tree.leaf 2);
    }
  in
  let dims = function 0 -> (5, 10) | 1 -> (5, 2) | _ -> (12, 3) in
  let rects = Tree.pack_rects t dims in
  let r c = List.assoc c rects in
  (* cell 2 spans x=0..12 over both; rests on max(10, 2) = 10 *)
  Alcotest.(check int) "rests on tallest" 10 (r 2).Geometry.Rect.y

let test_profile_valley () =
  (* a 10x6 macro that is 1 high over [0, 4) and 6 high over [4, 10):
     its right child settles into the valley, not onto the bounding box *)
  let t = { Tree.cell = 0; left = None; right = Some (Tree.leaf 1) } in
  let top =
    [ { Geometry.Contour.x0 = 0; x1 = 4; y = 1 }; { x0 = 4; x1 = 10; y = 6 } ]
  in
  let lookup top = function 0 -> (10, 6, top) | _ -> (3, 2, None) in
  let y1 top =
    (List.assoc 1 (Tree.pack_with_profiles t (lookup top))).Geometry.Rect.y
  in
  Alcotest.(check int) "in the valley" 1 (y1 (Some top));
  Alcotest.(check int) "flat top" 6 (y1 None)

let test_delete_insert_swap () =
  let rng = Prelude.Rng.create 2 in
  let t = Tree.random rng [ 0; 1; 2; 3; 4; 5 ] in
  let t' = Option.get (Tree.delete t 3) in
  Alcotest.(check (list int)) "delete removes" [ 0; 1; 2; 4; 5 ] (sorted_cells t');
  let t'' = Tree.insert_at t' ~cell:3 ~target:0 ~side:`Left in
  Alcotest.(check (list int)) "insert restores" [ 0; 1; 2; 3; 4; 5 ]
    (sorted_cells t'');
  let s = Tree.swap_cells t 0 5 in
  Alcotest.(check (list int)) "swap preserves set" (sorted_cells t) (sorted_cells s);
  Alcotest.(check bool) "delete to empty" true (Tree.delete (Tree.leaf 7) 7 = None)

let test_catalan () =
  let expect = [ 1; 1; 2; 5; 14; 42; 132; 429; 1430 ] in
  List.iteri
    (fun n c -> Alcotest.(check int) (Printf.sprintf "catalan %d" n) c (Count.catalan n))
    expect

let test_count_placements () =
  Alcotest.(check int) "survey's 8-module count" 57_657_600
    (Count.count_placements 8)

let test_enumerate_sizes () =
  for n = 1 to 4 do
    Alcotest.(check int)
      (Printf.sprintf "shapes %d" n)
      (Count.catalan n)
      (List.length (Count.enumerate_shapes n));
    let trees = Count.enumerate_trees (List.init n Fun.id) in
    Alcotest.(check int)
      (Printf.sprintf "trees %d" n)
      (Count.count_placements n)
      (List.length trees);
    (* all distinct *)
    let rec distinct = function
      | [] -> true
      | t :: rest -> (not (List.exists (Tree.equal t) rest)) && distinct rest
    in
    Alcotest.(check bool) "distinct" true (distinct trees)
  done

let test_centroid_patterns () =
  let dims _ = (6, 4) in
  (* even *)
  (match Centroid.place ~cells:[ 0; 1; 2; 3 ] dims with
  | Error m -> Alcotest.fail m
  | Ok placed ->
      Alcotest.(check bool) "even point-symmetric" true
        (Result.is_ok
           (Constraints.Placement_check.common_centroid
              ~members:[ 0; 1; 2; 3 ] placed));
      Alcotest.(check bool) "even overlap-free" true
        (Result.is_ok (Constraints.Placement_check.overlap_free placed)));
  (* odd *)
  (match Centroid.place ~cells:[ 0; 1; 2 ] dims with
  | Error m -> Alcotest.fail m
  | Ok placed ->
      Alcotest.(check bool) "odd point-symmetric" true
        (Result.is_ok
           (Constraints.Placement_check.common_centroid ~members:[ 0; 1; 2 ]
              placed)));
  (* mismatched sizes rejected *)
  let dims c = if c = 0 then (6, 4) else (5, 4) in
  match Centroid.place ~cells:[ 0; 1 ] dims with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "mismatch accepted"

let test_interdigitated () =
  let check ?(expect_units = None) counts =
    match Centroid.interdigitated ~counts ~unit_w:10 ~unit_h:8 with
    | Error m -> Alcotest.fail m
    | Ok units ->
        (match expect_units with
        | Some n -> Alcotest.(check int) "unit count" n (List.length units)
        | None -> ());
        (match Constraints.Placement_check.common_centroid_units units with
        | Ok () -> ()
        | Error v ->
            Alcotest.failf "units: %a" Constraints.Placement_check.pp_violation
              v);
        (* every owner got its units *)
        List.iter
          (fun (o, k) ->
            let mine =
              List.length (List.filter (fun (o', _) -> o' = o) units)
            in
            Alcotest.(check bool)
              (Printf.sprintf "owner %d units" o)
              true
              (mine = k || mine = 2 * k (* parity refinement *)))
          counts
  in
  (* the Miller bias mirror 1:2:2 *)
  check ~expect_units:(Some 5) [ (0, 1); (1, 2); (2, 2) ];
  (* classic ABBA *)
  check ~expect_units:(Some 4) [ (0, 2); (1, 2) ];
  (* a single odd owner holds the middle of an odd total: feasible as-is *)
  check ~expect_units:(Some 3) [ (0, 1); (1, 2) ];
  (* two odd owners force refinement into 2x units *)
  check ~expect_units:(Some 4) [ (0, 1); (1, 1) ];
  (* larger two-row pattern *)
  check ~expect_units:(Some 12) [ (0, 4); (1, 6); (2, 2) ];
  (* degenerate: single owner *)
  check ~expect_units:(Some 2) [ (7, 2) ];
  (* invalid input *)
  match Centroid.interdigitated ~counts:[ (0, 0) ] ~unit_w:10 ~unit_h:8 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "zero count accepted"

let test_interdigitated_pattern_shape () =
  (* the 1:2:2 pattern must put the odd device exactly in the middle *)
  match
    Centroid.interdigitated ~counts:[ (0, 1); (1, 2); (2, 2) ] ~unit_w:10
      ~unit_h:8
  with
  | Error m -> Alcotest.fail m
  | Ok units ->
      let sorted =
        List.sort
          (fun (_, (a : Geometry.Rect.t)) (_, b) ->
            Int.compare a.Geometry.Rect.x b.Geometry.Rect.x)
          units
      in
      let owners = List.map fst sorted in
      (match owners with
      | [ _; _; middle; _; _ ] ->
          Alcotest.(check int) "odd owner centered" 0 middle
      | _ -> Alcotest.fail "expected 5 units");
      (* palindromic owner sequence *)
      Alcotest.(check (list int)) "palindrome" owners (List.rev owners)

let arb_tree_dims =
  let gen =
    QCheck.Gen.(
      int_range 1 20 >>= fun n ->
      int_bound 1_000_000 >>= fun seed ->
      let rng = Prelude.Rng.create seed in
      let t = Tree.random rng (List.init n Fun.id) in
      let dims =
        Array.init n (fun _ ->
            (1 + Prelude.Rng.int rng 30, 1 + Prelude.Rng.int rng 30))
      in
      return (t, dims))
  in
  QCheck.make gen

let prop_pack_overlap_free =
  QCheck.Test.make ~name:"pack overlap-free" ~count:300 arb_tree_dims
    (fun (t, d) ->
      Result.is_ok
        (Constraints.Placement_check.overlap_free (Tree.pack t (fun c -> d.(c)))))

let prop_root_at_origin =
  QCheck.Test.make ~name:"root at origin" ~count:300 arb_tree_dims
    (fun (t, d) ->
      match Tree.pack t (fun c -> d.(c)) with
      | root :: _ ->
          root.Geometry.Transform.rect.Geometry.Rect.x = 0
          && root.Geometry.Transform.rect.Geometry.Rect.y = 0
      | [] -> false)

let prop_perturb_preserves_cells =
  QCheck.Test.make ~name:"perturb preserves cell set" ~count:300
    QCheck.(pair (int_range 1 15) small_int)
    (fun (n, seed) ->
      let rng = Prelude.Rng.create seed in
      let t = ref (Tree.random rng (List.init n Fun.id)) in
      let expected = List.init n Fun.id in
      let ok = ref true in
      for _ = 1 to 30 do
        t := Perturb.random rng !t;
        if sorted_cells !t <> expected then ok := false
      done;
      !ok)

(* flat-array trees *)

let test_nth_cell () =
  let rng = Prelude.Rng.create 5 in
  let t = Tree.random rng (List.init 9 Fun.id) in
  let cs = Tree.cells t in
  Alcotest.(check int) "size agrees" (List.length cs) (Tree.size t);
  List.iteri
    (fun i c -> Alcotest.(check int) "nth_cell agrees" c (Tree.nth_cell t i))
    cs;
  List.iter
    (fun c -> Alcotest.(check bool) "mem" true (Tree.mem t c))
    cs;
  Alcotest.(check bool) "not mem" false (Tree.mem t 9)

let prop_flat_roundtrip =
  QCheck.Test.make ~name:"flat round-trip identity" ~count:300 arb_tree_dims
    (fun (t, _) -> Tree.equal t (Flat.to_tree (Flat.of_tree t)))

let prop_flat_pack_matches =
  QCheck.Test.make ~name:"pack_into coordinates = pack (flat and pointer)"
    ~count:300 arb_tree_dims
    (fun (t, d) ->
      let n = Array.length d in
      let w = Array.map fst d and h = Array.map snd d in
      let xf = Array.make n (-1) and yf = Array.make n (-1) in
      let contour = Geometry.Contour.scratch ((2 * n) + 1) in
      Flat.pack_into (Flat.of_tree t) contour ~w ~h ~x:xf ~y:yf;
      List.for_all
        (fun (c, (r : Geometry.Rect.t)) ->
          xf.(c) = r.Geometry.Rect.x && yf.(c) = r.Geometry.Rect.y)
        (Tree.pack_rects t (fun c -> d.(c))))

(* An O(n^2) skyline that shares no code with the contour: walk the
   tree in pre-order (node, left subtree, right subtree), place each
   cell at its B*-tree x (the root at 0, a left child at its parent's
   right edge, a right child at its parent's x) and rest it on the
   highest top among the cells dropped before it whose x-interval
   overlaps its own (an empty interval, width 0, overlaps nothing). *)
let skyline_oracle flat ~w ~h =
  let n = Flat.size flat in
  let x = Array.make n 0 and y = Array.make n 0 in
  let dropped = ref [] in
  let rec visit m cx =
    let c = Flat.cell_at flat m in
    let rest =
      List.fold_left
        (fun acc d ->
          let overlaps =
            w.(c) > 0 && w.(d) > 0 && cx < x.(d) + w.(d) && x.(d) < cx + w.(c)
          in
          if overlaps then Int.max acc (y.(d) + h.(d)) else acc)
        0 !dropped
    in
    x.(c) <- cx;
    y.(c) <- rest;
    dropped := c :: !dropped;
    let l = Flat.left_of flat m and r = Flat.right_of flat m in
    if l >= 0 then visit l (cx + w.(c));
    if r >= 0 then visit r cx
  in
  visit (Flat.root flat) 0;
  (x, y)

let prop_flat_pack_skyline =
  QCheck.Test.make ~name:"pack_into coordinates = brute-force skyline"
    ~count:200
    QCheck.(triple (int_range 1 120) small_int bool)
    (fun (n, seed, zeros) ->
      let rng = Prelude.Rng.create seed in
      let flat = Flat.of_tree (Tree.random rng (List.init n Fun.id)) in
      (* with [zeros], about one cell in eight has width or height 0 *)
      let dim () =
        if zeros && Prelude.Rng.int rng 8 = 0 then 0 else 1 + Prelude.Rng.int rng 20
      in
      let w = Array.init n (fun _ -> dim ()) and h = Array.init n (fun _ -> dim ()) in
      let x = Array.make n (-1) and y = Array.make n (-1) in
      let contour = Geometry.Contour.scratch 4 in
      let ok = ref true in
      (* perturbed trees number their nodes out of pre-order, and the
         scratch is reused across packs *)
      for _ = 1 to 5 do
        for _ = 1 to 10 do
          ignore (Flat.perturb rng flat)
        done;
        Flat.pack_into flat contour ~w ~h ~x ~y;
        let xo, yo = skyline_oracle flat ~w ~h in
        if x <> xo || y <> yo then ok := false
      done;
      !ok)

let prop_flat_perturb_undo =
  QCheck.Test.make ~name:"perturb+undo restores the flat tree exactly"
    ~count:300
    QCheck.(pair (int_range 1 15) small_int)
    (fun (n, seed) ->
      let rng = Prelude.Rng.create seed in
      let flat = Flat.of_tree (Tree.random rng (List.init n Fun.id)) in
      let ok = ref true in
      for _ = 1 to 30 do
        let snapshot = Flat.copy flat in
        let u = Flat.perturb rng flat in
        Flat.undo flat u;
        if not (Flat.equal snapshot flat) then ok := false;
        (* advance the walk so later iterations test fresh shapes *)
        ignore (Flat.perturb rng flat)
      done;
      !ok)

let prop_flat_perturb_well_formed =
  QCheck.Test.make ~name:"perturbed flat trees stay well-formed" ~count:200
    QCheck.(pair (int_range 1 15) small_int)
    (fun (n, seed) ->
      let rng = Prelude.Rng.create seed in
      let flat = Flat.of_tree (Tree.random rng (List.init n Fun.id)) in
      for _ = 1 to 40 do
        ignore (Flat.perturb rng flat)
      done;
      Analysis.Invariant.check_flat flat = []
      && List.sort Int.compare (Tree.cells (Flat.to_tree flat))
         = List.init n Fun.id)

let () =
  Alcotest.run "bstar"
    [
      ( "pack",
        [
          Alcotest.test_case "row/column" `Quick test_row_column;
          Alcotest.test_case "children semantics" `Quick test_left_child_abuts;
          Alcotest.test_case "contour" `Quick test_contour_tuck;
          Alcotest.test_case "profile valley" `Quick test_profile_valley;
        ] );
      ( "edit",
        [
          Alcotest.test_case "delete/insert/swap" `Quick test_delete_insert_swap;
          Alcotest.test_case "nth_cell/size/mem" `Quick test_nth_cell;
        ] );
      ( "count",
        [
          Alcotest.test_case "catalan" `Quick test_catalan;
          Alcotest.test_case "8-module count" `Quick test_count_placements;
          Alcotest.test_case "enumerations" `Quick test_enumerate_sizes;
        ] );
      ( "centroid",
        [
          Alcotest.test_case "patterns" `Quick test_centroid_patterns;
          Alcotest.test_case "interdigitated" `Quick test_interdigitated;
          Alcotest.test_case "pattern shape" `Quick
            test_interdigitated_pattern_shape;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_pack_overlap_free;
            prop_root_at_origin;
            prop_perturb_preserves_cells;
            prop_flat_roundtrip;
            prop_flat_pack_matches;
            prop_flat_pack_skyline;
            prop_flat_perturb_undo;
            prop_flat_perturb_well_formed;
          ] );
    ]
