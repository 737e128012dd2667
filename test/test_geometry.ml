open Geometry

let rect = Alcotest.testable Rect.pp Rect.equal

let test_interval_basics () =
  let i = Interval.make 2 7 in
  Alcotest.(check int) "length" 5 (Interval.length i);
  Alcotest.(check bool) "contains lo" true (Interval.contains i 2);
  Alcotest.(check bool) "excludes hi" false (Interval.contains i 7);
  Alcotest.(check bool) "touching do not overlap" false
    (Interval.overlaps i (Interval.make 7 9));
  Alcotest.(check bool) "proper overlap" true
    (Interval.overlaps i (Interval.make 6 9));
  Alcotest.(check int) "intersect length" 1
    (Interval.length (Interval.intersect i (Interval.make 6 9)));
  Alcotest.(check bool) "empty intersect" true
    (Interval.is_empty (Interval.intersect i (Interval.make 9 12)))

let test_interval_mirror () =
  let i = Interval.make 2 7 in
  let m = Interval.mirror ~axis2:10 i in
  Alcotest.(check int) "mirror lo" 3 m.Interval.lo;
  Alcotest.(check int) "mirror hi" 8 m.Interval.hi;
  Alcotest.(check bool) "involutive" true
    (Interval.equal i (Interval.mirror ~axis2:10 m))

let test_interval_hull () =
  let h = Interval.hull (Interval.make 1 3) (Interval.make 8 9) in
  Alcotest.(check int) "hull lo" 1 h.Interval.lo;
  Alcotest.(check int) "hull hi" 9 h.Interval.hi;
  Alcotest.(check bool) "empty neutral" true
    (Interval.equal (Interval.make 1 3)
       (Interval.hull (Interval.make 1 3) Interval.empty))

let test_rect_overlap () =
  let a = Rect.make ~x:0 ~y:0 ~w:10 ~h:10 in
  let b = Rect.make ~x:10 ~y:0 ~w:5 ~h:5 in
  Alcotest.(check bool) "edge-touching no overlap" false (Rect.overlaps a b);
  let c = Rect.make ~x:9 ~y:9 ~w:3 ~h:3 in
  Alcotest.(check bool) "corner overlap" true (Rect.overlaps a c);
  Alcotest.(check int) "intersection area" 1 (Rect.intersection_area a c)

let test_rect_mirror () =
  let a = Rect.make ~x:3 ~y:1 ~w:4 ~h:2 in
  let m = Rect.mirror_y ~axis2:20 a in
  Alcotest.(check int) "mirrored x" 13 m.Rect.x;
  Alcotest.(check rect) "involutive" a (Rect.mirror_y ~axis2:20 m);
  (* a cell ending at the axis maps to a cell starting at it *)
  let touching = Rect.make ~x:6 ~y:0 ~w:4 ~h:1 in
  let m = Rect.mirror_y ~axis2:20 touching in
  Alcotest.(check int) "axis-adjacent" 10 m.Rect.x

let test_rect_bbox () =
  let a = Rect.make ~x:1 ~y:1 ~w:2 ~h:2 in
  let b = Rect.make ~x:5 ~y:0 ~w:1 ~h:6 in
  let bb = Rect.bbox a b in
  Alcotest.(check rect) "bbox" (Rect.make ~x:1 ~y:0 ~w:5 ~h:6) bb;
  Alcotest.(check rect) "degenerate neutral" a
    (Rect.bbox a (Rect.make ~x:100 ~y:100 ~w:0 ~h:5))

let test_contour_raise_to () =
  let s = Contour.scratch 4 in
  Contour.raise_into s ~x0:0 ~x1:10 ~y:4;
  Contour.raise_into s ~x0:3 ~x1:6 ~y:9;
  let height_at x = Contour.max_height_into s ~x0:x ~x1:(x + 1) in
  Alcotest.(check int) "inside" 9 (height_at 4);
  Alcotest.(check int) "left part" 4 (height_at 1);
  Alcotest.(check int) "right part" 4 (height_at 8);
  Alcotest.(check int) "max over range" 9
    (Contour.max_height_into s ~x0:0 ~x1:10);
  Alcotest.(check int) "empty range" 0 (Contour.max_height_into s ~x0:5 ~x1:5);
  Alcotest.(check (list (triple int int int))) "steps"
    [ (0, 3, 4); (3, 6, 9); (6, 10, 4) ]
    (List.map
       (fun (g : Contour.segment) -> (g.x0, g.x1, g.y))
       (Contour.scratch_segments s))

let test_contour_segments_invariant () =
  let rng = Prelude.Rng.create 11 in
  let s = Contour.scratch 2 in
  for _ = 1 to 200 do
    Contour.clear s;
    for _ = 1 to 20 do
      let x = Prelude.Rng.int rng 50
      and w = 1 + Prelude.Rng.int rng 20
      and h = 1 + Prelude.Rng.int rng 10 in
      ignore (Contour.drop_into s ~x ~w ~h : int)
    done;
    let rec check = function
      | (a : Contour.segment) :: (b : Contour.segment) :: rest ->
          Alcotest.(check bool) "sorted disjoint" true (a.x1 <= b.x0);
          Alcotest.(check bool) "merged" true (a.x1 < b.x0 || a.y <> b.y);
          check (b :: rest)
      | [ g ] -> Alcotest.(check bool) "positive" true (g.y > 0 && g.x1 > g.x0)
      | [] -> ()
    in
    check (Contour.scratch_segments s)
  done

let test_contour_scratch_basics () =
  let s = Contour.scratch 4 in
  Alcotest.(check int) "first cell on ground" 0
    (Contour.drop_into s ~x:0 ~w:10 ~h:5);
  Alcotest.(check int) "lands on overlap" 5
    (Contour.drop_into s ~x:5 ~w:10 ~h:3);
  Alcotest.(check int) "lands on second" 8
    (Contour.drop_into s ~x:10 ~w:2 ~h:1);
  Alcotest.(check int) "clear ground beyond" 0
    (Contour.drop_into s ~x:20 ~w:5 ~h:1);
  Alcotest.(check int) "max over range" 9
    (Contour.max_height_into s ~x0:0 ~x1:30);
  Contour.clear s;
  Alcotest.(check int) "flat after clear" 0
    (Contour.max_height_into s ~x0:0 ~x1:1000);
  Alcotest.(check int) "reusable after clear" 0
    (Contour.drop_into s ~x:3 ~w:4 ~h:2)

(* Maximal runs of equal positive height over per-column heights: the
   brute-force image of a skyline. Equality with a run list checks that
   a segment list is sorted, disjoint, maximally merged and positive,
   and that it carries the right heights. *)
let runs cols =
  let out = ref [] in
  Array.iteri
    (fun x y ->
      match !out with
      | (g : Contour.segment) :: rest when g.x1 = x && g.y = y ->
          out := { g with x1 = x + 1 } :: rest
      | _ -> if y > 0 then out := { Contour.x0 = x; x1 = x + 1; y } :: !out)
    cols;
  List.rev !out

let prop_contour_scratch_brute_force =
  QCheck.Test.make ~name:"contour scratch = brute-force column"
    ~count:200 QCheck.small_int
    (fun seed ->
      let rng = Prelude.Rng.create seed in
      let cols = Array.make 64 0 in
      let col_max x0 x1 =
        let m = ref 0 in
        for c = x0 to x1 - 1 do
          m := max !m cols.(c)
        done;
        !m
      in
      let fill x0 x1 y = Array.fill cols x0 (x1 - x0) y in
      (* deliberately tiny capacity so the arena has to grow *)
      let s = Contour.scratch 2 in
      let ok = ref true in
      for _ = 1 to 30 do
        let x0 = Prelude.Rng.int rng 40 in
        let x1 = x0 + 1 + Prelude.Rng.int rng 15 in
        if Prelude.Rng.int rng 4 = 0 then begin
          let y = Prelude.Rng.int rng 12 in
          Contour.raise_into s ~x0 ~x1 ~y;
          fill x0 x1 y
        end
        else begin
          let h = 1 + Prelude.Rng.int rng 10 in
          let y = col_max x0 x1 in
          ok := !ok && Contour.drop_into s ~x:x0 ~w:(x1 - x0) ~h = y;
          fill x0 x1 (y + h)
        end;
        (* a query range that may be empty *)
        let q0 = Prelude.Rng.int rng 50 in
        let q1 = q0 + Prelude.Rng.int rng 14 in
        ok := !ok && Contour.max_height_into s ~x0:q0 ~x1:q1 = col_max q0 q1
      done;
      !ok && Contour.scratch_segments s = runs cols)

let prop_top_profile_brute_force =
  QCheck.Test.make ~name:"top profile = brute-force column maxima"
    ~count:300 QCheck.small_int
    (fun seed ->
      let rng = Prelude.Rng.create seed in
      (* zero widths and heights give zero-area rects; overlaps are
         common *)
      let rects =
        List.init (Prelude.Rng.int rng 12) (fun _ ->
            Rect.make ~x:(Prelude.Rng.int rng 30) ~y:(Prelude.Rng.int rng 20)
              ~w:(Prelude.Rng.int rng 10) ~h:(Prelude.Rng.int rng 10))
      in
      let cols = Array.make 64 0 in
      List.iter
        (fun (r : Rect.t) ->
          if Rect.area r > 0 then
            for c = r.x to Rect.x_max r - 1 do
              cols.(c) <- max cols.(c) (Rect.y_max r)
            done)
        rects;
      Outline.top_profile rects = runs cols)

let test_outline_covered_area () =
  let rects =
    [ Rect.make ~x:0 ~y:0 ~w:10 ~h:10; Rect.make ~x:5 ~y:5 ~w:10 ~h:10 ]
  in
  Alcotest.(check int) "union area" (100 + 100 - 25)
    (Outline.covered_area rects);
  Alcotest.(check int) "dead area" (15 * 15 - 175) (Outline.dead_area rects)

let test_outline_connected () =
  let a = Rect.make ~x:0 ~y:0 ~w:5 ~h:5 in
  let b = Rect.make ~x:5 ~y:0 ~w:5 ~h:5 in
  let c = Rect.make ~x:11 ~y:0 ~w:5 ~h:5 in
  Alcotest.(check bool) "edge-adjacent connected" true (Outline.connected [ a; b ]);
  Alcotest.(check bool) "gap disconnects" false (Outline.connected [ a; c ]);
  Alcotest.(check bool) "bridge reconnects" true
    (Outline.connected [ a; c; Rect.make ~x:4 ~y:0 ~w:8 ~h:2 ]);
  let corner = Rect.make ~x:5 ~y:5 ~w:3 ~h:3 in
  Alcotest.(check bool) "corner contact not connected" false
    (Outline.connected [ a; corner ]);
  Alcotest.(check bool) "empty trivially connected" true (Outline.connected [])

let test_outline_top_profile () =
  let rects =
    [ Rect.make ~x:0 ~y:0 ~w:4 ~h:3; Rect.make ~x:4 ~y:0 ~w:4 ~h:7 ]
  in
  let profile = Outline.top_profile rects in
  Alcotest.(check int) "two steps" 2 (List.length profile);
  (match profile with
  | [ s1; s2 ] ->
      Alcotest.(check int) "step1 height" 3 s1.Contour.y;
      Alcotest.(check int) "step2 height" 7 s2.Contour.y
  | _ -> Alcotest.fail "expected two segments")

let test_transform_mirror () =
  let p =
    Transform.place ~cell:0 ~x:2 ~y:3 ~w:4 ~h:5 ~orient:Orientation.R0
  in
  let m = Transform.mirror_y ~axis2:20 p in
  Alcotest.(check int) "mirrored x" 14 m.Transform.rect.Rect.x;
  Alcotest.(check bool) "orientation flipped" true
    (Orientation.equal m.Transform.orient Orientation.MY)

let test_orientation () =
  Alcotest.(check (pair int int)) "R90 swaps" (5, 3)
    (Orientation.dims Orientation.R90 ~w:3 ~h:5);
  Alcotest.(check (pair int int)) "MY keeps" (3, 5)
    (Orientation.dims Orientation.MY ~w:3 ~h:5);
  List.iter
    (fun o ->
      Alcotest.(check bool) "mirror_y involutive" true
        (Orientation.equal o (Orientation.mirror_y (Orientation.mirror_y o)));
      Alcotest.(check (option string)) "string roundtrip"
        (Some (Orientation.to_string o))
        (Option.map Orientation.to_string
           (Orientation.of_string (Orientation.to_string o))))
    Orientation.all

let test_guard_ring_single () =
  let cells = [ Rect.make ~x:10 ~y:10 ~w:20 ~h:12 ] in
  let ring = Guard_ring.generate ~clearance:2 ~thickness:3 cells in
  Alcotest.(check bool) "non-empty" true (ring <> []);
  List.iter
    (fun seg ->
      List.iter
        (fun cell ->
          Alcotest.(check bool) "ring clears the cell" false
            (Rect.overlaps seg cell))
        cells)
    ring;
  Alcotest.(check bool) "sealed" true (Guard_ring.encloses ~ring cells);
  (* ring area of a single rect: outer band = (w+2(c+t))(h+2(c+t)) -
     (w+2c)(h+2c) *)
  let area = List.fold_left (fun acc r -> acc + Rect.area r) 0 ring in
  Alcotest.(check int) "band area" ((30 * 22) - (24 * 16)) area

let test_guard_ring_l_shape () =
  let cells =
    [ Rect.make ~x:0 ~y:0 ~w:30 ~h:10; Rect.make ~x:0 ~y:10 ~w:10 ~h:20 ]
  in
  let ring = Guard_ring.generate ~clearance:1 ~thickness:2 cells in
  Alcotest.(check bool) "sealed L" true (Guard_ring.encloses ~ring cells);
  List.iter
    (fun seg ->
      List.iter
        (fun cell ->
          Alcotest.(check bool) "clears cells" false (Rect.overlaps seg cell))
        cells)
    ring;
  (* ring segments must not overlap each other *)
  let rec pairwise = function
    | [] -> ()
    | r :: rest ->
        List.iter
          (fun r' ->
            Alcotest.(check bool) "disjoint segments" false
              (Rect.overlaps r r'))
          rest;
        pairwise rest
  in
  pairwise ring

let test_guard_ring_not_sealed_detection () =
  let cells = [ Rect.make ~x:10 ~y:10 ~w:10 ~h:10 ] in
  (* a ring with a gap: only three sides *)
  let broken =
    [
      Rect.make ~x:5 ~y:5 ~w:20 ~h:2;
      Rect.make ~x:5 ~y:23 ~w:20 ~h:2;
      Rect.make ~x:5 ~y:7 ~w:2 ~h:16;
    ]
  in
  Alcotest.(check bool) "gap detected" false
    (Guard_ring.encloses ~ring:broken cells)

let prop_guard_ring_seals =
  QCheck.Test.make ~name:"guard ring always seals connected groups" ~count:100
    QCheck.(pair small_int (int_range 1 5))
    (fun (seed, k) ->
      let rng = Prelude.Rng.create seed in
      (* build a connected group by chaining rects *)
      let rects = ref [ Rect.make ~x:0 ~y:0 ~w:(5 + Prelude.Rng.int rng 20) ~h:(5 + Prelude.Rng.int rng 20) ] in
      for _ = 2 to k do
        match !rects with
        | last :: _ ->
            let w = 5 + Prelude.Rng.int rng 20
            and h = 5 + Prelude.Rng.int rng 20 in
            let r =
              if Prelude.Rng.bool rng then
                Rect.make ~x:(Rect.x_max last) ~y:last.Rect.y ~w ~h
              else Rect.make ~x:last.Rect.x ~y:(Rect.y_max last) ~w ~h
            in
            rects := r :: !rects
        | [] -> ()
      done;
      let ring =
        Guard_ring.generate ~clearance:(Prelude.Rng.int rng 4)
          ~thickness:(1 + Prelude.Rng.int rng 4)
          !rects
      in
      Guard_ring.encloses ~ring !rects
      && List.for_all
           (fun seg -> List.for_all (fun c -> not (Rect.overlaps seg c)) !rects)
           ring)

(* qcheck properties *)

let rect_gen =
  QCheck.Gen.(
    map
      (fun (x, y, w, h) -> Rect.make ~x ~y ~w ~h)
      (quad (int_bound 100) (int_bound 100) (int_bound 50) (int_bound 50)))

let arb_rect = QCheck.make ~print:(Format.asprintf "%a" Rect.pp) rect_gen

let prop_mirror_preserves_area =
  QCheck.Test.make ~name:"mirror_y preserves area" ~count:500 arb_rect
    (fun r -> Rect.area (Rect.mirror_y ~axis2:321 r) = Rect.area r)

let prop_covered_le_bbox =
  QCheck.Test.make ~name:"covered area <= bbox area" ~count:200
    QCheck.(list_of_size Gen.(int_range 1 8) arb_rect)
    (fun rects ->
      let rects = List.filter (fun r -> Rect.area r > 0) rects in
      QCheck.assume (rects <> []);
      Outline.covered_area rects <= Rect.area (Outline.bounding_box rects))

let prop_intersection_symmetric =
  QCheck.Test.make ~name:"intersection area symmetric" ~count:500
    QCheck.(pair arb_rect arb_rect)
    (fun (a, b) -> Rect.intersection_area a b = Rect.intersection_area b a)

let () =
  Alcotest.run "geometry"
    [
      ( "interval",
        [
          Alcotest.test_case "basics" `Quick test_interval_basics;
          Alcotest.test_case "mirror" `Quick test_interval_mirror;
          Alcotest.test_case "hull" `Quick test_interval_hull;
        ] );
      ( "rect",
        [
          Alcotest.test_case "overlap" `Quick test_rect_overlap;
          Alcotest.test_case "mirror" `Quick test_rect_mirror;
          Alcotest.test_case "bbox" `Quick test_rect_bbox;
        ] );
      ( "contour",
        [
          Alcotest.test_case "raise_to" `Quick test_contour_raise_to;
          Alcotest.test_case "invariants" `Quick test_contour_segments_invariant;
          Alcotest.test_case "scratch" `Quick test_contour_scratch_basics;
        ] );
      ( "outline",
        [
          Alcotest.test_case "covered area" `Quick test_outline_covered_area;
          Alcotest.test_case "connected" `Quick test_outline_connected;
          Alcotest.test_case "top profile" `Quick test_outline_top_profile;
        ] );
      ( "transform",
        [
          Alcotest.test_case "mirror" `Quick test_transform_mirror;
          Alcotest.test_case "orientation" `Quick test_orientation;
        ] );
      ( "guard ring",
        [
          Alcotest.test_case "single cell" `Quick test_guard_ring_single;
          Alcotest.test_case "L shape" `Quick test_guard_ring_l_shape;
          Alcotest.test_case "gap detection" `Quick
            test_guard_ring_not_sealed_detection;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_mirror_preserves_area;
            prop_covered_le_bbox;
            prop_intersection_symmetric;
            prop_guard_ring_seals;
            prop_contour_scratch_brute_force;
            prop_top_profile_brute_force;
          ] );
    ]
