open Seqpair
module G = Constraints.Symmetry_group
module Check = Constraints.Placement_check

let fig1 () =
  let sp, mapping = Sp.of_strings ~alpha:"EBAFCDG" ~beta:"EBCDFAG" in
  let idx c = List.assoc c mapping in
  let grp =
    G.make
      ~pairs:[ (idx 'C', idx 'D'); (idx 'B', idx 'G') ]
      ~selfs:[ idx 'A'; idx 'F' ] ()
  in
  (sp, grp)

let test_fig1_feasible () =
  let sp, grp = fig1 () in
  Alcotest.(check bool) "paper example is S-F" true
    (Symmetry.is_feasible sp grp)

let test_violating_code () =
  (* swapping C and D only in alpha breaks property (1) *)
  let sp, grp = fig1 () in
  let sp' =
    Sp.make ~alpha:(Perm.swap_cells sp.Sp.alpha 2 3) ~beta:sp.Sp.beta
  in
  Alcotest.(check bool) "broken code detected" false
    (Symmetry.is_feasible sp' grp)

let test_lemma_fig1_numbers () =
  (* the survey: n=7, one group with p=2, s=2 -> (7!)^2/6! = 35,280 *)
  let _, grp = fig1 () in
  Alcotest.(check int) "35280" 35_280 (Symmetry.count_upper_bound ~n:7 [ grp ]);
  Alcotest.(check int) "total (7!)^2" 25_401_600 (5040 * 5040)

let test_lemma_exhaustive_small () =
  let cases =
    [
      (3, [ G.make ~pairs:[ (0, 1) ] ~selfs:[] () ]);
      (4, [ G.make ~pairs:[ (0, 1) ] ~selfs:[ 2 ] () ]);
      (4, [ G.make ~pairs:[ (0, 1); (2, 3) ] ~selfs:[] () ]);
      (5, [ G.make ~pairs:[ (0, 1) ] ~selfs:[] ();
            G.make ~pairs:[ (2, 3) ] ~selfs:[] () ]);
      (5, [ G.make ~pairs:[ (0, 1); (2, 3) ] ~selfs:[ 4 ] () ]);
    ]
  in
  List.iter
    (fun (n, groups) ->
      let exact = Symmetry.count_exhaustive ~n groups in
      let bound = Symmetry.count_upper_bound ~n groups in
      Alcotest.(check int) (Printf.sprintf "n=%d exact=bound" n) bound exact)
    cases

let test_make_feasible () =
  let rng = Prelude.Rng.create 4 in
  let grp = G.make ~pairs:[ (0, 1); (2, 3) ] ~selfs:[ 4 ] () in
  for _ = 1 to 200 do
    let sp = Sp.random rng 8 in
    let fixed = Symmetry.make_feasible sp [ grp ] in
    if not (Symmetry.is_feasible fixed grp) then
      Alcotest.fail "repair failed";
    (* alpha untouched *)
    if not (Perm.equal fixed.Sp.alpha sp.Sp.alpha) then
      Alcotest.fail "alpha changed"
  done

let random_group rng n =
  (* partition a random subset of 0..n-1 into pairs and selfs *)
  let cells = Array.to_list (Prelude.Rng.permutation rng n) in
  let k = min n (2 + Prelude.Rng.int rng (max 1 (n - 1))) in
  let members = List.filteri (fun i _ -> i < k) cells in
  let rec split pairs selfs = function
    | a :: b :: rest ->
        if Prelude.Rng.bool rng then split ((a, b) :: pairs) selfs rest
        else split pairs (a :: selfs) (b :: rest)
    | [ a ] -> (pairs, a :: selfs)
    | [] -> (pairs, selfs)
  in
  let pairs, selfs = split [] [] members in
  G.make ~pairs ~selfs ()

let test_pack_symmetric_random () =
  let rng = Prelude.Rng.create 99 in
  for _ = 1 to 300 do
    let n = 3 + Prelude.Rng.int rng 12 in
    let grp = random_group rng n in
    let sp = Symmetry.random_feasible rng ~n [ grp ] in
    let base =
      Array.init n (fun _ ->
          (2 + Prelude.Rng.int rng 30, 2 + Prelude.Rng.int rng 30))
    in
    (* matched dimensions for pairs *)
    List.iter (fun (a, b) -> base.(b) <- base.(a)) grp.G.pairs;
    let dims c = base.(c) in
    match Symmetry.pack_symmetric sp dims [ grp ] with
    | Error msg -> Alcotest.fail msg
    | Ok placed ->
        (match Check.overlap_free placed with
        | Ok () -> ()
        | Error v -> Alcotest.failf "overlap: %a" Check.pp_violation v);
        (match Check.symmetry ~group:grp placed with
        | Ok _ -> ()
        | Error v -> Alcotest.failf "asymmetric: %a" Check.pp_violation v);
        (match Symmetry.axis2_of placed grp with
        | Some _ -> ()
        | None -> Alcotest.fail "axis2_of failed")
  done

(* QCheck: make_feasible lands in the S-F subspace for ANY sp/groups,
   and is idempotent — repairing an already-feasible code is a no-op. *)
let arb_sp_groups =
  let gen =
    QCheck.Gen.(
      5 -- 12 >>= fun n ->
      int >>= fun seed ->
      let rng = Prelude.Rng.create seed in
      let sp = Sp.random rng n in
      let g1 = random_group rng n in
      (* optional second group over the leftover cells, when enough *)
      let used = G.members g1 in
      let free = List.filter (fun c -> not (List.mem c used)) (List.init n Fun.id) in
      let groups =
        match free with
        | a :: b :: _ -> [ g1; G.make ~pairs:[ (a, b) ] ~selfs:[] () ]
        | _ -> [ g1 ]
      in
      return (sp, groups))
  in
  let print (sp, groups) =
    Format.asprintf "groups=%d %a" (List.length groups) Sp.pp sp
  in
  QCheck.make ~print gen

let prop_make_feasible_feasible =
  QCheck.Test.make ~name:"make_feasible is feasible" ~count:500 arb_sp_groups
    (fun (sp, groups) ->
      Symmetry.is_feasible_all (Symmetry.make_feasible sp groups) groups)

let prop_make_feasible_idempotent =
  QCheck.Test.make ~name:"make_feasible is idempotent" ~count:500 arb_sp_groups
    (fun (sp, groups) ->
      let once = Symmetry.make_feasible sp groups in
      Sp.equal (Symmetry.make_feasible once groups) once)

(* The lemma's bound raises instead of silently wrapping. With no
   groups the boundary is n = 12: (12!)^2 fits 63-bit ints, (13!)^2
   does not. With a cardinality-15 group, n = 17 still fits
   (272 * 17!) while every n > 17 overflows. *)
let test_count_bound_overflow () =
  Alcotest.(check int) "n=12 plain" (479_001_600 * 479_001_600)
    (Symmetry.count_upper_bound ~n:12 []);
  Alcotest.check_raises "n=13 plain raises"
    (Invalid_argument "Symmetry.count_upper_bound: overflow") (fun () ->
      ignore (Symmetry.count_upper_bound ~n:13 []));
  let big = G.make ~pairs:(List.init 7 (fun i -> (2 * i, (2 * i) + 1)))
      ~selfs:[ 14 ] () in
  (* 17! / 15! = 272; bound = 272 * 17! = 96_746_980_442_112_000 *)
  Alcotest.(check int) "n=17 card-15 group" 96_746_980_442_112_000
    (Symmetry.count_upper_bound ~n:17 [ big ]);
  Alcotest.check_raises "n=18 card-15 group raises"
    (Invalid_argument "Symmetry.count_upper_bound: overflow") (fun () ->
      ignore (Symmetry.count_upper_bound ~n:18 [ big ]))

let test_pack_symmetric_two_groups () =
  let rng = Prelude.Rng.create 123 in
  for _ = 1 to 100 do
    let n = 8 in
    let g1 = G.make ~pairs:[ (0, 1) ] ~selfs:[ 2 ] () in
    let g2 = G.make ~pairs:[ (3, 4) ] ~selfs:[ 5 ] () in
    let sp = Symmetry.random_feasible rng ~n [ g1; g2 ] in
    let base =
      Array.init n (fun _ ->
          (2 + Prelude.Rng.int rng 20, 2 + Prelude.Rng.int rng 20))
    in
    base.(1) <- base.(0);
    base.(4) <- base.(3);
    let dims c = base.(c) in
    match Symmetry.pack_symmetric sp dims [ g1; g2 ] with
    | Error msg -> Alcotest.fail msg
    | Ok placed ->
        Alcotest.(check bool) "overlap-free" true
          (Result.is_ok (Check.overlap_free placed));
        Alcotest.(check bool) "g1 symmetric" true
          (Result.is_ok (Check.symmetry ~group:g1 placed));
        Alcotest.(check bool) "g2 symmetric" true
          (Result.is_ok (Check.symmetry ~group:g2 placed))
  done

let test_sf_moves_preserve () =
  let rng = Prelude.Rng.create 31 in
  let grp = G.make ~pairs:[ (0, 1); (2, 3) ] ~selfs:[ 4 ] () in
  let sp = ref (Symmetry.random_feasible rng ~n:9 [ grp ]) in
  for _ = 1 to 2000 do
    sp := Moves.random_neighbor_sf rng !sp [ grp ];
    if not (Symmetry.is_feasible !sp grp) then
      Alcotest.fail "move left the S-F subspace"
  done

let test_pack_symmetric_rejects_non_sf () =
  let sp =
    Sp.make
      ~alpha:(Perm.of_array [| 0; 1; 2 |])
      ~beta:(Perm.of_array [| 0; 1; 2 |])
  in
  (* pair (0,1) in the same order in both sequences IS S-F (they are
     left-right); force a violation with a vertical pair instead *)
  let vert =
    Sp.make
      ~alpha:(Perm.of_array [| 1; 0; 2 |])
      ~beta:(Perm.of_array [| 0; 1; 2 |])
  in
  let grp = G.make ~pairs:[ (0, 1) ] ~selfs:[] () in
  ignore sp;
  match Symmetry.pack_symmetric vert (fun _ -> (4, 4)) [ grp ] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "vertical pair accepted"

let test_self_padding () =
  (* selfs with odd/even width mix must still produce an exact axis *)
  let grp = G.make ~pairs:[ (0, 1) ] ~selfs:[ 2; 3 ] () in
  let rng = Prelude.Rng.create 8 in
  let sp = Symmetry.random_feasible rng ~n:4 [ grp ] in
  let dims = function
    | 0 | 1 -> (10, 5)
    | 2 -> (7, 4) (* odd *)
    | _ -> (8, 4) (* even *)
  in
  match Symmetry.pack_symmetric sp dims [ grp ] with
  | Error msg -> Alcotest.fail msg
  | Ok placed ->
      Alcotest.(check bool) "symmetric with padding" true
        (Result.is_ok (Check.symmetry ~group:grp placed))

(* ---- pinned packer outputs -------------------------------------- *)

(* The pinned values come from the packer as it was when the vertical
   fixpoint was capped at 10(n+G)+20 passes; its exact [P + 1] cap must
   reproduce every one of them. *)

let rects_of placed =
  List.sort
    (fun (a : Geometry.Transform.placed) b ->
      Int.compare a.Geometry.Transform.cell b.Geometry.Transform.cell)
    placed
  |> List.map (fun (p : Geometry.Transform.placed) -> p.Geometry.Transform.rect)

(* [pack_symmetric_into] on fresh buffers: how many packs fell back
   (0 or 1) and the packed rectangles by cell *)
let pack_into_rects ~n sp dims groups =
  let fallbacks = Telemetry.Counter.make "fallbacks" in
  let x = Array.make n 0 and y = Array.make n 0 in
  let w = Array.make n 0 and h = Array.make n 0 in
  ignore
    (Symmetry.pack_symmetric_into ~tally:fallbacks ~x ~y ~w ~h sp dims groups);
  ( Telemetry.Counter.value fallbacks,
    List.init n (fun c ->
        Geometry.Rect.make ~x:x.(c) ~y:y.(c) ~w:w.(c) ~h:h.(c)) )

(* n in 4..24 and 1..4 disjoint groups mixing pairs and selfs, dealt
   from a shuffled cell list; random dims, pairs matched except in one
   circuit out of twenty, so the sweep also pins the error path. *)
let sweep_circuit rng =
  let n = Prelude.Rng.int_in rng 4 24 in
  let rec split pairs selfs = function
    | a :: b :: tl when Prelude.Rng.int rng 4 > 0 ->
        split ((a, b) :: pairs) selfs tl
    | a :: tl -> split pairs (a :: selfs) tl
    | [] -> (List.rev pairs, List.rev selfs)
  in
  let rec deal gi cells =
    if gi = 0 || cells = [] then []
    else
      let k = Prelude.Rng.int_in rng 1 (min 6 (List.length cells)) in
      let members = List.filteri (fun i _ -> i < k) cells in
      let pairs, selfs = split [] [] members in
      G.make ~name:(Printf.sprintf "g%d" gi) ~pairs ~selfs ()
      :: deal (gi - 1) (List.filteri (fun i _ -> i >= k) cells)
  in
  let cells = Array.to_list (Prelude.Rng.permutation rng n) in
  let groups = deal (Prelude.Rng.int_in rng 1 4) cells in
  let base =
    Array.init n (fun _ ->
        (Prelude.Rng.int_in rng 1 30, Prelude.Rng.int_in rng 1 30))
  in
  if Prelude.Rng.int rng 20 > 0 then
    List.iter
      (fun (g : G.t) ->
        List.iter (fun (a, b) -> base.(b) <- base.(a)) g.G.pairs)
      groups;
  (n, groups, fun c -> base.(c))

(* Per circuit, a random S-F code and the codes a walk of S-F moves
   reaches from it. Returns the digest of every [pack_symmetric] result
   and how many packs fell back; [pack_symmetric_into] must agree on
   every one. *)
let sweep () =
  let rng = Prelude.Rng.create 2010 in
  let buf = Buffer.create (1 lsl 16) in
  let fallbacks = Telemetry.Counter.make "fallbacks" in
  for _ = 1 to 150 do
    let n, groups, dims = sweep_circuit rng in
    let sp = ref (Symmetry.random_feasible rng ~n groups) in
    let x = Array.make n 0 and y = Array.make n 0 in
    let w = Array.make n 0 and h = Array.make n 0 in
    for step = 0 to 7 do
      if step > 0 then sp := Moves.random_neighbor_sf rng !sp groups;
      let into =
        Symmetry.pack_symmetric_into ~tally:fallbacks ~x ~y ~w ~h !sp dims
          groups
      in
      match Symmetry.pack_symmetric !sp dims groups with
      | Error msg ->
          if into <> Error msg then Alcotest.failf "into disagrees: %s" msg;
          Printf.bprintf buf "E%s;" msg
      | Ok placed ->
          if Result.is_error into then Alcotest.fail "into failed alone";
          List.iteri
            (fun c (r : Geometry.Rect.t) ->
              if r <> Geometry.Rect.make ~x:x.(c) ~y:y.(c) ~w:w.(c) ~h:h.(c)
              then Alcotest.failf "into disagrees on cell %d" c;
              Printf.bprintf buf "%d,%d,%d,%d;" r.Geometry.Rect.x
                r.Geometry.Rect.y r.Geometry.Rect.w r.Geometry.Rect.h)
            (rects_of placed);
          Buffer.add_char buf '|'
    done
  done;
  ( Digest.to_hex (Digest.string (Buffer.contents buf)),
    Telemetry.Counter.value fallbacks )

let test_pack_digest () =
  let digest, fallbacks = sweep () in
  Alcotest.(check string)
    "digest of every result" "bd2f3a89ec65798efdb75f2e5e51ef87" digest;
  Alcotest.(check int) "packs that fell back" 155 fallbacks

(* [p] single-pair groups arranged as a staircase of columns: column
   [c] holds [r_(c-1)] below [l_c], with a free cell [f0] as [r_0] and
   another [f1] as [l_(p+1)]; cell [2i - 1] is [l_i] and cell [2i] is
   [r_i]. The only vertical path climbs f0, l_1 =
   r_1, l_2 = r_2, ..., r_p, f1, and each pair equality costs one pass,
   so the fixpoint changes on passes 0..p: exactly [p + 1] of them. A
   bound one pass shorter would fall back and lose the coupled
   packing. *)
let test_staircase () =
  let p = 6 in
  let n = (2 * p) + 2 in
  let l i = (2 * i) - 1 and r i = 2 * i in
  (* column c, left to right: l_c above r_(c-1) *)
  let columns f =
    Perm.of_array
      (Array.of_list (List.concat_map f (List.init (p + 1) succ)))
  in
  let sp =
    Sp.make
      ~alpha:(columns (fun c -> [ l c; r (c - 1) ]))
      ~beta:(columns (fun c -> [ r (c - 1); l c ]))
  in
  let groups =
    List.init p (fun i ->
        G.make ~name:(Printf.sprintf "p%d" (i + 1))
          ~pairs:[ (l (i + 1), r (i + 1)) ]
          ~selfs:[] ())
  in
  let dims _ = (2, 3) in
  (* l_i sits on column i, r_i on column i + 1, both on step i *)
  let expected =
    List.init n (fun c ->
        let i = (c + 1) / 2 in
        Geometry.Rect.make ~x:(2 * (i - (c land 1))) ~y:(3 * i) ~w:2 ~h:3)
  in
  (match Symmetry.pack_symmetric sp dims groups with
  | Error msg -> Alcotest.fail msg
  | Ok placed ->
      Alcotest.(check bool) "coupled staircase coordinates" true
        (rects_of placed = expected));
  let fallbacks, rects = pack_into_rects ~n sp dims groups in
  Alcotest.(check int) "no fallback" 0 fallbacks;
  Alcotest.(check bool) "into agrees" true (rects = expected)

(* Pairs (0,1) and (2,3) in groups of their own and a free cell 4 with
   2 below 4 below 0 and 1 below 3: through y0 = y1 and y2 = y3 the
   below-edges climb from 0 back above 0, a positive cycle no coupled
   packing satisfies. The code is S-F, so it packs by segregation:
   island B, then 4, then island A, stacked from the reduced code. *)
let test_vertical_cycle () =
  let sp =
    Sp.make
      ~alpha:(Perm.of_array [| 0; 4; 2; 3; 1 |])
      ~beta:(Perm.of_array [| 2; 4; 0; 1; 3 |])
  in
  let groups =
    [ G.make ~name:"a" ~pairs:[ (0, 1) ] ~selfs:[] ();
      G.make ~name:"b" ~pairs:[ (2, 3) ] ~selfs:[] () ]
  in
  let dims = function 0 | 1 -> (4, 2) | 2 | 3 -> (3, 3) | _ -> (2, 5) in
  let expected =
    Geometry.Rect.
      [ make ~x:0 ~y:8 ~w:4 ~h:2; make ~x:4 ~y:8 ~w:4 ~h:2;
        make ~x:0 ~y:0 ~w:3 ~h:3; make ~x:3 ~y:0 ~w:3 ~h:3;
        make ~x:0 ~y:3 ~w:2 ~h:5 ]
  in
  Alcotest.(check bool) "S-F" true (Symmetry.is_feasible_all sp groups);
  (match Symmetry.pack_symmetric sp dims groups with
  | Error msg -> Alcotest.fail msg
  | Ok placed ->
      Alcotest.(check bool) "segregated-island coordinates" true
        (rects_of placed = expected);
      List.iter
        (fun g ->
          Alcotest.(check bool) "symmetric" true
            (Result.is_ok (Check.symmetry ~group:g placed)))
        groups);
  let fallbacks, rects = pack_into_rects ~n:5 sp dims groups in
  Alcotest.(check int) "one fallback" 1 fallbacks;
  Alcotest.(check bool) "into agrees" true (rects = expected)

let () =
  Alcotest.run "symmetry"
    [
      ( "property (1)",
        [
          Alcotest.test_case "fig1 feasible" `Quick test_fig1_feasible;
          Alcotest.test_case "violation detected" `Quick test_violating_code;
        ] );
      ( "lemma",
        [
          Alcotest.test_case "fig1 numbers" `Quick test_lemma_fig1_numbers;
          Alcotest.test_case "exhaustive small" `Slow test_lemma_exhaustive_small;
          Alcotest.test_case "overflow boundary" `Quick
            test_count_bound_overflow;
        ] );
      ( "repair",
        [
          Alcotest.test_case "make_feasible" `Quick test_make_feasible;
          QCheck_alcotest.to_alcotest prop_make_feasible_feasible;
          QCheck_alcotest.to_alcotest prop_make_feasible_idempotent;
        ] );
      ( "packing",
        [
          Alcotest.test_case "random groups" `Quick test_pack_symmetric_random;
          Alcotest.test_case "two groups" `Quick test_pack_symmetric_two_groups;
          Alcotest.test_case "rejects non-S-F" `Quick
            test_pack_symmetric_rejects_non_sf;
          Alcotest.test_case "self padding" `Quick test_self_padding;
          Alcotest.test_case "pinned sweep digest" `Quick test_pack_digest;
          Alcotest.test_case "staircase needs P + 1 passes" `Quick
            test_staircase;
          Alcotest.test_case "vertical cycle falls back" `Quick
            test_vertical_cycle;
        ] );
      ( "moves",
        [ Alcotest.test_case "stay S-F" `Quick test_sf_moves_preserve ] );
    ]
