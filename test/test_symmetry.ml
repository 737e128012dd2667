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

(* The right cell of every mirrored pair is placed [MY], every other
   cell [R0]. *)
let right_cells_mirrored (g : G.t) placed =
  let x_of c =
    (List.find (fun (p : Geometry.Transform.placed) -> p.cell = c) placed)
      .rect.Geometry.Rect.x
  in
  List.for_all
    (fun (p : Geometry.Transform.placed) ->
      let pair = List.find_opt (fun (a, b) -> a = p.cell || b = p.cell) in
      let expect =
        match pair g.G.pairs with
        | Some (a, b) when x_of (if a = p.cell then b else a) < x_of p.cell ->
            Geometry.Orientation.MY
        | Some _ | None -> Geometry.Orientation.R0
      in
      p.orient = expect)
    placed

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
        | None -> Alcotest.fail "axis2_of failed");
        Alcotest.(check bool) "right cell of each pair is MY" true
          (right_cells_mirrored grp placed)
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
   system was a fixpoint capped at 10(n+G)+20 passes; the one-pass
   contracted walk must reproduce every one of them. *)

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
   reaches from it. Returns the digest of every pack's rectangles by
   cell (or its error) and how many packs fell back. *)
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
      match
        Symmetry.pack_symmetric_into ~tally:fallbacks ~x ~y ~w ~h !sp dims
          groups
      with
      | Error msg -> Printf.bprintf buf "E%s;" msg
      | Ok () ->
          for c = 0 to n - 1 do
            Printf.bprintf buf "%d,%d,%d,%d;" x.(c) y.(c) w.(c) h.(c)
          done;
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

(* Independent oracle for the vertical system: Bellman-Ford over the
   below-edges [y_b >= y_a + h_a] and both directions of every pair
   equality, from [y = 0] everywhere. [Some y] is the least solution;
   [None] means a relaxation still succeeds after [n] rounds, i.e. a
   positive cycle. O(n^3), and it knows nothing of contraction. *)
let oracle_y sp ~h groups =
  let n = Sp.size sp in
  let y = Array.make n 0 in
  let relax () =
    let changed = ref false in
    let raise_to b v =
      if y.(b) < v then begin
        y.(b) <- v;
        changed := true
      end
    in
    for a = 0 to n - 1 do
      for b = 0 to n - 1 do
        if a <> b && Sp.below sp a b then raise_to b (y.(a) + h.(a))
      done
    done;
    List.iter
      (fun (g : G.t) ->
        List.iter
          (fun (a, b) ->
            raise_to a y.(b);
            raise_to b y.(a))
          g.G.pairs)
      groups;
    !changed
  in
  let rec rounds k = if not (relax ()) then Some y else if k = 0 then None else rounds (k - 1) in
  rounds n

(* The packer against the oracle on [sweep_circuit]'s circuits, a
   random S-F code and a few S-F moves from it. The horizontal system
   can diverge on its own (a group's shared axis couples its pairs), so
   the code is packed twice: as drawn, and with every width 0, which
   leaves the horizontal system nothing to push (every [x] stays 0) and
   makes a fallback of that pack the vertical system's alone. That pack
   falls back exactly when the oracle finds a positive cycle and
   otherwise has the oracle's [y]; the pack as drawn has the same [y]
   unless it fell back. Half the cases zero the height of a random
   third of the cells (both cells of a pair together, so pairs still
   match): a cycle through zero-height cells only has weight 0, so it
   must not fall back, and its cells share one [y]. With heights >= 1
   every cycle that uses a below-edge is positive. *)
let prop_vertical_oracle =
  let print (seed, zero) = Printf.sprintf "seed=%d zero-heights=%b" seed zero in
  QCheck.Test.make ~name:"vertical pass = Bellman-Ford" ~count:2000
    (QCheck.make ~print QCheck.Gen.(pair int bool))
    (fun (seed, zero) ->
      let rng = Prelude.Rng.create seed in
      let n, groups, dims = sweep_circuit rng in
      let flat = Array.make n false in
      if zero then begin
        for c = 0 to n - 1 do
          if Prelude.Rng.int rng 3 = 0 then flat.(c) <- true
        done;
        List.iter
          (fun (g : G.t) -> List.iter (fun (a, b) -> flat.(b) <- flat.(a)) g.G.pairs)
          groups
      end;
      let dims c = if flat.(c) then (fst (dims c), 0) else dims c in
      let sp = ref (Symmetry.random_feasible rng ~n groups) in
      for _ = 1 to Prelude.Rng.int rng 4 do
        sp := Moves.random_neighbor_sf rng !sp groups
      done;
      let pack dims =
        let fallbacks = Telemetry.Counter.make "fallbacks" in
        let x = Array.make n 0 and y = Array.make n 0 in
        let w = Array.make n 0 and h = Array.make n 0 in
        Result.map
          (fun () -> (Telemetry.Counter.value fallbacks = 1, y, h))
          (Symmetry.pack_symmetric_into ~tally:fallbacks ~x ~y ~w ~h !sp dims
             groups)
      in
      match (pack dims, pack (fun c -> (0, snd (dims c)))) with
      | Error _, _ -> true (* a mismatched pair: nothing to pack *)
      | Ok (fell_back, y, h), Ok (vertical_fell_back, vy, _) -> (
          match oracle_y !sp ~h groups with
          | None -> vertical_fell_back
          | Some oy -> (not vertical_fell_back) && vy = oy && (fell_back || y = oy))
      | Ok _, Error _ -> false)

(* [p] single-pair groups arranged as a staircase of columns: column
   [c] holds [r_(c-1)] below [l_c], with a free cell [f0] as [r_0] and
   another [f1] as [l_(p+1)]; cell [2i - 1] is [l_i] and cell [2i] is
   [r_i]. The only vertical path climbs f0, l_1 =
   r_1, l_2 = r_2, ..., r_p, f1, crossing every pair equality: a
   fixpoint that closes one equality per pass changes on passes 0..p,
   and one capped a pass short of [p + 1] would fall back and lose the
   coupled packing. *)
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
  let fallbacks, rects = pack_into_rects ~n sp dims groups in
  Alcotest.(check int) "no fallback" 0 fallbacks;
  Alcotest.(check bool) "coupled staircase coordinates" true (rects = expected)

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
  let fallbacks, rects = pack_into_rects ~n:5 sp dims groups in
  Alcotest.(check int) "one fallback" 1 fallbacks;
  Alcotest.(check bool) "segregated-island coordinates" true (rects = expected);
  match Symmetry.pack_symmetric sp dims groups with
  | Error msg -> Alcotest.fail msg
  | Ok placed ->
      List.iter
        (fun g ->
          Alcotest.(check bool) "symmetric" true
            (Result.is_ok (Check.symmetry ~group:g placed)))
        groups;
      Alcotest.(check bool) "right cell of each pair is MY" true
        (List.map (fun (p : Geometry.Transform.placed) -> p.orient) placed
        = Geometry.Orientation.[ R0; MY; R0; MY; R0 ])

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
          QCheck_alcotest.to_alcotest prop_vertical_oracle;
        ] );
      ( "moves",
        [ Alcotest.test_case "stay S-F" `Quick test_sf_moves_preserve ] );
    ]
