open Seqpair

let test_perm_basics () =
  let p = Perm.of_array [| 2; 0; 1 |] in
  Alcotest.(check int) "cell_at" 2 (Perm.cell_at p 0);
  Alcotest.(check int) "pos_of" 2 (Perm.pos_of p 1);
  Alcotest.check_raises "not a permutation"
    (Invalid_argument "Perm.of_array: not a permutation") (fun () ->
      ignore (Perm.of_array [| 0; 0 |]))

let test_perm_swap () =
  let p = Perm.identity 5 in
  let q = Perm.swap_cells p 1 3 in
  Alcotest.(check (list int)) "swap cells" [ 0; 3; 2; 1; 4 ] (Perm.to_list q);
  let r = Perm.swap_positions p 0 4 in
  Alcotest.(check (list int)) "swap positions" [ 4; 1; 2; 3; 0 ] (Perm.to_list r)

let test_perm_insert () =
  let p = Perm.of_array [| 0; 1; 2; 3 |] in
  let q = Perm.insert p ~cell:3 ~at:0 in
  Alcotest.(check (list int)) "insert front" [ 3; 0; 1; 2 ] (Perm.to_list q)

let test_perm_reorder () =
  let p = Perm.of_array [| 4; 1; 3; 0; 2 |] in
  (* cells 1,3,2 occupy positions 1,2,4; refill in order 2,3,1 *)
  let q = Perm.reorder_cells p ~cells:[ 1; 3; 2 ] ~order:[ 2; 3; 1 ] in
  Alcotest.(check (list int)) "reordered" [ 4; 2; 3; 0; 1 ] (Perm.to_list q)

let test_relations_paper_example () =
  let sp, mapping = Sp.of_strings ~alpha:"EBAFCDG" ~beta:"EBCDFAG" in
  let idx c = List.assoc c mapping in
  (* E before everyone in both sequences -> left of all *)
  List.iter
    (fun c ->
      Alcotest.(check bool)
        (Printf.sprintf "E left of %c" c)
        true
        (Sp.left_of sp (idx 'E') (idx c)))
    [ 'A'; 'B'; 'C'; 'D'; 'F'; 'G' ];
  (* C before D in both -> left; A after C in alpha? alpha: E B A F C D G;
     A before C in alpha, after C in beta -> A above C *)
  Alcotest.(check bool) "C left of D" true (Sp.left_of sp (idx 'C') (idx 'D'));
  Alcotest.(check bool) "A above C" true
    (Sp.relation sp (idx 'A') (idx 'C') = Sp.Above);
  Alcotest.(check bool) "C below A" true (Sp.below sp (idx 'C') (idx 'A'))

let test_of_strings_errors () =
  Alcotest.(check bool) "beta mismatch" true
    (match Sp.of_strings ~alpha:"AB" ~beta:"AC" with
    | exception Invalid_argument _ -> true
    | _ -> false);
  Alcotest.(check bool) "repeat" true
    (match Sp.of_strings ~alpha:"AA" ~beta:"AA" with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_pack_two_cells () =
  (* (AB, AB): A left of B *)
  let sp = Sp.make ~alpha:(Perm.of_array [| 0; 1 |]) ~beta:(Perm.of_array [| 0; 1 |]) in
  let dims = function 0 -> (4, 3) | _ -> (2, 5) in
  let placed = Pack.pack sp dims in
  let r1 = (List.nth placed 1).Geometry.Transform.rect in
  Alcotest.(check int) "B abuts A" 4 r1.Geometry.Rect.x;
  Alcotest.(check int) "B on ground" 0 r1.Geometry.Rect.y;
  (* (BA, AB): wait -- alpha B A, beta A B: A after B in alpha, before in
     beta -> A below B *)
  let sp2 = Sp.make ~alpha:(Perm.of_array [| 1; 0 |]) ~beta:(Perm.of_array [| 0; 1 |]) in
  let placed2 = Pack.pack sp2 dims in
  let a = (List.nth placed2 0).Geometry.Transform.rect in
  let b = (List.nth placed2 1).Geometry.Transform.rect in
  Alcotest.(check int) "A on ground" 0 a.Geometry.Rect.y;
  Alcotest.(check int) "B above A" 3 b.Geometry.Rect.y;
  Alcotest.(check int) "B at x=0" 0 b.Geometry.Rect.x

let test_bit () =
  let rng = Prelude.Rng.create 77 in
  for _ = 1 to 100 do
    let n = 1 + Prelude.Rng.int rng 40 in
    let bit = Bit.create n in
    let naive = Array.make n 0 in
    for _ = 1 to 60 do
      let i = Prelude.Rng.int rng n and v = Prelude.Rng.int rng 1000 in
      Bit.update bit i v;
      naive.(i) <- max naive.(i) v;
      let q = Prelude.Rng.int rng n in
      let expect = Array.fold_left max 0 (Array.sub naive 0 (q + 1)) in
      if Bit.prefix_max bit q <> expect then
        Alcotest.failf "prefix_max mismatch at %d: %d vs %d" q
          (Bit.prefix_max bit q) expect
    done
  done

let test_veb_against_reference () =
  let rng = Prelude.Rng.create 13 in
  for _ = 1 to 60 do
    let u = 1 + Prelude.Rng.int rng 200 in
    let veb = Veb.create u in
    let reference = ref [] in
    for _ = 1 to 300 do
      let x = Prelude.Rng.int rng u in
      (match Prelude.Rng.int rng 3 with
      | 0 ->
          Veb.insert veb x;
          if not (List.mem x !reference) then reference := x :: !reference
      | 1 ->
          Veb.delete veb x;
          reference := List.filter (fun y -> y <> x) !reference
      | _ -> ());
      let q = Prelude.Rng.int rng u in
      let below = List.filter (fun y -> y < q) !reference in
      let above = List.filter (fun y -> y > q) !reference in
      let max_opt = function
        | [] -> None
        | l -> Some (List.fold_left max min_int l)
      in
      let min_opt = function
        | [] -> None
        | l -> Some (List.fold_left min max_int l)
      in
      if Veb.predecessor veb q <> max_opt below then
        Alcotest.failf "predecessor %d mismatch" q;
      if Veb.successor veb q <> min_opt above then
        Alcotest.failf "successor %d mismatch" q;
      if Veb.mem veb q <> List.mem q !reference then
        Alcotest.failf "mem %d mismatch" q;
      if Veb.min_elt veb <> min_opt !reference then
        Alcotest.fail "min mismatch";
      if Veb.max_elt veb <> max_opt !reference then
        Alcotest.fail "max mismatch"
    done
  done

let arb_sp_dims =
  let gen =
    QCheck.Gen.(
      int_range 1 18 >>= fun n ->
      int_bound 1_000_000 >>= fun seed ->
      let rng = Prelude.Rng.create seed in
      let sp = Sp.random rng n in
      let dims =
        Array.init n (fun _ ->
            (1 + Prelude.Rng.int rng 40, 1 + Prelude.Rng.int rng 40))
      in
      return (sp, dims))
  in
  QCheck.make gen

let prop_pack_equals_fast =
  QCheck.Test.make ~name:"pack = pack_fast" ~count:300 arb_sp_dims
    (fun (sp, d) ->
      let dims c = d.(c) in
      Pack.pack sp dims = Pack.pack_fast sp dims)

let prop_pack_equals_veb =
  QCheck.Test.make ~name:"pack = pack_veb" ~count:300 arb_sp_dims
    (fun (sp, d) ->
      let dims c = d.(c) in
      Pack.pack sp dims = Pack.pack_veb sp dims)

let prop_pack_overlap_free =
  QCheck.Test.make ~name:"pack overlap-free" ~count:300 arb_sp_dims
    (fun (sp, d) ->
      let dims c = d.(c) in
      Result.is_ok
        (Constraints.Placement_check.overlap_free (Pack.pack sp dims)))

let prop_pack_respects_relations =
  QCheck.Test.make ~name:"pack respects left-of/below" ~count:100 arb_sp_dims
    (fun (sp, d) ->
      let dims c = d.(c) in
      let placed = Array.of_list (Pack.pack sp dims) in
      let n = Array.length placed in
      let rect c = placed.(c).Geometry.Transform.rect in
      let ok = ref true in
      for a = 0 to n - 1 do
        for b = 0 to n - 1 do
          if a <> b then
            match Sp.relation sp a b with
            | Sp.Left_of ->
                if Geometry.Rect.x_max (rect a) > (rect b).Geometry.Rect.x then
                  ok := false
            | Sp.Below ->
                if Geometry.Rect.y_max (rect a) > (rect b).Geometry.Rect.y then
                  ok := false
            | Sp.Right_of | Sp.Above -> ()
        done
      done;
      !ok)

(* One scratch shared by every random case below: exercises the
   clear-and-reuse path of the buffer evaluators across varying sizes. *)
let shared_scratch = Pack.scratch 18

let agrees_with_pack into (sp, d) =
  let n = Array.length d in
  let dims c = d.(c) in
  let w = Array.init n (fun c -> fst d.(c))
  and h = Array.init n (fun c -> snd d.(c))
  and x = Array.make n (-1)
  and y = Array.make n (-1) in
  into sp ~w ~h ~x ~y;
  List.for_all
    (fun (p : Geometry.Transform.placed) ->
      x.(p.cell) = p.rect.Geometry.Rect.x
      && y.(p.cell) = p.rect.Geometry.Rect.y)
    (Pack.pack sp dims)

let prop_pack_into_agrees =
  QCheck.Test.make ~name:"pack_into = pack" ~count:300 arb_sp_dims
    (agrees_with_pack Pack.pack_into)

let prop_pack_fast_into_agrees =
  QCheck.Test.make ~name:"pack_fast_into = pack (scratch reused)" ~count:300
    arb_sp_dims
    (agrees_with_pack (Pack.pack_fast_into shared_scratch))

let prop_pack_veb_into_agrees =
  QCheck.Test.make ~name:"pack_veb_into = pack (scratch reused)" ~count:300
    arb_sp_dims
    (agrees_with_pack (Pack.pack_veb_into shared_scratch))

let prop_moves_preserve_permutation =
  QCheck.Test.make ~name:"moves yield valid sequence-pairs" ~count:300
    QCheck.(pair (int_range 2 15) small_int)
    (fun (n, seed) ->
      let rng = Prelude.Rng.create seed in
      let sp = ref (Sp.random rng n) in
      for _ = 1 to 20 do
        sp := Moves.random_neighbor rng !sp
      done;
      let sorted p = List.sort Int.compare (Perm.to_list p) in
      sorted !sp.Sp.alpha = List.init n Fun.id
      && sorted !sp.Sp.beta = List.init n Fun.id)

let () =
  Alcotest.run "seqpair"
    [
      ( "perm",
        [
          Alcotest.test_case "basics" `Quick test_perm_basics;
          Alcotest.test_case "swap" `Quick test_perm_swap;
          Alcotest.test_case "insert" `Quick test_perm_insert;
          Alcotest.test_case "reorder" `Quick test_perm_reorder;
        ] );
      ( "relations",
        [
          Alcotest.test_case "paper example" `Quick test_relations_paper_example;
          Alcotest.test_case "of_strings errors" `Quick test_of_strings_errors;
        ] );
      ( "pack",
        [
          Alcotest.test_case "two cells" `Quick test_pack_two_cells;
          Alcotest.test_case "bit vs naive" `Quick test_bit;
          Alcotest.test_case "veb vs reference" `Quick test_veb_against_reference;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_pack_equals_fast;
            prop_pack_equals_veb;
            prop_pack_into_agrees;
            prop_pack_fast_into_agrees;
            prop_pack_veb_into_agrees;
            prop_pack_overlap_free;
            prop_pack_respects_relations;
            prop_moves_preserve_permutation;
          ] );
    ]
