let test_determinism () =
  let a = Prelude.Rng.create 7 and b = Prelude.Rng.create 7 in
  let sa = List.init 100 (fun _ -> Prelude.Rng.int a 1000) in
  let sb = List.init 100 (fun _ -> Prelude.Rng.int b 1000) in
  Alcotest.(check (list int)) "same seed same stream" sa sb;
  let c = Prelude.Rng.create 8 in
  let sc = List.init 100 (fun _ -> Prelude.Rng.int c 1000) in
  Alcotest.(check bool) "different seed differs" true (sa <> sc)

let test_split_independent () =
  let a = Prelude.Rng.create 7 in
  let b = Prelude.Rng.split a in
  let sa = List.init 50 (fun _ -> Prelude.Rng.int a 1000) in
  let sb = List.init 50 (fun _ -> Prelude.Rng.int b 1000) in
  Alcotest.(check bool) "split stream differs" true (sa <> sb)

(* The first 1,000 draws of each kind from a fresh generator, printed
   one per line (ints at bound [max_int], so all 62 bits show; floats
   as their IEEE bits; bools as 0/1), and the MD5 of that table. The
   digests were taken from the boxed-Int64 generator this one
   replaced: any change to the splitmix stream changes them. *)
let draw_table seed kind =
  let r = Prelude.Rng.create seed in
  let b = Buffer.create 20_000 in
  for _ = 1 to 1000 do
    match kind with
    | `Int -> Printf.bprintf b "%d\n" (Prelude.Rng.int r max_int)
    | `Float ->
        Printf.bprintf b "%Lx\n" (Int64.bits_of_float (Prelude.Rng.float r 1.0))
    | `Bool -> Buffer.add_char b (if Prelude.Rng.bool r then '1' else '0')
  done;
  Buffer.contents b

let test_pinned_streams () =
  let md5 s = Digest.to_hex (Digest.string s) in
  List.iter
    (fun (seed, kind, name, digest, head) ->
      let table = draw_table seed kind in
      let label = Printf.sprintf "seed %d %s" seed name in
      Alcotest.(check string) (label ^ " head") head
        (String.sub table 0 (String.length head));
      Alcotest.(check string) (label ^ " md5") digest (md5 table))
    [
      (0, `Int, "int", "c1ef6a50a2167c6c84b59df5a097c005", "4073552104164651883\n");
      (0, `Float, "float", "3e50f8f756eb0a3e6916a520a4cea389", "3fec4415072f63b9\n");
      (0, `Bool, "bool", "02d3280dc59306bb37d5b74cf7f1e434", "1010101010");
      (1, `Int, "int", "4d2b31cc7415f78a86644c2802cdb4cb", "2612804094800205616\n");
      (1, `Float, "float", "10d3f08f39e07d31a89418ec2e082b49", "3fe22145bd91204b\n");
      (1, `Bool, "bool", "80c5d0730c439816a5205d0061c1a56f", "1101101100");
      (2009, `Int, "int", "a441c02e5dcc5a7199d0f1bb2ce06ba1", "349532157138952150\n");
      (2009, `Float, "float", "377a4513ef2819be604867480009e2f6", "3fb36726947f5f78\n");
      (2009, `Bool, "bool", "871998d781e95962fb41f2baf345cfaa", "0010001000");
    ];
  (* a split child and its parent, drawn alternately *)
  let r = Prelude.Rng.create 2009 in
  let c = Prelude.Rng.split r in
  let b = Buffer.create 40_000 in
  for _ = 1 to 1000 do
    Printf.bprintf b "%d\n" (Prelude.Rng.int c max_int);
    Printf.bprintf b "%d\n" (Prelude.Rng.int r max_int)
  done;
  Alcotest.(check string) "seed 2009 split md5" "e97bcdfe76ba6a9d220b5e0ae778295e"
    (md5 (Buffer.contents b))

let test_draws_allocate_nothing () =
  let r = Prelude.Rng.create 3 in
  let acc = ref 0 and hits = ref 0 in
  let m0 = Gc.minor_words () in
  for _ = 1 to 1000 do
    acc := !acc + Prelude.Rng.int r 1000;
    if Prelude.Rng.bool r then incr hits
  done;
  let words = Gc.minor_words () -. m0 in
  (* a float draw still boxes its result at a call from another
     module, which cannot inline it *)
  Alcotest.(check (float 0.0)) "minor words for 1,000 int + bool draws" 0.0 words;
  Alcotest.(check bool) "draws used" true (!acc > 0 && !hits > 0)

let test_int_bounds () =
  let rng = Prelude.Rng.create 3 in
  for _ = 1 to 10_000 do
    let v = Prelude.Rng.int rng 17 in
    if v < 0 || v >= 17 then Alcotest.fail "out of range"
  done;
  Alcotest.(check_raises) "zero bound"
    (Invalid_argument "Rng.int: non-positive bound") (fun () ->
      ignore (Prelude.Rng.int rng 0))

let test_int_in () =
  let rng = Prelude.Rng.create 5 in
  for _ = 1 to 1000 do
    let v = Prelude.Rng.int_in rng (-3) 4 in
    if v < -3 || v > 4 then Alcotest.fail "out of range"
  done

let test_permutation () =
  let rng = Prelude.Rng.create 9 in
  for n = 1 to 20 do
    let p = Prelude.Rng.permutation rng n in
    let sorted = Array.copy p in
    Array.sort Int.compare sorted;
    Alcotest.(check (array int)) "is a permutation" (Array.init n Fun.id) sorted
  done

let test_choose_weighted () =
  let rng = Prelude.Rng.create 12 in
  let picks =
    List.init 2000 (fun _ ->
        Prelude.Rng.choose_weighted rng [ (9.0, "a"); (1.0, "b") ])
  in
  let a_count = List.length (List.filter (String.equal "a") picks) in
  Alcotest.(check bool) "weighting respected"
    true
    (a_count > 1500 && a_count < 2000)

let test_gaussian () =
  let rng = Prelude.Rng.create 21 in
  let xs = List.init 5000 (fun _ -> Prelude.Rng.gaussian rng) in
  let m = Prelude.Stats.mean xs and sd = Prelude.Stats.stddev xs in
  Alcotest.(check bool) "mean near 0" true (Float.abs m < 0.1);
  Alcotest.(check bool) "sd near 1" true (Float.abs (sd -. 1.0) < 0.1)

let test_stats () =
  Alcotest.(check (float 1e-9)) "mean" 2.0 (Prelude.Stats.mean [ 1.0; 2.0; 3.0 ]);
  Alcotest.(check (float 1e-9)) "mean empty" 0.0 (Prelude.Stats.mean []);
  Alcotest.(check (float 1e-9)) "geo mean" 2.0
    (Prelude.Stats.geo_mean [ 1.0; 2.0; 4.0 ]);
  Alcotest.(check (float 1e-6)) "stddev" 0.816496580927726
    (Prelude.Stats.stddev [ 1.0; 2.0; 3.0 ]);
  Alcotest.(check (float 1e-9)) "percent" 25.0 (Prelude.Stats.percent 1.0 4.0);
  Alcotest.(check (float 1e-9)) "percent div0" 0.0 (Prelude.Stats.percent 1.0 0.0)

(* numpy type-7 reference values: position (n-1)q, linear interpolation *)
let test_quantile () =
  let q = Prelude.Stats.quantile in
  let xs = [ 1.0; 2.0; 3.0; 4.0 ] in
  Alcotest.(check (float 1e-9)) "median of 4" 2.5 (q xs 0.5);
  Alcotest.(check (float 1e-9)) "q1 of 4" 1.75 (q xs 0.25);
  Alcotest.(check (float 1e-9)) "q3 of 4" 3.25 (q xs 0.75);
  Alcotest.(check (float 1e-9)) "min" 1.0 (q xs 0.0);
  Alcotest.(check (float 1e-9)) "max" 4.0 (q xs 1.0);
  Alcotest.(check (float 1e-9)) "median of 5" 3.0 (q [ 5.0; 3.0; 1.0; 4.0; 2.0 ] 0.5);
  Alcotest.(check (float 1e-9)) "p90 of 1..10" 9.1
    (q (List.init 10 (fun i -> float_of_int (i + 1))) 0.9);
  Alcotest.(check (float 1e-9)) "unsorted input" 2.5 (q [ 4.0; 1.0; 3.0; 2.0 ] 0.5);
  Alcotest.(check (float 1e-9)) "singleton" 7.0 (q [ 7.0 ] 0.9);
  Alcotest.(check (float 1e-9)) "empty" 0.0 (q [] 0.5);
  Alcotest.(check (float 1e-9)) "q clamped" 4.0 (q xs 1.5);
  (* edge cases the regression gate leans on: degenerate sample sets
     must give exact, not interpolated-garbage, answers *)
  Alcotest.(check (float 1e-9)) "empty at q=0" 0.0 (q [] 0.0);
  Alcotest.(check (float 1e-9)) "empty at q=1" 0.0 (q [] 1.0);
  Alcotest.(check (float 1e-9)) "singleton any q" 7.0 (q [ 7.0 ] 0.0);
  Alcotest.(check (float 1e-9)) "all equal" 3.0 (q [ 3.0; 3.0; 3.0; 3.0 ] 0.9);
  Alcotest.(check (float 1e-9)) "negative q clamps" 1.0 (q xs (-0.5))

let test_quantile_weighted () =
  let qw = Prelude.Stats.quantile_weighted in
  (* weights expand to the plain multiset *)
  Alcotest.(check (float 1e-9))
    "expanded multiset"
    (Prelude.Stats.quantile [ 1.0; 1.0; 1.0; 5.0 ] 0.5)
    (qw [ (1.0, 3); (5.0, 1) ] 0.5);
  Alcotest.(check (float 1e-9))
    "interpolates across points" 3.0
    (qw [ (1.0, 1); (5.0, 1) ] 0.5);
  Alcotest.(check (float 1e-9)) "zero weights dropped" 2.0
    (qw [ (1.0, 0); (2.0, 5) ] 0.5);
  Alcotest.(check (float 1e-9)) "empty" 0.0 (qw [] 0.5);
  Alcotest.(check (float 1e-9)) "single point" 4.0 (qw [ (4.0, 3) ] 0.99);
  Alcotest.(check (float 1e-9)) "all weights zero" 0.0
    (qw [ (1.0, 0); (2.0, 0) ] 0.5);
  (* equal weights reduce to the unweighted quantile of the values *)
  Alcotest.(check (float 1e-9))
    "all-equal weights = plain quantile"
    (Prelude.Stats.quantile [ 1.0; 2.0; 3.0; 4.0 ] 0.75)
    (qw [ (1.0, 1); (2.0, 1); (3.0, 1); (4.0, 1) ] 0.75)

let prop_quantile_weighted_expands =
  QCheck.Test.make ~name:"quantile_weighted = quantile of expansion" ~count:200
    QCheck.(
      pair
        (list_of_size Gen.(1 -- 8) (pair (float_bound_exclusive 100.0) (1 -- 5)))
        (float_bound_inclusive 1.0))
    (fun (pts, q) ->
      let expanded =
        List.concat_map (fun (v, w) -> List.init w (fun _ -> v)) pts
      in
      Float.abs
        (Prelude.Stats.quantile_weighted pts q
        -. Prelude.Stats.quantile expanded q)
      < 1e-9)

let prop_shuffle_permutes =
  QCheck.Test.make ~name:"shuffle preserves multiset" ~count:200
    QCheck.(pair small_int (list small_int))
    (fun (seed, xs) ->
      let rng = Prelude.Rng.create seed in
      let arr = Array.of_list xs in
      Prelude.Rng.shuffle rng arr;
      List.sort Int.compare (Array.to_list arr) = List.sort Int.compare xs)

let () =
  Alcotest.run "prelude"
    [
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "split" `Quick test_split_independent;
          Alcotest.test_case "pinned streams" `Quick test_pinned_streams;
          Alcotest.test_case "draws allocate nothing" `Quick
            test_draws_allocate_nothing;
          Alcotest.test_case "int bounds" `Quick test_int_bounds;
          Alcotest.test_case "int_in" `Quick test_int_in;
          Alcotest.test_case "permutation" `Quick test_permutation;
          Alcotest.test_case "choose_weighted" `Quick test_choose_weighted;
          Alcotest.test_case "gaussian" `Quick test_gaussian;
        ] );
      ( "stats",
        [
          Alcotest.test_case "basics" `Quick test_stats;
          Alcotest.test_case "quantile" `Quick test_quantile;
          Alcotest.test_case "quantile weighted" `Quick test_quantile_weighted;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_shuffle_permutes; prop_quantile_weighted_expands ] );
    ]
