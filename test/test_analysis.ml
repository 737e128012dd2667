open Geometry
module G = Constraints.Symmetry_group
module H = Netlist.Hierarchy
module D = Analysis.Diagnostic
module Lint = Analysis.Lint
module Inv = Analysis.Invariant

let block = Netlist.Circuit.block
let net name pins = Netlist.Net.make ~name ~pins ()

let circ ?(nets = []) mods =
  Netlist.Circuit.make ~name:"t" ~modules:mods ~nets

(* A well-formed 6-cell circuit used as the clean baseline: uniform
   4x4 blocks (so any pairing mirrors), one net over all cells. *)
let clean_circuit () =
  circ
    ~nets:[ net "all" [ 0; 1; 2; 3; 4; 5 ] ]
    (List.init 6 (fun i -> block ~name:(Printf.sprintf "m%d" i) ~w:4 ~h:4))

let has_code code ds = List.exists (fun (d : D.t) -> d.D.code = code) ds

let check_code ~trigger ~clean code =
  Alcotest.(check bool) (code ^ " triggered") true (has_code code trigger);
  Alcotest.(check bool) (code ^ " clean") false (has_code code clean)

let place cell x y w h =
  Transform.place ~cell ~x ~y ~w ~h ~orient:Orientation.R0

(* ---- diagnostics -------------------------------------------------- *)

let test_diagnostic_basics () =
  let d =
    D.warning ~code:"AL008" ~subject:"net \"x\"" ~hint:"drop it"
      "message with\nnewline"
  in
  let j = D.to_json d in
  Alcotest.(check bool) "escapes newline" true
    (String.length j > 0
    && (not (String.contains j '\n'))
    && String.length (D.list_to_json [ d; d ]) > (2 * String.length j));
  Alcotest.(check (list string)) "codes" [ "AL008" ] (D.codes [ d; d ]);
  Alcotest.(check bool) "warning is not error" false (D.has_errors [ d ]);
  let line = Format.asprintf "%a" D.pp d in
  Alcotest.(check bool) "pp mentions code and hint" true
    (Astring.String.is_infix ~affix:"AL008" line
     && Astring.String.is_infix ~affix:"drop it" line)

(* ---- static lints: trigger + clean fixture per code --------------- *)

let test_al001_pin_range () =
  (* Circuit.make rejects out-of-range pins, so corrupt the record
     directly — exactly what the lint exists to catch. *)
  let bad =
    {
      Netlist.Circuit.name = "t";
      modules = [| block ~name:"a" ~w:4 ~h:4 |];
      nets = [ { Netlist.Net.name = "n"; pins = [ 0; 3 ]; weight = 1.0 } ];
    }
  in
  check_code "AL001" ~trigger:(Lint.circuit bad)
    ~clean:(Lint.circuit (clean_circuit ()))

let test_al002_duplicate_names () =
  let bad = circ [ block ~name:"a" ~w:4 ~h:4; block ~name:"a" ~w:4 ~h:4 ] in
  check_code "AL002" ~trigger:(Lint.circuit bad)
    ~clean:(Lint.circuit (clean_circuit ()))

let test_al003_dims () =
  let bad = circ [ block ~name:"a" ~w:0 ~h:4 ] in
  check_code "AL003" ~trigger:(Lint.circuit bad)
    ~clean:(Lint.circuit (clean_circuit ()))

let test_al004_group_range () =
  let c = clean_circuit () in
  let g = G.make ~pairs:[ (0, 9) ] ~selfs:[] () in
  check_code "AL004"
    ~trigger:(Lint.groups c [ g ])
    ~clean:(Lint.groups c [ G.make ~pairs:[ (0, 1) ] ~selfs:[] () ])

let test_al005_group_overlap () =
  let c = clean_circuit () in
  let g1 = G.make ~name:"g1" ~pairs:[ (0, 1) ] ~selfs:[] () in
  let g2 = G.make ~name:"g2" ~pairs:[ (1, 2) ] ~selfs:[] () in
  let g2' = G.make ~name:"g2" ~pairs:[ (2, 3) ] ~selfs:[] () in
  check_code "AL005"
    ~trigger:(Lint.groups c [ g1; g2 ])
    ~clean:(Lint.groups c [ g1; g2' ]);
  (* pair-member of one group, self of another *)
  let g3 = G.make ~name:"g3" ~pairs:[] ~selfs:[ 0 ] () in
  Alcotest.(check bool) "pair+self overlap" true
    (has_code "AL005" (Lint.groups c [ g1; g3 ]))

let test_al006_pair_dims () =
  let c =
    circ [ block ~name:"a" ~w:4 ~h:5; block ~name:"b" ~w:5 ~h:5 ]
  in
  let g = G.make ~pairs:[ (0, 1) ] ~selfs:[] () in
  check_code "AL006"
    ~trigger:(Lint.groups c [ g ])
    ~clean:(Lint.groups (clean_circuit ()) [ g ])

let test_al007_self_parity () =
  let c =
    circ [ block ~name:"a" ~w:4 ~h:4; block ~name:"b" ~w:5 ~h:4 ]
  in
  let g = G.make ~pairs:[] ~selfs:[ 0; 1 ] () in
  let c' =
    circ [ block ~name:"a" ~w:4 ~h:4; block ~name:"b" ~w:6 ~h:4 ]
  in
  check_code "AL007"
    ~trigger:(Lint.groups c [ g ])
    ~clean:(Lint.groups c' [ g ])

let test_al008_net_degree () =
  let bad =
    circ
      ~nets:[ net "dangling" [ 0 ]; net "ok" [ 0; 1 ] ]
      [ block ~name:"a" ~w:4 ~h:4; block ~name:"b" ~w:4 ~h:4 ]
  in
  check_code "AL008" ~trigger:(Lint.circuit bad)
    ~clean:(Lint.circuit (clean_circuit ()))

let test_al009_centroid_parity () =
  let c =
    circ
      [
        block ~name:"a" ~w:4 ~h:4;
        block ~name:"b" ~w:6 ~h:4;
        block ~name:"c" ~w:8 ~h:4;
      ]
  in
  let h kind leaves = H.node ~kind "cc" (List.map (fun i -> H.Leaf i) leaves) in
  (* three distinct size classes, each odd *)
  check_code "AL009"
    ~trigger:(Lint.hierarchy c (h H.Common_centroid [ 0; 1; 2 ]))
    ~clean:
      (Lint.hierarchy
         (circ
            [
              block ~name:"a" ~w:4 ~h:4;
              block ~name:"b" ~w:4 ~h:4;
              block ~name:"c" ~w:6 ~h:4;
              block ~name:"d" ~w:6 ~h:4;
            ])
         (h H.Common_centroid [ 0; 1; 2; 3 ]));
  (* one odd class (the middle cell can sit on the centroid) is fine *)
  Alcotest.(check bool) "single odd class ok" false
    (has_code "AL009"
       (Lint.hierarchy
          (circ
             [
               block ~name:"a" ~w:4 ~h:4;
               block ~name:"b" ~w:4 ~h:4;
               block ~name:"c" ~w:6 ~h:4;
             ])
          (h H.Common_centroid [ 0; 1; 2 ])));
  (* non-centroid nodes are not checked *)
  Alcotest.(check bool) "proximity not checked" false
    (has_code "AL009" (Lint.hierarchy c (h H.Proximity [ 0; 1; 2 ])))

let test_al010_over_constrained () =
  let c =
    circ (List.init 4 (fun i -> block ~name:(string_of_int i) ~w:4 ~h:4))
  in
  (* all four cells in one group: bound = (4!)^2 / 4! = 24 codes *)
  let g = G.make ~pairs:[ (0, 1) ] ~selfs:[ 2; 3 ] () in
  check_code "AL010"
    ~trigger:(Lint.groups c [ g ])
    ~clean:(Lint.groups (clean_circuit ()) [ G.make ~pairs:[ (0, 1) ] ~selfs:[] () ]);
  (* an overflowing bound means a huge space: never over-constrained *)
  let big =
    circ (List.init 20 (fun i -> block ~name:(string_of_int i) ~w:4 ~h:4))
  in
  Alcotest.(check bool) "overflow suppresses AL010" false
    (has_code "AL010" (Lint.groups big [ G.make ~pairs:[ (0, 1) ] ~selfs:[] () ]))

let test_al011_trivial_group () =
  let c = clean_circuit () in
  check_code "AL011"
    ~trigger:(Lint.groups c [ G.make ~pairs:[] ~selfs:[ 0 ] () ])
    ~clean:(Lint.groups c [ G.make ~pairs:[ (0, 1) ] ~selfs:[] () ])

let test_al012_isolated () =
  let bad =
    circ
      ~nets:[ net "n" [ 0; 1 ] ]
      (List.init 3 (fun i -> block ~name:(string_of_int i) ~w:4 ~h:4))
  in
  check_code "AL012" ~trigger:(Lint.circuit bad)
    ~clean:(Lint.circuit (clean_circuit ()))

let test_lint_all_clean_benchmarks () =
  List.iter
    (fun (b : Netlist.Benchmarks.bench) ->
      let ds =
        Lint.all b.Netlist.Benchmarks.circuit b.Netlist.Benchmarks.hierarchy
      in
      Alcotest.(check (list string))
        (b.Netlist.Benchmarks.label ^ " error codes")
        []
        (D.codes (D.errors ds)))
    [ Netlist.Benchmarks.miller (); Netlist.Benchmarks.fig2_design () ]

let test_lint_code_coverage () =
  (* the engine must be able to report at least 8 distinct codes *)
  let all =
    Lint.circuit
      {
        Netlist.Circuit.name = "t";
        modules =
          [|
            block ~name:"a" ~w:4 ~h:4;
            block ~name:"a" ~w:0 ~h:4;
            block ~name:"b" ~w:4 ~h:5;
            block ~name:"c" ~w:5 ~h:5;
            block ~name:"d" ~w:4 ~h:4;
            block ~name:"e" ~w:5 ~h:4;
          |];
        nets =
          [
            { Netlist.Net.name = "oob"; pins = [ 0; 9 ]; weight = 1.0 };
            { Netlist.Net.name = "dangling"; pins = [ 0 ]; weight = 1.0 };
          ];
      }
    @ Lint.groups (clean_circuit ())
        [
          G.make ~name:"g1" ~pairs:[ (0, 1) ] ~selfs:[ 2; 3 ] ();
          G.make ~name:"g2" ~pairs:[ (1, 9) ] ~selfs:[] ();
          G.make ~name:"g3" ~pairs:[] ~selfs:[ 5 ] ();
        ]
    @ Lint.groups
        (circ [ block ~name:"a" ~w:4 ~h:5; block ~name:"b" ~w:5 ~h:5 ])
        [ G.make ~pairs:[ (0, 1) ] ~selfs:[] () ]
    @ Lint.groups
        (circ [ block ~name:"a" ~w:4 ~h:4; block ~name:"b" ~w:5 ~h:4 ])
        [ G.make ~pairs:[] ~selfs:[ 0; 1 ] () ]
    @ Lint.hierarchy
        (circ
           [
             block ~name:"a" ~w:4 ~h:4;
             block ~name:"b" ~w:6 ~h:4;
             block ~name:"c" ~w:8 ~h:4;
           ])
        (H.node ~kind:H.Common_centroid "cc" [ H.Leaf 0; H.Leaf 1; H.Leaf 2 ])
  in
  Alcotest.(check bool)
    (Printf.sprintf "≥8 distinct codes (got %s)"
       (String.concat "," (D.codes all)))
    true
    (List.length (D.codes all) >= 8)

(* ---- of_hierarchy edge cases (satellite) -------------------------- *)

let uniform n =
  circ (List.init n (fun i -> block ~name:(Printf.sprintf "u%d" i) ~w:4 ~h:4))

let assert_groups_lint_clean c groups =
  let ds = Lint.groups c groups in
  Alcotest.(check (list string)) "disjointness lints clean" []
    (D.codes (D.errors ds))

let test_of_hierarchy_trailing_odd () =
  let h =
    H.node ~kind:H.Symmetry "s" [ H.Leaf 0; H.Leaf 1; H.Leaf 2 ]
  in
  match G.of_hierarchy h with
  | [ g ] ->
      Alcotest.(check (list (pair int int))) "pair" [ (0, 1) ] g.G.pairs;
      Alcotest.(check (list int)) "trailing self" [ 2 ] g.G.selfs;
      assert_groups_lint_clean (uniform 3) [ g ]
  | gs -> Alcotest.fail (Printf.sprintf "%d groups" (List.length gs))

let test_of_hierarchy_nested_pair_node () =
  (* a two-leaf symmetry child contributes an explicit pair to the
     parent group, not its own group *)
  let h =
    H.node ~kind:H.Symmetry "outer"
      [
        H.node ~kind:H.Symmetry "inner" [ H.Leaf 0; H.Leaf 1 ];
        H.Leaf 2;
        H.Leaf 3;
      ]
  in
  match G.of_hierarchy h with
  | [ g ] ->
      Alcotest.(check (list (pair int int)))
        "explicit + leaf pairs"
        [ (0, 1); (2, 3) ]
        g.G.pairs;
      Alcotest.(check (list int)) "no selfs" [] g.G.selfs;
      assert_groups_lint_clean (uniform 4) [ g ]
  | gs -> Alcotest.fail (Printf.sprintf "%d groups" (List.length gs))

let test_of_hierarchy_nested_group () =
  (* a nested symmetry node with three leaves yields its own group,
     disjoint from the outer group *)
  let h =
    H.node ~kind:H.Symmetry "outer"
      [
        H.node ~kind:H.Symmetry "inner" [ H.Leaf 0; H.Leaf 1; H.Leaf 2 ];
        H.Leaf 3;
        H.Leaf 4;
      ]
  in
  let gs = G.of_hierarchy h in
  Alcotest.(check int) "two groups" 2 (List.length gs);
  assert_groups_lint_clean (uniform 5) gs;
  let members = List.concat_map G.members gs in
  Alcotest.(check (list int)) "all cells covered" [ 0; 1; 2; 3; 4 ]
    (List.sort Int.compare members)

let test_of_hierarchy_ignores_non_leaf () =
  (* non-symmetry child nodes are ignored by the parent group (they
     become islands for the hierarchical placers) but still recursed
     into *)
  let h =
    H.node ~kind:H.Symmetry "s"
      [
        H.node ~kind:H.Proximity "p" [ H.Leaf 0; H.Leaf 1 ];
        H.node ~kind:H.Common_centroid "cc" [ H.Leaf 2; H.Leaf 3 ];
        H.Leaf 4;
        H.Leaf 5;
      ]
  in
  match G.of_hierarchy h with
  | [ g ] ->
      Alcotest.(check (list (pair int int))) "leaf pair only" [ (4, 5) ]
        g.G.pairs;
      Alcotest.(check (list int)) "no selfs" [] g.G.selfs;
      assert_groups_lint_clean (uniform 6) [ g ]
  | gs -> Alcotest.fail (Printf.sprintf "%d groups" (List.length gs))

(* ---- invariants --------------------------------------------------- *)

let fig1_sp_group () =
  let sp, mapping = Seqpair.Sp.of_strings ~alpha:"EBAFCDG" ~beta:"EBCDFAG" in
  let idx c = List.assoc c mapping in
  ( sp,
    G.make
      ~pairs:[ (idx 'C', idx 'D'); (idx 'B', idx 'G') ]
      ~selfs:[ idx 'A'; idx 'F' ] () )

let test_invariant_sp () =
  let sp, g = fig1_sp_group () in
  Alcotest.(check (list string)) "consistent sp" [] (D.codes (Inv.check_sp ~n:7 sp));
  Alcotest.(check bool) "wrong n caught" true
    (has_code "AL101" (Inv.check_sp ~n:8 sp));
  Alcotest.(check (list string)) "feasible" [] (D.codes (Inv.check_sf sp [ g ]))

let test_invariant_corrupted_sp () =
  let sp, g = fig1_sp_group () in
  (* swap two group members in alpha only: escapes the S-F subspace *)
  let bad =
    Seqpair.Sp.make
      ~alpha:(Seqpair.Perm.swap_cells sp.Seqpair.Sp.alpha 2 3)
      ~beta:sp.Seqpair.Sp.beta
  in
  Alcotest.(check bool) "AL102 reported" true
    (has_code "AL102" (Inv.check_sf bad [ g ]));
  Alcotest.(check bool) "raise_if_any raises Violation" true
    (match Inv.raise_if_any ~context:"test" (Inv.check_sf bad [ g ]) with
    | () -> false
    | exception Inv.Violation ("test", _ :: _) -> true)

(* The placement audit every engine's sanitizer runs is
   [Verify.placement]: identity and multiplicity, overlap, quadrant
   and outline, and the declared symmetry groups. *)
let test_invariant_audit_placed () =
  let c =
    Netlist.Circuit.make ~name:"two"
      ~modules:
        [
          Netlist.Circuit.block ~name:"a" ~w:4 ~h:4;
          Netlist.Circuit.block ~name:"b" ~w:4 ~h:4;
        ]
      ~nets:[]
  in
  let audit ?groups ?outline placed =
    Analysis.Verify.placement ?groups ?outline c placed
  in
  let good = [ place 0 0 0 4 4; place 1 4 0 4 4 ] in
  Alcotest.(check (list string)) "clean audit" [] (D.codes (audit good));
  Alcotest.(check bool) "overlap AL212" true
    (has_code "AL212" (audit [ place 0 0 0 4 4; place 1 2 0 4 4 ]));
  Alcotest.(check bool) "duplicate cell AL211" true
    (has_code "AL211" (audit [ place 0 0 0 4 4; place 0 8 0 4 4 ]));
  Alcotest.(check bool) "missing cell AL211" true
    (has_code "AL211" (audit [ place 0 0 0 4 4 ]));
  Alcotest.(check bool) "negative coords AL213" true
    (has_code "AL213" (audit [ place 0 (-1) 0 4 4; place 1 4 0 4 4 ]));
  Alcotest.(check bool) "outline AL213" true
    (has_code "AL213" (audit ~outline:(6, 6) good));
  let g = G.make ~pairs:[ (0, 1) ] ~selfs:[] () in
  Alcotest.(check (list string)) "symmetric pair ok" []
    (D.codes (audit ~groups:[ g ] [ place 0 0 0 4 4; place 1 8 0 4 4 ]));
  Alcotest.(check bool) "asymmetric AL214" true
    (has_code "AL214"
       (audit ~groups:[ g ] [ place 0 0 0 4 4; place 1 8 1 4 4 ]))

let test_env_switch () =
  Unix.putenv "ANALOG_VALIDATE" "";
  Alcotest.(check bool) "empty off" false (Inv.enabled_from_env ());
  Unix.putenv "ANALOG_VALIDATE" "0";
  Alcotest.(check bool) "0 off" false (Inv.enabled_from_env ());
  Unix.putenv "ANALOG_VALIDATE" "1";
  Alcotest.(check bool) "1 on" true (Inv.enabled_from_env ());
  Unix.putenv "ANALOG_VALIDATE" "false";
  Alcotest.(check bool) "false off" false (Inv.enabled_from_env ());
  Unix.putenv "ANALOG_VALIDATE" ""

(* ---- sanitizer-on annealing stress (satellite) -------------------- *)

let short_params ~n =
  {
    (Anneal.Sa.default_params ~n) with
    Anneal.Sa.max_rounds = 25;
    moves_per_round = 32;
  }

let test_sanitizer_stress_seqpair () =
  let circuit = Netlist.Benchmarks.fig1_circuit () in
  let pairs, selfs = Netlist.Benchmarks.fig1_symmetry in
  let groups = [ G.make ~pairs ~selfs () ] in
  let n = Netlist.Circuit.size circuit in
  let params = short_params ~n in
  List.iter
    (fun workers ->
      let o =
        Placer.Sa_seqpair.place ~groups ~params ?workers ~validate:true
          ~rng:(Prelude.Rng.create 7) circuit
      in
      Alcotest.(check bool)
        (Printf.sprintf "workers=%s placement valid"
           (match workers with None -> "-" | Some w -> string_of_int w))
        true
        (Result.is_ok
           (Placer.Placement.validate o.Placer.Sa_seqpair.placement)))
    [ None; Some 1; Some 4 ]

let test_sanitizer_stress_bstar () =
  let circuit = Netlist.Benchmarks.fig1_circuit () in
  let n = Netlist.Circuit.size circuit in
  let params = short_params ~n in
  List.iter
    (fun workers ->
      let o =
        Placer.Sa_bstar.place ~params ?workers ~validate:true
          ~rng:(Prelude.Rng.create 7) circuit
      in
      Alcotest.(check bool) "placement valid" true
        (Result.is_ok (Placer.Placement.validate o.Placer.Sa_bstar.placement)))
    [ None; Some 1; Some 4 ]

let test_sanitizer_off_is_identical () =
  (* validate must not change the annealing stream: same seed, same
     result with and without the sanitizer *)
  let circuit = Netlist.Benchmarks.fig1_circuit () in
  let pairs, selfs = Netlist.Benchmarks.fig1_symmetry in
  let groups = [ G.make ~pairs ~selfs () ] in
  let n = Netlist.Circuit.size circuit in
  let params = short_params ~n in
  let run validate =
    (Placer.Sa_seqpair.place ~groups ~params ~validate
       ~rng:(Prelude.Rng.create 3) circuit)
      .Placer.Sa_seqpair.cost
  in
  Alcotest.(check (float 1e-9)) "same best cost" (run false) (run true)

(* ---- diagnostic JSON round-trip (satellite) ----------------------- *)

let test_diagnostic_json_roundtrip () =
  let ds =
    [
      D.error ~code:"AL201" ~subject:"outline \"x\"" ~hint:"line1\nline2"
        "needs \"quotes\" and a tab\there";
      D.info ~code:"AL218" ~subject:"s" "no hint at all";
    ]
  in
  List.iter
    (fun d ->
      match Telemetry.Json.parse (D.to_json d) with
      | Ok j ->
          Alcotest.(check bool) "parse (to_json d) = json d" true (j = D.json d)
      | Error e -> Alcotest.fail e)
    ds;
  match Telemetry.Json.parse (D.list_to_json ds) with
  | Ok j ->
      Alcotest.(check bool) "list round-trips" true (j = D.list_json ds)
  | Error e -> Alcotest.fail e

let test_al000_parse_failure () =
  let d = Lint.parse_failure ~line:3 ~file:"bad.cir" "mangled card" in
  Alcotest.(check string) "code" "AL000" d.D.code;
  Alcotest.(check string) "subject carries file:line" "bad.cir:3" d.D.subject;
  Alcotest.(check bool) "is an error" true (D.has_errors [ d ]);
  let d2 = Lint.parse_failure ~file:"bad.cir" "no recognizable structure" in
  Alcotest.(check string) "subject without line" "bad.cir" d2.D.subject

(* ---- feasibility prover: trigger + clean fixture per code --------- *)

module F = Analysis.Feasibility

let test_al201_area () =
  let c = circ [ block ~name:"a" ~w:4 ~h:4; block ~name:"b" ~w:4 ~h:4 ] in
  check_code "AL201"
    ~trigger:(F.check ~outline:(5, 5) c)
    ~clean:(F.check ~outline:(8, 8) c);
  Alcotest.(check bool) "degenerate outline" true
    (has_code "AL201" (F.check ~outline:(0, 5) c));
  Alcotest.(check (list string)) "no outline, no outline proofs" []
    (D.codes (F.check c))

let test_al202_module_fit () =
  let c = circ [ block ~name:"a" ~w:6 ~h:2 ] in
  check_code "AL202"
    ~trigger:(F.check ~outline:(5, 5) c)
    ~clean:(F.check ~outline:(6, 6) c);
  Alcotest.(check bool) "rotated fit accepted" false
    (has_code "AL202" (F.check ~outline:(2, 6) c))

let test_al203_pair_fit () =
  let c = circ [ block ~name:"a" ~w:3 ~h:3; block ~name:"b" ~w:3 ~h:3 ] in
  let g = [ G.make ~pairs:[ (0, 1) ] ~selfs:[] () ] in
  check_code "AL203"
    ~trigger:(F.check ~groups:g ~outline:(5, 7) c)
    ~clean:(F.check ~groups:g ~outline:(6, 7) c)

let test_al204_pair_conflict () =
  (* two pairs of 4x2 cells: each needs a mirrored row of width 8; in a
     12x3 outline they fit alone but cannot share a row (16 > 12) nor
     stack (2+2 > 3) *)
  let c =
    circ (List.init 4 (fun i -> block ~name:(Printf.sprintf "p%d" i) ~w:4 ~h:2))
  in
  let gs =
    [
      G.make ~name:"g1" ~pairs:[ (0, 1) ] ~selfs:[] ();
      G.make ~name:"g2" ~pairs:[ (2, 3) ] ~selfs:[] ();
    ]
  in
  check_code "AL204"
    ~trigger:(F.check ~groups:gs ~outline:(12, 3) c)
    ~clean:(F.check ~groups:gs ~outline:(16, 3) c);
  Alcotest.(check bool) "enough height to stack clears it" false
    (has_code "AL204" (F.check ~groups:gs ~outline:(12, 4) c));
  Alcotest.(check bool) "the trigger is not an area proof" false
    (has_code "AL201" (F.check ~groups:gs ~outline:(12, 3) c))

let test_al205_basic_set () =
  (* two 3x3 cells pack to 6x3 or 3x6, never into 5x4 — even though
     area (18 <= 20) and each cell alone are fine *)
  let c = circ [ block ~name:"a" ~w:3 ~h:3; block ~name:"b" ~w:3 ~h:3 ] in
  let h = H.node ~kind:H.Proximity "px" [ H.Leaf 0; H.Leaf 1 ] in
  check_code "AL205"
    ~trigger:(F.check ~hierarchy:h ~outline:(5, 4) c)
    ~clean:(F.check ~hierarchy:h ~outline:(6, 4) c);
  Alcotest.(check bool) "the trigger is not an area proof" false
    (has_code "AL201" (F.check ~hierarchy:h ~outline:(5, 4) c))

let test_al206_search_space () =
  let sym = H.node ~kind:H.Symmetry "s" [ H.Leaf 0; H.Leaf 1 ] in
  let free = H.node ~kind:H.Free "f" (List.init 6 (fun i -> H.Leaf i)) in
  let c = clean_circuit () in
  check_code "AL206"
    ~trigger:(F.check ~hierarchy:sym c)
    ~clean:(F.check ~hierarchy:free c);
  Alcotest.(check bool) "threshold 1 silences it" false
    (has_code "AL206" (F.check ~sf_threshold:1 ~hierarchy:sym c));
  Alcotest.(check bool) "AL206 is a warning, not an error" false
    (D.has_errors (F.check ~hierarchy:sym c))

let test_al207_root_shape () =
  let c = circ [ block ~name:"a" ~w:3 ~h:3; block ~name:"b" ~w:3 ~h:3 ] in
  let h = H.node ~kind:H.Free "root" [ H.Leaf 0; H.Leaf 1 ] in
  check_code "AL207"
    ~trigger:(F.check ~deep:true ~hierarchy:h ~outline:(5, 4) c)
    ~clean:(F.check ~deep:true ~hierarchy:h ~outline:(6, 4) c);
  Alcotest.(check bool) "shallow mode skips AL207" false
    (has_code "AL207" (F.check ~hierarchy:h ~outline:(5, 4) c))

let test_feasibility_benchmarks_feasible () =
  (* a generous outline (everything stacked in one column fits) must
     yield no infeasibility proof on any shipped benchmark *)
  List.iter
    (fun (b : Netlist.Benchmarks.bench) ->
      let side =
        Array.fold_left
          (fun acc (m : Netlist.Circuit.module_) -> acc + max m.Netlist.Circuit.w m.Netlist.Circuit.h)
          0 b.Netlist.Benchmarks.circuit.Netlist.Circuit.modules
      in
      let ds =
        F.check ~hierarchy:b.Netlist.Benchmarks.hierarchy
          ~outline:(side, side) b.Netlist.Benchmarks.circuit
      in
      Alcotest.(check (list string))
        (b.Netlist.Benchmarks.label ^ " no proofs")
        []
        (D.codes (D.errors ds)))
    (Netlist.Benchmarks.table1_suite ())

let test_feasibility_proof_speed () =
  (* the prover's whole point: rejecting a doomed input must cost
     microseconds, not an annealing run *)
  let b = List.hd (Netlist.Benchmarks.table1_suite ()) in
  let t0 = Unix.gettimeofday () in
  let ds =
    F.check ~hierarchy:b.Netlist.Benchmarks.hierarchy ~outline:(8, 8)
      b.Netlist.Benchmarks.circuit
  in
  let ms = (Unix.gettimeofday () -. t0) *. 1000.0 in
  Alcotest.(check bool) "infeasibility proven" true (D.has_errors ds);
  Alcotest.(check bool) (Printf.sprintf "fast enough (%.3f ms)" ms) true
    (ms < 25.0)

(* ---- independent verifier: trigger + clean per code --------------- *)

module V = Analysis.Verify

let row () = List.init 6 (fun i -> place i (4 * i) 0 4 4)
let two = circ [ block ~name:"a" ~w:4 ~h:4; block ~name:"b" ~w:4 ~h:4 ]

let test_al210_identity () =
  let c = clean_circuit () in
  let bad = place 0 0 0 3 4 :: List.tl (row ()) in
  check_code "AL210" ~trigger:(V.placement c bad)
    ~clean:(V.placement c (row ()));
  Alcotest.(check bool) "unknown cell index" true
    (has_code "AL210" (V.placement c (place 9 0 24 4 4 :: row ())));
  let tall = circ [ block ~name:"a" ~w:2 ~h:6 ] in
  Alcotest.(check (list string)) "rotation accepted" []
    (D.codes (V.placement tall [ place 0 0 0 6 2 ]))

let test_al211_multiplicity () =
  let c = clean_circuit () in
  check_code "AL211"
    ~trigger:(V.placement c (List.tl (row ())))
    ~clean:(V.placement c (row ()));
  Alcotest.(check bool) "duplicate placement" true
    (has_code "AL211" (V.placement c (place 0 0 24 4 4 :: row ())))

let test_al212_overlaps () =
  check_code "AL212"
    ~trigger:(V.placement two [ place 0 0 0 4 4; place 1 2 0 4 4 ])
    ~clean:(V.placement two [ place 0 0 0 4 4; place 1 4 0 4 4 ]);
  (* DRC style: every offending pair, not just the first *)
  let c3 = circ (List.init 3 (fun i -> block ~name:(string_of_int i) ~w:4 ~h:4)) in
  let stacked = List.init 3 (fun i -> place i i 0 4 4) in
  Alcotest.(check int) "all three pairs reported" 3
    (List.length
       (List.filter (fun (d : D.t) -> d.D.code = "AL212")
          (V.placement c3 stacked)))

let test_al213_outline () =
  let fits = [ place 0 0 0 4 4; place 1 4 0 4 4 ] in
  check_code "AL213"
    ~trigger:(V.placement ~outline:(6, 6) two fits)
    ~clean:(V.placement ~outline:(8, 4) two fits);
  Alcotest.(check bool) "first quadrant enforced without outline" true
    (has_code "AL213"
       (V.placement two [ place 0 (-1) 0 4 4; place 1 4 0 4 4 ]))

let test_al214_symmetry () =
  let g = [ G.make ~pairs:[ (0, 1) ] ~selfs:[] () ] in
  check_code "AL214"
    ~trigger:(V.placement ~groups:g two [ place 0 0 0 4 4; place 1 8 1 4 4 ])
    ~clean:(V.placement ~groups:g two [ place 0 0 0 4 4; place 1 8 0 4 4 ]);
  (* the pairing-free ledger flavor: mirror about the set's own axis *)
  let sets y = [ ("s", "symmetry", [ 0; 1 ]) ] |> fun s ->
    V.placement ~constraint_sets:s two [ place 0 0 0 4 4; place 1 8 y 4 4 ]
  in
  Alcotest.(check bool) "recorded set mirrors" false (has_code "AL214" (sets 0));
  Alcotest.(check bool) "recorded set skewed" true (has_code "AL214" (sets 1))

let test_al215_centroid () =
  let c3 =
    circ (List.init 3 (fun i -> block ~name:(string_of_int i) ~w:4 ~h:4))
  in
  let sets = [ ("cc", "common-centroid", [ 0; 1; 2 ]) ] in
  check_code "AL215"
    ~trigger:
      (V.placement ~constraint_sets:sets c3
         [ place 0 0 0 4 4; place 1 4 0 4 4; place 2 12 0 4 4 ])
    ~clean:
      (V.placement ~constraint_sets:sets c3
         [ place 0 0 0 4 4; place 1 4 0 4 4; place 2 8 0 4 4 ])

let test_al216_proximity () =
  let sets = [ ("px", "proximity", [ 0; 1 ]) ] in
  check_code "AL216"
    ~trigger:
      (V.placement ~constraint_sets:sets two
         [ place 0 0 0 4 4; place 1 8 0 4 4 ])
    ~clean:
      (V.placement ~constraint_sets:sets two
         [ place 0 0 0 4 4; place 1 4 0 4 4 ]);
  (* hierarchy proximity nodes are the same obligation *)
  let h = H.node ~kind:H.Proximity "px" [ H.Leaf 0; H.Leaf 1 ] in
  Alcotest.(check bool) "hierarchy node checked" true
    (has_code "AL216"
       (V.placement ~hierarchy:h two [ place 0 0 0 4 4; place 1 8 0 4 4 ]))

let test_al217_unknown_kind () =
  let sets = [ ("th", "thermal", [ 0; 1 ]) ] in
  let ds =
    V.placement ~constraint_sets:sets two
      [ place 0 0 0 4 4; place 1 4 0 4 4 ]
  in
  Alcotest.(check bool) "AL217 emitted" true (has_code "AL217" ds);
  Alcotest.(check bool) "as a warning" false (D.has_errors ds)

let test_al218_al219_recorded () =
  let apart = [ place 0 0 0 4 4; place 1 8 0 4 4 ] in
  let close = [ place 0 0 0 4 4; place 1 4 0 4 4 ] in
  let run count placed =
    V.placement ~recorded_sets:[ ("px", "proximity", [ 0; 1 ], count) ] two
      placed
  in
  (* disclosed violation re-confirms as info, not error *)
  let confirmed = run 1 apart in
  Alcotest.(check bool) "AL218" true (has_code "AL218" confirmed);
  Alcotest.(check bool) "info only" false (D.has_errors confirmed);
  (* claim of satisfaction that fails re-verifies as the real error *)
  Alcotest.(check bool) "count 0 stays an error" true
    (has_code "AL216" (run 0 apart));
  (* recorded violation that does not reproduce: the record is suspect *)
  let vanished = run 1 close in
  Alcotest.(check bool) "AL219" true (has_code "AL219" vanished);
  Alcotest.(check bool) "warning only" false (D.has_errors vanished);
  Alcotest.(check (list string)) "clean record, clean verify" []
    (D.codes (run 0 close))

let lrect cell x y w h = { Telemetry.Ledger.cell; x; y; w; h }

let entry_of rects violations =
  Telemetry.Ledger.make ~generated_at:"2026-08-08T00:00:00Z" ~git_rev:"test"
    ~placement:rects ~label:"t" ~netlist_hash:"x" ~engine:"test" ~seed:1
    ~schedule:"s" ~workers:1 ~chains:1
    ~qor:
      (Telemetry.Qor.run ~violations ~cost:0.0 ~wall_s:0.0 ~sa_rounds:0
         ~evaluated:0 ~area:0 ~width:0 ~height:0 ~hpwl:0.0 ~term_area:0.0
         ~term_wirelength:0.0 ~term_aspect:0.0 ~dead_space_pct:0.0 ())
    ()

let test_verify_entry () =
  let viol count =
    [ { Telemetry.Qor.group = "px"; ckind = "proximity"; count; members = [ 0; 1 ] } ]
  in
  let rects = [ lrect "a" 0 0 4 4; lrect "b" 8 0 4 4 ] in
  (match V.entry (entry_of rects (viol 1)) with
  | Error m -> Alcotest.fail m
  | Ok ds ->
      Alcotest.(check bool) "disclosed violation confirmed" true
        (has_code "AL218" ds);
      Alcotest.(check bool) "no errors" false (D.has_errors ds));
  (match V.entry (entry_of rects (viol 0)) with
  | Error m -> Alcotest.fail m
  | Ok ds ->
      Alcotest.(check bool) "satisfaction claim re-checked hard" true
        (has_code "AL216" ds));
  (match V.entry ~outline:(10, 4) (entry_of rects (viol 1)) with
  | Error m -> Alcotest.fail m
  | Ok ds -> Alcotest.(check bool) "outline applies" true (has_code "AL213" ds));
  Alcotest.(check bool) "no rects is Error" true
    (Result.is_error (V.entry (entry_of [] [])))

(* ---- SARIF emitter ------------------------------------------------ *)

let test_sarif_emit_and_check () =
  let ds =
    [
      D.error ~code:"AL201" ~subject:"outline" "too small" ~hint:"grow it";
      D.warning ~code:"AL206" ~subject:"hierarchy" "pinned";
      D.error ~code:"AL201" ~subject:"outline again" "also too small";
    ]
  in
  let s = Analysis.Sarif.to_string ~uri:"runs.jsonl" ds in
  (match Analysis.Sarif.check s with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  (match Telemetry.Json.parse s with
  | Error e -> Alcotest.fail e
  | Ok j ->
      let open Telemetry.Json in
      let get o = Option.get o in
      let run = List.hd (get (Option.bind (member "runs" j) to_list)) in
      let driver = get (member "driver" (get (member "tool" run))) in
      let rules = get (Option.bind (member "rules" driver) to_list) in
      Alcotest.(check int) "one rule per distinct code" 2 (List.length rules);
      let results = get (Option.bind (member "results" run) to_list) in
      Alcotest.(check int) "one result per diagnostic" 3 (List.length results);
      let levels =
        List.filter_map (fun r -> Option.bind (member "level" r) to_str) results
      in
      Alcotest.(check (list string)) "levels map severities"
        [ "error"; "warning"; "error" ] levels);
  (match Analysis.Sarif.check (Analysis.Sarif.to_string []) with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "bare object rejected" true
    (Result.is_error (Analysis.Sarif.check "{}"));
  Alcotest.(check bool) "non-JSON rejected" true
    (Result.is_error (Analysis.Sarif.check "not json"))

(* ---- the verifier vs the engines (QCheck satellite) --------------- *)

(* The per-move sanitizer makes long anneals on the 65/110-cell
   benchmarks cost minutes; a handful of rounds is plenty to land in a
   non-trivial placement for the verifier to re-check. *)
let vparams ~n =
  {
    (Anneal.Sa.default_params ~n) with
    Anneal.Sa.max_rounds = (if n > 30 then 3 else 10);
    moves_per_round = (if n > 30 then 8 else 16);
  }

let verify_engine_placement (b : Netlist.Benchmarks.bench) seed =
  let circuit = b.Netlist.Benchmarks.circuit in
  let groups =
    G.of_hierarchy b.Netlist.Benchmarks.hierarchy
  in
  let n = Netlist.Circuit.size circuit in
  let params = vparams ~n in
  let o =
    Placer.Sa_seqpair.place ~groups ~params ~validate:true
      ~rng:(Prelude.Rng.create seed) circuit
  in
  V.placement ~groups circuit o.Placer.Sa_seqpair.placement.Placer.Placement.placed

let test_verify_accepts_engines_on_suite () =
  List.iter
    (fun (b : Netlist.Benchmarks.bench) ->
      Alcotest.(check (list string))
        (b.Netlist.Benchmarks.label ^ " verifies clean")
        []
        (D.codes (D.errors (verify_engine_placement b 42))))
    (Netlist.Benchmarks.table1_suite ())

let qcheck_verify_accepts_engines =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:6
       ~name:"verifier accepts every sanitizer-validated sp placement"
       (* random seeds over the four sub-25-cell benchmarks; the suite
          test above covers the two large ones deterministically *)
       QCheck.(pair (int_range 0 3) small_nat)
       (fun (bi, seed) ->
         let suite = Netlist.Benchmarks.table1_suite () in
         let b = List.nth suite (bi mod List.length suite) in
         not (D.has_errors (verify_engine_placement b (seed + 1)))))

let qcheck_verify_accepts_bstar =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:6
       ~name:"verifier accepts every sanitizer-validated bstar placement"
       QCheck.small_nat
       (fun seed ->
         let circuit = Netlist.Benchmarks.fig1_circuit () in
         let n = Netlist.Circuit.size circuit in
         let o =
           Placer.Sa_bstar.place ~params:(vparams ~n) ~validate:true
             ~rng:(Prelude.Rng.create (seed + 1)) circuit
         in
         not
           (D.has_errors
              (V.placement circuit
                 o.Placer.Sa_bstar.placement.Placer.Placement.placed))))

let () =
  Alcotest.run "analysis"
    [
      ( "diagnostic",
        [
          Alcotest.test_case "basics" `Quick test_diagnostic_basics;
          Alcotest.test_case "JSON round-trip" `Quick
            test_diagnostic_json_roundtrip;
          Alcotest.test_case "AL000 parse failure" `Quick
            test_al000_parse_failure;
        ] );
      ( "feasibility codes",
        [
          Alcotest.test_case "AL201 area" `Quick test_al201_area;
          Alcotest.test_case "AL202 module fit" `Quick test_al202_module_fit;
          Alcotest.test_case "AL203 pair fit" `Quick test_al203_pair_fit;
          Alcotest.test_case "AL204 pair conflict" `Quick
            test_al204_pair_conflict;
          Alcotest.test_case "AL205 basic set" `Quick test_al205_basic_set;
          Alcotest.test_case "AL206 search space" `Quick
            test_al206_search_space;
          Alcotest.test_case "AL207 root shape" `Quick test_al207_root_shape;
          Alcotest.test_case "benchmarks feasible" `Quick
            test_feasibility_benchmarks_feasible;
          Alcotest.test_case "proof speed" `Quick test_feasibility_proof_speed;
        ] );
      ( "verify codes",
        [
          Alcotest.test_case "AL210 identity" `Quick test_al210_identity;
          Alcotest.test_case "AL211 multiplicity" `Quick
            test_al211_multiplicity;
          Alcotest.test_case "AL212 overlaps" `Quick test_al212_overlaps;
          Alcotest.test_case "AL213 outline" `Quick test_al213_outline;
          Alcotest.test_case "AL214 symmetry" `Quick test_al214_symmetry;
          Alcotest.test_case "AL215 centroid" `Quick test_al215_centroid;
          Alcotest.test_case "AL216 proximity" `Quick test_al216_proximity;
          Alcotest.test_case "AL217 unknown kind" `Quick
            test_al217_unknown_kind;
          Alcotest.test_case "AL218/AL219 recorded" `Quick
            test_al218_al219_recorded;
          Alcotest.test_case "ledger entry" `Quick test_verify_entry;
        ] );
      ( "sarif",
        [ Alcotest.test_case "emit + self-check" `Quick test_sarif_emit_and_check ] );
      ( "verifier vs engines",
        [
          Alcotest.test_case "table1 suite, sp" `Quick
            test_verify_accepts_engines_on_suite;
          qcheck_verify_accepts_engines;
          qcheck_verify_accepts_bstar;
        ] );
      ( "lint codes",
        [
          Alcotest.test_case "AL001 pin range" `Quick test_al001_pin_range;
          Alcotest.test_case "AL002 duplicate names" `Quick
            test_al002_duplicate_names;
          Alcotest.test_case "AL003 dims" `Quick test_al003_dims;
          Alcotest.test_case "AL004 group range" `Quick test_al004_group_range;
          Alcotest.test_case "AL005 group overlap" `Quick
            test_al005_group_overlap;
          Alcotest.test_case "AL006 pair dims" `Quick test_al006_pair_dims;
          Alcotest.test_case "AL007 self parity" `Quick test_al007_self_parity;
          Alcotest.test_case "AL008 net degree" `Quick test_al008_net_degree;
          Alcotest.test_case "AL009 centroid parity" `Quick
            test_al009_centroid_parity;
          Alcotest.test_case "AL010 over-constrained" `Quick
            test_al010_over_constrained;
          Alcotest.test_case "AL011 trivial group" `Quick
            test_al011_trivial_group;
          Alcotest.test_case "AL012 isolated" `Quick test_al012_isolated;
          Alcotest.test_case "benchmarks lint clean" `Quick
            test_lint_all_clean_benchmarks;
          Alcotest.test_case "≥8 distinct codes" `Quick test_lint_code_coverage;
        ] );
      ( "of_hierarchy edges",
        [
          Alcotest.test_case "trailing odd leaf" `Quick
            test_of_hierarchy_trailing_odd;
          Alcotest.test_case "nested pair node" `Quick
            test_of_hierarchy_nested_pair_node;
          Alcotest.test_case "nested group" `Quick test_of_hierarchy_nested_group;
          Alcotest.test_case "ignored non-leaf children" `Quick
            test_of_hierarchy_ignores_non_leaf;
        ] );
      ( "invariants",
        [
          Alcotest.test_case "sequence-pair" `Quick test_invariant_sp;
          Alcotest.test_case "corrupted sp caught" `Quick
            test_invariant_corrupted_sp;
          Alcotest.test_case "placement audit" `Quick
            test_invariant_audit_placed;
          Alcotest.test_case "env switch" `Quick test_env_switch;
        ] );
      ( "sanitizer",
        [
          Alcotest.test_case "seqpair stress 1/4 workers" `Quick
            test_sanitizer_stress_seqpair;
          Alcotest.test_case "bstar stress 1/4 workers" `Quick
            test_sanitizer_stress_bstar;
          Alcotest.test_case "off is bit-identical" `Quick
            test_sanitizer_off_is_identical;
        ] );
    ]
