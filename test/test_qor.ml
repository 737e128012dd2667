(* The QoR observability layer: JSON value round-trips, QoR record
   serialization, the run ledger's byte-identical write/read/re-write
   contract, the Prometheus exposition + validator pair, regression
   detection, and the Placer/Anneal extraction paths. *)

module T = Telemetry

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let tmp_path name =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "qor_test_%d_%s" (Unix.getpid ()) name)

(* ---- Json ---------------------------------------------------------- *)

let test_json_roundtrip () =
  let doc =
    T.Json.Obj
      [
        ("a", T.Json.int 42);
        ("b", T.Json.float 1.5);
        ("c", T.Json.str "hi \"there\"\n");
        ("d", T.Json.Arr [ T.Json.Null; T.Json.bool true; T.Json.float 0.1 ]);
        ("e", T.Json.Obj []);
      ]
  in
  let s = T.Json.emit doc in
  (match T.Json.parse s with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "emit not valid JSON: %s" e);
  match T.Json.parse s with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok doc' ->
      Alcotest.(check string) "emit . parse . emit = emit" s (T.Json.emit doc');
      Alcotest.(check bool) "tree round-trips" true (doc = doc')

let test_json_float_lexemes () =
  let lex v = T.Json.emit (T.Json.float v) in
  Alcotest.(check string) "integral floats print as ints" "3" (lex 3.0);
  Alcotest.(check string) "negative integral" "-7" (lex (-7.0));
  Alcotest.(check string) "zero" "0" (lex 0.0);
  Alcotest.(check string) "nan clamps" "0" (lex Float.nan);
  Alcotest.(check string) "inf clamps" "1e308" (lex Float.infinity);
  (* every emitted lexeme must parse back to the same float *)
  List.iter
    (fun v ->
      match T.Json.parse (lex v) with
      | Ok j ->
          Alcotest.(check (float 0.0))
            (Printf.sprintf "%h round-trips" v)
            v
            (Option.get (T.Json.to_float j))
      | Error e -> Alcotest.failf "lexeme of %h unparsable: %s" v e)
    [ 0.1; 1.0 /. 3.0; 1e-20; 123456.789; 9.007199254740993e15; 2.5e-300 ]

let test_json_parse_errors () =
  let bad s =
    match T.Json.parse s with
    | Ok _ -> Alcotest.failf "accepted %S" s
    | Error _ -> ()
  in
  List.iter bad
    [ ""; "{"; "[1,]"; "{\"a\":}"; "01"; "1.2.3"; "\"unterminated"; "tru";
      "{\"a\":1} trailing"; "\"\\uD800\"" ];
  (* escapes decode *)
  match T.Json.parse "\"a\\u0041\\n\\\"\"" with
  | Ok (T.Json.Str s) -> Alcotest.(check string) "escapes" "aA\n\"" s
  | _ -> Alcotest.fail "string parse"

(* ---- Qor records ---------------------------------------------------- *)

let sample_qor () =
  T.Qor.run ~outline_fit:true
    ~violations:
      [
        { T.Qor.group = "CORE"; ckind = "symmetry"; count = 0; members = [ 0; 1 ] };
        { T.Qor.group = "CM"; ckind = "common-centroid"; count = 1; members = [ 2; 3 ] };
      ]
    ~move_rates:[ ("seqpair", 120, 80); ("rotation", 30, 70) ]
    ~cost:15345749.0 ~wall_s:0.125 ~sa_rounds:368 ~evaluated:26496
    ~area:15342200 ~width:4100 ~height:3742 ~hpwl:17745.0
    ~term_area:15342200.0 ~term_wirelength:3549.0 ~term_aspect:0.0
    ~dead_space_pct:7.975 ()

let test_qor_roundtrip () =
  let q = sample_qor () in
  let j = T.Qor.to_json q in
  let s = T.Json.emit j in
  (match T.Json.parse s with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "qor json invalid: %s" e);
  match T.Qor.of_json j with
  | Error e -> Alcotest.failf "of_json failed: %s" e
  | Ok q' ->
      Alcotest.(check bool) "record round-trips" true (q = q');
      Alcotest.(check string) "re-emission byte-identical" s
        (T.Json.emit (T.Qor.to_json q'))

let test_qor_accessors () =
  let q = sample_qor () in
  Alcotest.(check int) "violation total" 1 (T.Qor.violation_total q);
  Alcotest.(check (float 1e-9)) "accept rate" 0.5 (T.Qor.accept_rate q);
  Alcotest.(check bool) "move rates name-sorted" true
    (q.T.Qor.move_rates = [ ("rotation", 30, 70); ("seqpair", 120, 80) ]);
  let rates =
    T.Qor.move_rates_of_counters
      [
        ("sa.moves.seqpair.accept", 7);
        ("sa.moves.seqpair.reject", 3);
        ("sa.moves.rotation.accept", 1);
        ("eval.costs", 999);
        ("sa.moves.malformed", 5);
      ]
  in
  Alcotest.(check bool) "counter extraction" true
    (rates = [ ("rotation", 1, 0); ("seqpair", 7, 3) ]);
  let bad = T.Qor.of_json (T.Json.Obj [ ("kind", T.Json.str "run") ]) in
  (match bad with
  | Error e ->
      Alcotest.(check bool) "error names the field" true (contains e "cost")
  | Ok _ -> Alcotest.fail "accepted truncated record")

let test_qor_routed_fields () =
  (* a routed run carries the router's QoR triple through JSON intact *)
  let routed =
    T.Qor.run ~routed_wl:1234 ~route_overflow:0 ~route_failed:1
      ~cost:15345749.0 ~wall_s:0.125 ~sa_rounds:368 ~evaluated:26496
      ~area:15342200 ~width:4100 ~height:3742 ~hpwl:17745.0
      ~term_area:15342200.0 ~term_wirelength:3549.0 ~term_aspect:0.0
      ~dead_space_pct:7.975 ()
  in
  (match T.Qor.of_json (T.Qor.to_json routed) with
  | Error e -> Alcotest.failf "routed of_json: %s" e
  | Ok q' ->
      Alcotest.(check bool) "routed triple preserved" true
        (q'.T.Qor.routed_wl = Some 1234
        && q'.T.Qor.route_overflow = Some 0
        && q'.T.Qor.route_failed = Some 1));
  (* a pre-router record emits no routed keys at all, so old ledgers
     and new ones are the same wire format *)
  let plain_json = T.Json.emit (T.Qor.to_json (sample_qor ())) in
  Alcotest.(check bool) "absent fields emit no keys" false
    (contains plain_json "routed_wl");
  match T.Qor.of_json (T.Qor.to_json (sample_qor ())) with
  | Error e -> Alcotest.failf "plain of_json: %s" e
  | Ok q' ->
      Alcotest.(check bool) "absent fields parse as None" true
        (q'.T.Qor.routed_wl = None
        && q'.T.Qor.route_overflow = None
        && q'.T.Qor.route_failed = None)

(* ---- Ledger --------------------------------------------------------- *)

let sample_entry ?(seed = 1) ?(qor = sample_qor ()) () =
  T.Ledger.make ~generated_at:"2026-08-05T12:00:00Z" ~git_rev:"abc1234"
    ~chain_qors:
      [ T.Qor.chain ~move_rates:[ ("seqpair", 5, 5) ] ~cost:1.5 ~wall_s:0.01
          ~sa_rounds:10 ~evaluated:100 () ]
    ~placement:
      [
        { T.Ledger.cell = "a"; x = 0; y = 0; w = 10; h = 6 };
        { T.Ledger.cell = "b"; x = 10; y = 0; w = 10; h = 6 };
      ]
    ~label:"miller" ~netlist_hash:"27086a14fdb1f99d" ~engine:"sp" ~seed
    ~schedule:"geometric(0.95)" ~workers:1 ~chains:1 ~qor ()

let test_ledger_routed_roundtrip () =
  (* a ledger line whose QoR carries routed fields must write -> read
     -> re-write byte-identically, like every other entry *)
  let routed =
    T.Qor.run ~routed_wl:831 ~route_overflow:0 ~route_failed:0
      ~cost:776881.0 ~wall_s:0.2 ~sa_rounds:0 ~evaluated:0 ~area:775971
      ~width:1017 ~height:763 ~hpwl:4550.0 ~term_area:775971.0
      ~term_wirelength:910.0 ~term_aspect:0.0 ~dead_space_pct:2.1 ()
  in
  let e = sample_entry ~qor:routed () in
  let line = T.Ledger.to_line e in
  (match T.Json.parse line with
  | Ok _ -> ()
  | Error err -> Alcotest.failf "routed line invalid JSON: %s" err);
  match T.Ledger.of_line line with
  | Error err -> Alcotest.failf "of_line: %s" err
  | Ok e' ->
      Alcotest.(check bool) "routed entry round-trips" true (e = e');
      Alcotest.(check string) "re-emission byte-identical" line
        (T.Ledger.to_line e')

let test_ledger_roundtrip () =
  let e = sample_entry () in
  let line = T.Ledger.to_line e in
  (match T.Json.parse line with
  | Ok _ -> ()
  | Error err -> Alcotest.failf "ledger line invalid JSON: %s" err);
  match T.Ledger.of_line line with
  | Error err -> Alcotest.failf "of_line: %s" err
  | Ok e' ->
      Alcotest.(check bool) "entry round-trips" true (e = e');
      Alcotest.(check string) "re-emission byte-identical" line
        (T.Ledger.to_line e')

(* Free-running annealing is gone, but ledgers written while it existed
   tag their chain records mode "async": such a line must still parse,
   keep the tag, and re-emit byte for byte. *)
let test_ledger_async_chain_roundtrip () =
  let line =
    String.concat ""
      [
        {|{"schema":1,"generated_at":"2026-08-05T12:00:00Z",|};
        {|"git_rev":"abc1234","label":"miller",|};
        {|"netlist_hash":"27086a14fdb1f99d","engine":"bstar","seed":1,|};
        {|"schedule":"geometric(0.95)","workers":2,"chains":1,|};
        {|"qor":{"kind":"chain","cost":1.5,"wall_s":0.01,"sa_rounds":10,|};
        {|"evaluated":100,"area":0,"width":0,"height":0,"hpwl":0,|};
        {|"term_area":0,"term_wirelength":0,"term_aspect":0,|};
        {|"dead_space_pct":0,"violations":[],"move_rates":[]},|};
        {|"chain_qors":[{"kind":"chain","cost":1.5,"wall_s":0.01,|};
        {|"sa_rounds":10,"evaluated":100,"area":0,"width":0,"height":0,|};
        {|"hpwl":0,"term_area":0,"term_wirelength":0,"term_aspect":0,|};
        {|"dead_space_pct":0,"engine":"bstar","mode":"async",|};
        {|"violations":[],"move_rates":[{"class":"bstar","accepted":5,|};
        {|"rejected":5}]}],"placement":[{"cell":"a","x":0,"y":0,"w":10,|};
        {|"h":6}]}|};
      ]
  in
  match T.Ledger.of_line line with
  | Error err -> Alcotest.failf "of_line: %s" err
  | Ok e ->
      Alcotest.(check (list (option string)))
        "chain mode kept" [ Some "async" ]
        (List.map (fun (q : T.Qor.t) -> q.T.Qor.mode) e.T.Ledger.chain_qors);
      Alcotest.(check string) "re-emission byte-identical" line
        (T.Ledger.to_line e)

let test_ledger_file_roundtrip () =
  let path = tmp_path "ledger.jsonl" in
  if Sys.file_exists path then Sys.remove path;
  let e1 = sample_entry ~seed:1 () and e2 = sample_entry ~seed:2 () in
  (match T.Ledger.append path e1 with Ok () -> () | Error m -> Alcotest.fail m);
  (match T.Ledger.append path e2 with Ok () -> () | Error m -> Alcotest.fail m);
  let original = In_channel.with_open_bin path In_channel.input_all in
  (match T.Ledger.read path with
  | Error m -> Alcotest.fail m
  | Ok entries ->
      Alcotest.(check int) "both entries read" 2 (List.length entries);
      (* write -> read -> re-write must reproduce the file byte for byte *)
      let rewritten =
        String.concat ""
          (List.map (fun e -> T.Ledger.to_line e ^ "\n") entries)
      in
      Alcotest.(check string) "file round-trip byte-identical" original
        rewritten);
  (match T.Ledger.last ~n:1 path with
  | Ok [ e ] -> Alcotest.(check int) "last keeps newest" 2 e.T.Ledger.seed
  | Ok _ -> Alcotest.fail "last ~n:1 returned wrong count"
  | Error m -> Alcotest.fail m);
  (match T.Ledger.read (tmp_path "absent.jsonl") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "read of missing file succeeded");
  Sys.remove path

let test_ledger_rejects_bad_lines () =
  let path = tmp_path "bad.jsonl" in
  Out_channel.with_open_bin path (fun oc ->
      output_string oc (T.Ledger.to_line (sample_entry ()) ^ "\nnot json\n"));
  (match T.Ledger.read path with
  | Error m ->
      Alcotest.(check bool) "error carries line number" true (contains m ":2:")
  | Ok _ -> Alcotest.fail "accepted malformed line");
  Sys.remove path

(* A crash part-way through an append leaves a torn, unterminated last
   line: read skips exactly that line and nothing else. *)
let test_ledger_torn_tail () =
  let path = tmp_path "torn.jsonl" in
  let line seed = T.Ledger.to_line (sample_entry ~seed ()) in
  let read_back contents =
    Out_channel.with_open_bin path (fun oc -> output_string oc contents);
    let r = T.Ledger.read path in
    Sys.remove path;
    r
  in
  let torn = String.sub (line 3) 0 (String.length (line 3) / 2) in
  (match read_back (line 1 ^ "\n" ^ line 2 ^ "\n" ^ torn) with
  | Ok es -> Alcotest.(check int) "torn tail skipped" 2 (List.length es)
  | Error m -> Alcotest.failf "torn tail rejected: %s" m);
  (match read_back (line 1 ^ "\n" ^ torn ^ "\n" ^ line 2 ^ "\n") with
  | Error m ->
      Alcotest.(check bool) "bad middle line names line 2" true
        (contains m ":2:")
  | Ok _ -> Alcotest.fail "accepted a bad middle line");
  (match read_back (line 1 ^ "\n" ^ torn ^ "\n") with
  | Error m ->
      Alcotest.(check bool) "terminated bad last line still fails" true
        (contains m ":2:")
  | Ok _ -> Alcotest.fail "accepted a terminated bad last line");
  match read_back (line 1 ^ "\n" ^ line 2) with
  | Ok es ->
      Alcotest.(check int) "good unterminated last line kept" 2
        (List.length es)
  | Error m -> Alcotest.failf "good unterminated line rejected: %s" m

(* ---- Prom ----------------------------------------------------------- *)

let test_prom_render_and_check () =
  let s = T.Sink.create ~clock:(fun () -> 0.0) () in
  T.Counter.add (T.Sink.counter s "sa.moves.seqpair.accept") 42;
  let h = T.Sink.histogram s "eval.cost" in
  List.iter (T.Hist.observe h) [ 1.0; 2.0; 3.0; 4.0 ];
  let doc = T.Prom.render s in
  (match T.Prom.check doc with
  | Ok () -> ()
  | Error e -> Alcotest.failf "own exposition rejected: %s" e);
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("mentions " ^ needle) true (contains doc needle))
    [
      "# TYPE analog_sa_moves_seqpair_accept counter";
      "analog_sa_moves_seqpair_accept 42";
      "# TYPE analog_eval_cost summary";
      "analog_eval_cost{quantile=\"0.5\"}";
      "analog_eval_cost_sum";
      "analog_eval_cost_count 4";
    ];
  Alcotest.(check string) "empty sink renders empty" "" (T.Prom.render T.Sink.null)

let test_prom_check_rejects () =
  let bad doc why =
    match T.Prom.check doc with
    | Ok () -> Alcotest.failf "validator accepted %s" why
    | Error _ -> ()
  in
  bad "analog_x 1\n" "sample without # TYPE";
  bad "# TYPE analog_x counter\nanalog_x notanumber\n" "bad value";
  bad "# TYPE analog_x flavour\nanalog_x 1\n" "unknown type";
  bad "# TYPE analog_x counter\nanalog_x{open 1\n" "malformed labels";
  bad "# HELP analog_x\n# TYPE analog_x counter\nanalog_x 1\n"
    "HELP without text";
  bad "# HELP 9bad some text\n" "HELP with invalid metric name";
  match T.Prom.check "# HELP analog_x something\n# TYPE analog_x counter\nanalog_x 1\n" with
  | Ok () -> ()
  | Error e -> Alcotest.failf "rejected valid doc: %s" e

let index_of hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i =
    if i + nn > nh then None
    else if String.sub hay i nn = needle then Some i
    else go (i + 1)
  in
  go 0

let test_prom_help_lines () =
  (* every rendered family leads with # HELP, HELP precedes TYPE, and
     the service/route metrics get real prose, not the fallback *)
  let s = T.Sink.create ~clock:(fun () -> 0.0) () in
  T.Counter.add (T.Sink.counter s "service.hits") 3;
  T.Counter.add (T.Sink.counter s "route.iterations") 7;
  T.Hist.observe (T.Sink.histogram s "route.iter.pres_fac") 0.5;
  let doc = T.Prom.render s in
  (match T.Prom.check doc with
  | Ok () -> ()
  | Error e -> Alcotest.failf "exposition with HELP rejected: %s" e);
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("mentions " ^ needle) true (contains doc needle))
    [
      "# HELP analog_service_hits ";
      "# HELP analog_route_iterations ";
      "# HELP analog_route_iter_pres_fac ";
    ];
  List.iter
    (fun fam ->
      match
        ( index_of doc ("# HELP " ^ fam ^ " "),
          index_of doc ("# TYPE " ^ fam ^ " ") )
      with
      | Some h, Some t ->
          Alcotest.(check bool) (fam ^ " HELP precedes TYPE") true (h < t)
      | _ -> Alcotest.failf "%s misses HELP or TYPE" fam)
    [
      "analog_service_hits"; "analog_route_iterations";
      "analog_route_iter_pres_fac";
    ];
  Alcotest.(check bool) "service.hits HELP is prose, not the fallback" false
    (contains doc "Telemetry metric service.hits")

(* ---- Regress -------------------------------------------------------- *)

let entry_with ?(seed = 1) ~hpwl ~cost () =
  let q =
    T.Qor.run ~cost ~wall_s:0.1 ~sa_rounds:100 ~evaluated:1000 ~area:1000
      ~width:40 ~height:25 ~hpwl ~term_area:1000.0 ~term_wirelength:(0.2 *. hpwl)
      ~term_aspect:0.0 ~dead_space_pct:5.0 ()
  in
  sample_entry ~seed ~qor:q ()

let test_regress_flags_hpwl () =
  (* baseline: three identical runs; candidate: injected 10% HPWL
     regression. The 2% tolerance gate must fire and nothing else. *)
  let baseline = List.init 3 (fun _ -> entry_with ~hpwl:1000.0 ~cost:1200.0 ()) in
  let candidate = [ entry_with ~hpwl:1100.0 ~cost:1200.0 () ] in
  let v = T.Regress.compare_entries ~baseline ~candidate () in
  Alcotest.(check bool) "regression detected" false (T.Regress.ok v);
  Alcotest.(check int) "exactly one metric regressed" 1 v.T.Regress.regressions;
  let c = List.hd v.T.Regress.comparisons in
  let m =
    List.find (fun m -> m.T.Regress.mname = "hpwl") c.T.Regress.metrics
  in
  Alcotest.(check bool) "it is hpwl" true m.T.Regress.regressed;
  Alcotest.(check bool) "report names it" true
    (contains (T.Regress.render v) "REGRESSION")

let test_regress_to_json () =
  let baseline =
    List.init 3 (fun _ -> entry_with ~hpwl:1000.0 ~cost:1200.0 ())
  in
  let candidate = [ entry_with ~hpwl:1100.0 ~cost:1200.0 () ] in
  let v = T.Regress.compare_entries ~baseline ~candidate () in
  let doc = T.Json.emit (T.Regress.to_json v) in
  match T.Json.parse doc with
  | Error e -> Alcotest.failf "verdict JSON does not parse: %s" e
  | Ok j ->
      Alcotest.(check (option string))
        "verdict string" (Some "regression")
        (Option.bind (T.Json.member "verdict" j) T.Json.to_str);
      Alcotest.(check (option int))
        "regression count" (Some v.T.Regress.regressions)
        (Option.bind (T.Json.member "regressions" j) T.Json.to_int);
      let comps =
        Option.value ~default:[]
          (Option.bind (T.Json.member "comparisons" j) T.Json.to_list)
      in
      Alcotest.(check int) "one comparison" 1 (List.length comps);
      let c = List.hd comps in
      let metrics =
        Option.value ~default:[]
          (Option.bind (T.Json.member "metrics" c) T.Json.to_list)
      in
      let hpwl =
        List.find
          (fun m ->
            Option.bind (T.Json.member "name" m) T.Json.to_str = Some "hpwl")
          metrics
      in
      Alcotest.(check (option bool))
        "hpwl marked regressed" (Some true)
        (Option.bind (T.Json.member "regressed" hpwl) T.Json.to_bool)

let test_regress_identical_clean () =
  let e () = entry_with ~hpwl:1000.0 ~cost:1200.0 () in
  let v = T.Regress.compare_entries ~baseline:[ e (); e () ] ~candidate:[ e () ] () in
  Alcotest.(check bool) "identical runs diff clean" true (T.Regress.ok v);
  Alcotest.(check bool) "verdict says OK" true
    (contains (T.Regress.render v) "verdict: OK")

let test_regress_noisy_baseline_widens () =
  (* one baseline outlier above the candidate: q90 covers it, no gate *)
  let baseline =
    List.map (fun h -> entry_with ~hpwl:h ~cost:1200.0 ())
      [ 1000.0; 1000.0; 1000.0; 1000.0; 1000.0; 1000.0; 1000.0; 1000.0; 1200.0; 1200.0 ]
  in
  let candidate = [ entry_with ~hpwl:1150.0 ~cost:1200.0 () ] in
  let v = T.Regress.compare_entries ~baseline ~candidate () in
  let c = List.hd v.T.Regress.comparisons in
  let m = List.find (fun m -> m.T.Regress.mname = "hpwl") c.T.Regress.metrics in
  Alcotest.(check bool) "within baseline q90: not regressed" false
    m.T.Regress.regressed

let test_regress_keys () =
  (* different chain counts are different configurations, never compared *)
  let b = entry_with ~hpwl:1000.0 ~cost:1200.0 () in
  let cand =
    { (entry_with ~hpwl:2000.0 ~cost:2400.0 ()) with T.Ledger.chains = 4 }
  in
  let v = T.Regress.compare_entries ~baseline:[ b ] ~candidate:[ cand ] () in
  Alcotest.(check bool) "no cross-key gating" true (T.Regress.ok v);
  Alcotest.(check bool) "reported as missing baseline" true
    (List.hd v.T.Regress.comparisons).T.Regress.missing_baseline

(* ---- Export.write_file ---------------------------------------------- *)

let test_write_file () =
  let path = tmp_path "write.txt" in
  (match T.Export.write_file ~path "hello" with
  | Ok () ->
      Alcotest.(check string) "content written" "hello"
        (In_channel.with_open_bin path In_channel.input_all)
  | Error m -> Alcotest.fail m);
  Sys.remove path;
  match T.Export.write_file ~path:"/nonexistent-dir/x.txt" "y" with
  | Ok () -> Alcotest.fail "wrote through a missing directory"
  | Error msg -> Alcotest.(check bool) "message non-empty" true (msg <> "")

(* ---- extraction: Placer.Qor and Anneal.Parallel --------------------- *)

let circuit () =
  Netlist.Circuit.make ~name:"tiny"
    ~modules:
      [
        Netlist.Circuit.block ~name:"a" ~w:10 ~h:6;
        Netlist.Circuit.block ~name:"b" ~w:10 ~h:6;
        Netlist.Circuit.block ~name:"c" ~w:4 ~h:4;
        Netlist.Circuit.block ~name:"d" ~w:8 ~h:8;
      ]
    ~nets:
      [
        Netlist.Net.make ~name:"n1" ~pins:[ 0; 1 ] ();
        Netlist.Net.make ~name:"n2" ~pins:[ 1; 2; 3 ] ();
      ]

let small_params =
  {
    Anneal.Sa.initial_temperature = Some 50.0;
    final_temperature = 1e-2;
    moves_per_round = 40;
    schedule = Anneal.Schedule.default;
    frozen_rounds = 4;
    max_rounds = 25;
  }

let test_extract () =
  let c = circuit () in
  let telemetry = T.Sink.create () in
  let out =
    Placer.Sa_seqpair.place ~params:small_params ~telemetry
      ~rng:(Prelude.Rng.create 3) c
  in
  let p = out.Placer.Sa_seqpair.placement in
  let q =
    Placer.Qor.extract
      ~move_rates:(T.Qor.move_rates_of_counters (T.Sink.counters telemetry))
      ~outline:(1000, 1000) ~cost:out.Placer.Sa_seqpair.cost ~wall_s:0.1
      ~sa_rounds:out.Placer.Sa_seqpair.sa_rounds
      ~evaluated:out.Placer.Sa_seqpair.evaluated p
  in
  Alcotest.(check int) "area matches placement" (Placer.Placement.area p)
    q.T.Qor.area;
  (* terms sum back to the composed cost of the final placement *)
  let recomposed =
    q.T.Qor.term_area +. q.T.Qor.term_wirelength +. q.T.Qor.term_aspect
  in
  Alcotest.(check (float 1e-6))
    "terms sum to evaluate" (Placer.Cost.evaluate Placer.Cost.default p)
    recomposed;
  Alcotest.(check bool) "fits the huge outline" true
    (q.T.Qor.outline_fit = Some true);
  Alcotest.(check bool) "move tallies extracted" true (q.T.Qor.move_rates <> []);
  let rects = Placer.Qor.rects p in
  Alcotest.(check int) "all cells exported" 4 (List.length rects);
  Alcotest.(check bool) "cell names preserved" true
    (List.map (fun r -> r.T.Ledger.cell) rects = [ "a"; "b"; "c"; "d" ])

let test_parallel_chain_qors () =
  let telemetry = T.Sink.create () in
  let _ =
    Placer.Sa_bstar.place ~telemetry ~params:small_params ~chains:3 ~workers:2
      ~rng:(Prelude.Rng.create 11) (circuit ())
  in
  let chain_qors =
    List.filter (fun (q : T.Qor.t) -> q.T.Qor.kind = "chain")
      (T.Sink.qors telemetry)
  in
  Alcotest.(check int) "one record per chain" 3 (List.length chain_qors);
  List.iter
    (fun (q : T.Qor.t) ->
      Alcotest.(check bool) "rounds recorded" true (q.T.Qor.sa_rounds > 0);
      Alcotest.(check bool) "evaluations recorded" true (q.T.Qor.evaluated > 0);
      Alcotest.(check bool) "wall time recorded" true (q.T.Qor.wall_s > 0.0);
      Alcotest.(check bool) "move tallies recorded" true
        (q.T.Qor.move_rates <> []))
    chain_qors

let test_circuit_digest () =
  let c = circuit () in
  Alcotest.(check string) "digest deterministic" (Netlist.Circuit.digest c)
    (Netlist.Circuit.digest (circuit ()));
  let tweaked =
    Netlist.Circuit.make ~name:"tiny"
      ~modules:
        [
          Netlist.Circuit.block ~name:"a" ~w:10 ~h:7;
          Netlist.Circuit.block ~name:"b" ~w:10 ~h:6;
          Netlist.Circuit.block ~name:"c" ~w:4 ~h:4;
          Netlist.Circuit.block ~name:"d" ~w:8 ~h:8;
        ]
      ~nets:[]
  in
  Alcotest.(check bool) "content change changes digest" true
    (Netlist.Circuit.digest c <> Netlist.Circuit.digest tweaked)

let () =
  Alcotest.run "qor"
    [
      ( "json",
        [
          Alcotest.test_case "round-trip" `Quick test_json_roundtrip;
          Alcotest.test_case "float lexemes" `Quick test_json_float_lexemes;
          Alcotest.test_case "parse errors" `Quick test_json_parse_errors;
        ] );
      ( "qor",
        [
          Alcotest.test_case "round-trip" `Quick test_qor_roundtrip;
          Alcotest.test_case "accessors" `Quick test_qor_accessors;
          Alcotest.test_case "routed fields" `Quick test_qor_routed_fields;
        ] );
      ( "ledger",
        [
          Alcotest.test_case "line round-trip" `Quick test_ledger_roundtrip;
          Alcotest.test_case "routed line round-trip" `Quick
            test_ledger_routed_roundtrip;
          Alcotest.test_case "async chain line round-trip" `Quick
            test_ledger_async_chain_roundtrip;
          Alcotest.test_case "file round-trip byte-identical" `Quick
            test_ledger_file_roundtrip;
          Alcotest.test_case "bad lines rejected" `Quick
            test_ledger_rejects_bad_lines;
          Alcotest.test_case "torn tail skipped" `Quick test_ledger_torn_tail;
        ] );
      ( "prom",
        [
          Alcotest.test_case "render validates" `Quick test_prom_render_and_check;
          Alcotest.test_case "validator rejects" `Quick test_prom_check_rejects;
          Alcotest.test_case "help lines" `Quick test_prom_help_lines;
        ] );
      ( "regress",
        [
          Alcotest.test_case "flags injected hpwl regression" `Quick
            test_regress_flags_hpwl;
          Alcotest.test_case "identical runs diff clean" `Quick
            test_regress_identical_clean;
          Alcotest.test_case "noisy baseline widens band" `Quick
            test_regress_noisy_baseline_widens;
          Alcotest.test_case "chain count separates keys" `Quick
            test_regress_keys;
          Alcotest.test_case "verdict as json" `Quick test_regress_to_json;
        ] );
      ( "export",
        [ Alcotest.test_case "write_file" `Quick test_write_file ] );
      ( "extraction",
        [
          Alcotest.test_case "placer extract" `Quick test_extract;
          Alcotest.test_case "parallel chain qors" `Quick
            test_parallel_chain_qors;
          Alcotest.test_case "circuit digest" `Quick test_circuit_digest;
        ] );
    ]
