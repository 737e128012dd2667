(* The observability layer: primitive semantics (counters, histograms,
   ring tracer, sinks), exporter round-trips, and the contract that
   matters most — instrumentation changes nothing about the search. *)

module T = Telemetry

(* A deterministic clock: each reading advances one millisecond. *)
let fake_clock () =
  let t = ref 0.0 in
  fun () ->
    t := !t +. 1e-3;
    !t

let live_sink ?trace_capacity () = T.Sink.create ~clock:(fake_clock ()) ?trace_capacity ()

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* ---- counters ------------------------------------------------------ *)

let test_counter_basics () =
  let s = live_sink () in
  let c = T.Sink.counter s "moves" in
  T.Counter.incr c;
  T.Counter.add c 4;
  Alcotest.(check int) "value" 5 (T.Counter.value c);
  let c' = T.Sink.counter s "moves" in
  T.Counter.incr c';
  Alcotest.(check int) "find-or-create aliases" 6 (T.Counter.value c);
  Alcotest.(check int) "null stays 0" 0 (T.Counter.value T.Counter.null);
  T.Counter.incr T.Counter.null;
  Alcotest.(check int) "null incr is no-op" 0 (T.Counter.value T.Counter.null)

let test_counter_merge_order_independent () =
  (* absorb children in two different orders: same totals *)
  let totals order =
    let parent = live_sink () in
    let kids =
      List.map
        (fun tid ->
          let k = T.Sink.child parent ~tid in
          T.Counter.add (T.Sink.counter k "a") (10 * tid);
          if tid <> 2 then T.Counter.incr (T.Sink.counter k "b");
          k)
        [ 1; 2; 3 ]
    in
    List.iter (T.Sink.absorb parent) (order kids);
    T.Sink.counters parent
  in
  Alcotest.(check (list (pair string int)))
    "forward = reverse"
    (totals (fun k -> k))
    (totals List.rev);
  Alcotest.(check (list (pair string int)))
    "totals" [ ("a", 60); ("b", 2) ]
    (totals (fun k -> k))

(* ---- histograms ---------------------------------------------------- *)

let observe_all h vs = List.iter (T.Hist.observe h) vs

let test_hist_stats () =
  let h = T.Hist.make "lat" in
  observe_all h [ 1.0; 2.0; 4.0; 8.0 ];
  Alcotest.(check int) "count" 4 (T.Hist.count h);
  Alcotest.(check (float 1e-9)) "sum" 15.0 (T.Hist.sum h);
  Alcotest.(check (float 1e-9)) "mean" 3.75 (T.Hist.mean h);
  Alcotest.(check (float 1e-9)) "min exact" 1.0 (T.Hist.min_value h);
  Alcotest.(check (float 1e-9)) "max exact" 8.0 (T.Hist.max_value h);
  (* log-bucketed: quantiles within the ~9% bucket resolution *)
  let p50 = T.Hist.quantile h 0.5 in
  Alcotest.(check bool)
    (Printf.sprintf "p50 near 3 (got %g)" p50)
    true
    (p50 > 2.0 && p50 < 4.5);
  let p100 = T.Hist.quantile h 1.0 in
  Alcotest.(check bool)
    (Printf.sprintf "p100 near 8 (got %g)" p100)
    true
    (Float.abs (p100 -. 8.0) /. 8.0 < 0.1);
  T.Hist.observe h 0.0;
  Alcotest.(check int) "zero bucket counted" 5 (T.Hist.count h);
  Alcotest.(check (float 1e-9)) "zero is min" 0.0 (T.Hist.min_value h)

let test_hist_merge_associative () =
  let mk vs =
    let h = T.Hist.make "h" in
    observe_all h vs;
    h
  in
  let snapshot h =
    ( T.Hist.count h,
      T.Hist.sum h,
      List.map (T.Hist.quantile h) [ 0.1; 0.5; 0.9; 0.99 ] )
  in
  let a () = mk [ 1.0; 3.0; 9.0 ]
  and b () = mk [ 0.5; 27.0 ]
  and c () = mk [ 2.0; 2.0; 81.0 ] in
  (* (a+b)+c *)
  let left = a () in
  let bl = b () in
  T.Hist.merge bl (c ());
  T.Hist.merge left bl;
  (* a+(b+c) in the other grouping, absorbed in another order *)
  let right = c () in
  T.Hist.merge right (b ());
  T.Hist.merge right (a ());
  Alcotest.(check (triple int (float 1e-9) (list (float 1e-9))))
    "grouping and order don't matter" (snapshot left) (snapshot right)

(* ---- tracer ring --------------------------------------------------- *)

let test_tracer_drops_oldest () =
  let r = T.Tracer.create 3 in
  for i = 1 to 5 do
    T.Tracer.record r
      ~name:(Printf.sprintf "s%d" i)
      ~ts:(float_of_int i) ~dur:1.0 ~tid:0
  done;
  Alcotest.(check int) "length capped" 3 (T.Tracer.length r);
  Alcotest.(check int) "dropped counted" 2 (T.Tracer.dropped r);
  Alcotest.(check (list string))
    "newest survive, oldest first" [ "s3"; "s4"; "s5" ]
    (List.map (fun (s : T.Tracer.span) -> s.T.Tracer.name) (T.Tracer.spans r));
  T.Tracer.add_dropped r 7;
  Alcotest.(check int) "merged drop counts" 9 (T.Tracer.dropped r)

(* The bound is reached by doubling from a few slots; past it the ring
   wraps exactly as a preallocated one would. *)
let test_tracer_grows_to_bound () =
  let r = T.Tracer.create 100 in
  let names () =
    List.map (fun (s : T.Tracer.span) -> s.T.Tracer.name) (T.Tracer.spans r)
  in
  let record_upto lo hi =
    for i = lo to hi do
      T.Tracer.record r ~name:(string_of_int i) ~ts:(float_of_int i) ~dur:1.0 ~tid:0
    done
  in
  record_upto 1 80;
  Alcotest.(check (list string))
    "growth keeps every span in order"
    (List.init 80 (fun i -> string_of_int (1 + i)))
    (names ());
  Alcotest.(check int) "nothing dropped below the bound" 0 (T.Tracer.dropped r);
  record_upto 81 250;
  Alcotest.(check int) "capacity is the bound" 100 (T.Tracer.capacity r);
  Alcotest.(check int) "length capped at the bound" 100 (T.Tracer.length r);
  Alcotest.(check int) "dropped counted" 150 (T.Tracer.dropped r);
  Alcotest.(check (list string))
    "newest survive, oldest first"
    (List.init 100 (fun i -> string_of_int (151 + i)))
    (names ())

(* A traced benchmark run absorbs one child sink per job into its root:
   120 jobs of 80 stage spans must all survive under the default bound. *)
let test_default_sink_absorbs_without_drops () =
  let root = live_sink () in
  for job = 1 to 120 do
    let c = T.Sink.child root ~tid:job in
    for _ = 1 to 80 do
      T.Sink.span_end c "stage" (T.Sink.span_begin c)
    done;
    T.Sink.absorb root c
  done;
  Alcotest.(check int) "no span dropped" 0 (T.Sink.dropped_spans root);
  Alcotest.(check int) "every span kept" 9600 (List.length (T.Sink.spans root))

let test_sink_spans () =
  let s = live_sink ~trace_capacity:8 () in
  let t0 = T.Sink.span_begin s in
  let t1 = T.Sink.lap s "stage1" t0 in
  T.Sink.span_end s "stage2" t1;
  let r = T.Sink.time s "stage3" (fun () -> 42) in
  Alcotest.(check int) "time returns the result" 42 r;
  Alcotest.(check (list string))
    "recording order" [ "stage1"; "stage2"; "stage3" ]
    (List.map (fun (sp : T.Tracer.span) -> sp.T.Tracer.name) (T.Sink.spans s));
  List.iter
    (fun (sp : T.Tracer.span) ->
      Alcotest.(check bool) "positive duration" true (sp.T.Tracer.dur > 0.0))
    (T.Sink.spans s)

(* ---- exporters ----------------------------------------------------- *)

let test_check_json () =
  let ok s = Alcotest.(check bool) s true (Result.is_ok (T.Json.parse s)) in
  let bad s = Alcotest.(check bool) s false (Result.is_ok (T.Json.parse s)) in
  ok {|{"a":[1,2.5,-3e2],"b":"x\ny","c":{},"d":[],"e":null,"f":true}|};
  ok {|[ ]|};
  ok {|"just a string"|};
  ok {|-0.5e-2|};
  bad {|{"a":1,}|};
  bad {|{"a" 1}|};
  bad {|[1,2|};
  bad {|{"a":01}|};
  bad {|"unterminated|};
  bad {|{"a":1} trailing|};
  bad ""

let populated_sink () =
  let s = live_sink ~trace_capacity:16 () in
  T.Counter.add (T.Sink.counter s "n\"quoted") 3;
  T.Sink.span_end s "pack" (T.Sink.span_begin s);
  T.Sink.sample s ~round:0 ~temperature:12.5 ~acceptance:0.75 ~best_cost:99.0;
  T.Sink.sample s ~round:1 ~temperature:11.0 ~acceptance:0.5 ~best_cost:90.0;
  s

let test_chrome_json_roundtrip () =
  let s = populated_sink () in
  let json = T.Export.chrome_json s in
  (match T.Json.parse json with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "chrome trace does not parse: %s\n%s" e json);
  Alcotest.(check bool) "has X span" true (contains json {|"ph":"X"|});
  Alcotest.(check bool) "has C sample" true (contains json {|"ph":"C"|});
  Alcotest.(check bool) "span name" true (contains json {|"name":"pack"|});
  Alcotest.(check bool) "counter escaped into otherData" true
    (contains json {|"n\"quoted":3|});
  (* a wall-clock epoch: timestamps are shifted by it, durations are
     not (the span below lasts 0.25 s and starts 2 s after the epoch) *)
  let readings = ref [ 1e9; 1e9 +. 2.0; 1e9 +. 2.25 ] in
  let clock () =
    match !readings with
    | t :: rest ->
        readings := rest;
        t
    | [] -> Alcotest.fail "clock read too often"
  in
  let s = T.Sink.create ~clock () in
  T.Sink.span_end s "route" (T.Sink.span_begin s);
  Alcotest.(check bool) "ts shifted by the epoch, dur not" true
    (contains (T.Export.chrome_json s) {|"ts":2000000,"dur":250000,|})

let test_conv_csv () =
  let s = populated_sink () in
  let lines = String.split_on_char '\n' (String.trim (T.Export.conv_csv s)) in
  Alcotest.(check string)
    "header" "chain,round,temperature,acceptance,best_cost" (List.hd lines);
  Alcotest.(check int) "one line per sample" 3 (List.length lines);
  Alcotest.(check bool) "row shape" true
    (String.length (List.nth lines 1) > 0
    && String.sub (List.nth lines 1) 0 4 = "0,0,")

let test_text_summary () =
  let s = populated_sink () in
  let txt = T.Export.text s in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("mentions " ^ needle) true (contains txt needle))
    [ "counters:"; "spans:"; "pack"; "convergence:" ];
  Alcotest.(check string) "empty sink prints nothing" "" (T.Export.text T.Sink.null)

(* Ring eviction must be disclosed in the text summary: the span
   statistics otherwise silently describe a truncated sample. *)
let test_text_dropped_spans () =
  let s = live_sink ~trace_capacity:4 () in
  for _ = 1 to 10 do
    let t0 = T.Sink.span_begin s in
    T.Sink.span_end s "work" t0
  done;
  Alcotest.(check int) "6 of 10 evicted" 6 (T.Sink.dropped_spans s);
  let txt = T.Export.text s in
  Alcotest.(check bool) "discloses eviction count" true
    (contains txt "spans dropped: 6");
  Alcotest.(check bool) "names the cause" true
    (contains txt "ring capacity exceeded")

(* Bucketed or not, a histogram's quantile function must be monotone in
   q — the regression report reads q50/q90/q99 side by side and an
   inversion would be nonsense. *)
let prop_hist_quantile_monotone =
  QCheck.Test.make ~name:"hist quantiles monotone in q" ~count:200
    QCheck.(list_of_size Gen.(1 -- 40) (float_bound_exclusive 1000.0))
    (fun vs ->
      let h = T.Hist.make "m" in
      List.iter (T.Hist.observe h) vs;
      let vals =
        List.map (T.Hist.quantile h)
          [ 0.0; 0.1; 0.25; 0.5; 0.75; 0.9; 0.99; 1.0 ]
      in
      let rec mono = function
        | a :: (b :: _ as rest) -> a <= b +. 1e-9 && mono rest
        | _ -> true
      in
      mono vals)

(* ---- pipeline integration ------------------------------------------ *)

let small_params =
  {
    Anneal.Sa.initial_temperature = Some 50.0;
    final_temperature = 1e-2;
    moves_per_round = 40;
    schedule = Anneal.Schedule.default;
    frozen_rounds = 4;
    max_rounds = 25;
  }

let circuit () =
  Netlist.Circuit.make ~name:"tiny"
    ~modules:
      [
        Netlist.Circuit.block ~name:"a" ~w:10 ~h:6;
        Netlist.Circuit.block ~name:"b" ~w:10 ~h:6;
        Netlist.Circuit.block ~name:"c" ~w:4 ~h:12;
        Netlist.Circuit.block ~name:"d" ~w:8 ~h:8;
        Netlist.Circuit.block ~name:"e" ~w:6 ~h:6;
      ]
    ~nets:
      [
        Netlist.Net.make ~name:"n1" ~pins:[ 0; 1 ] ();
        Netlist.Net.make ~name:"n2" ~pins:[ 2; 3; 4 ] ();
      ]

let assoc name l =
  match List.assoc_opt name l with Some v -> v | None -> 0

(* The load-bearing property: a live sink observes the search without
   perturbing it. *)
let test_on_off_identical () =
  let run telemetry =
    let out =
      Placer.Sa_seqpair.place ?telemetry ~params:small_params
        ~rng:(Prelude.Rng.create 42) (circuit ())
    in
    (out.Placer.Sa_seqpair.cost, out.Placer.Sa_seqpair.evaluated)
  in
  Alcotest.(check (pair (float 0.0) int))
    "seqpair identical with telemetry on"
    (run None)
    (run (Some (live_sink ())));
  let run_b telemetry =
    let out =
      Placer.Sa_bstar.place ?telemetry ~params:small_params
        ~rng:(Prelude.Rng.create 42) (circuit ())
    in
    (out.Placer.Sa_bstar.cost, out.Placer.Sa_bstar.evaluated)
  in
  Alcotest.(check (pair (float 0.0) int))
    "bstar identical with telemetry on"
    (run_b None)
    (run_b (Some (live_sink ())));
  (* symmetric packing, including the segregated fallback and its
     eval.sym_fallbacks tally *)
  let table1 = Netlist.Benchmarks.table1_suite () in
  let b = List.nth table1 2 in
  let groups =
    Constraints.Symmetry_group.of_hierarchy b.Netlist.Benchmarks.hierarchy
  in
  let run_sym telemetry =
    let out =
      Placer.Sa_seqpair.place ?telemetry ~groups ~params:small_params
        ~rng:(Prelude.Rng.create 42) b.Netlist.Benchmarks.circuit
    in
    (out.Placer.Sa_seqpair.cost, out.Placer.Sa_seqpair.evaluated)
  in
  let live = live_sink () in
  Alcotest.(check (pair (float 0.0) int))
    "symmetric seqpair identical with telemetry on"
    (run_sym None)
    (run_sym (Some live));
  let counters = T.Sink.counters live in
  let fallbacks = assoc "eval.sym_fallbacks" counters in
  Alcotest.(check bool) "fallbacks counted" true (fallbacks > 0);
  Alcotest.(check bool) "fallbacks within evaluations" true
    (fallbacks < assoc "eval.costs" counters)

let test_pipeline_coverage () =
  let s = live_sink ~trace_capacity:4096 () in
  let out =
    Placer.Sa_seqpair.place ~telemetry:s ~params:small_params
      ~rng:(Prelude.Rng.create 7) (circuit ())
  in
  Alcotest.(check bool) "placement produced" true (out.Placer.Sa_seqpair.cost > 0.0);
  let counters = T.Sink.counters s in
  Alcotest.(check bool) "eval.costs counted" true (assoc "eval.costs" counters > 0);
  Alcotest.(check bool) "packs counted" true (assoc "seqpair.packs" counters > 0);
  Alcotest.(check int)
    "every evaluation packed" (assoc "eval.costs" counters)
    (assoc "seqpair.packs" counters);
  let moves =
    assoc "sa.moves.seqpair.accept" counters
    + assoc "sa.moves.seqpair.reject" counters
    + assoc "sa.moves.rotation.accept" counters
    + assoc "sa.moves.rotation.reject" counters
  in
  Alcotest.(check int)
    "move tallies = engine moves"
    (small_params.Anneal.Sa.moves_per_round * out.Placer.Sa_seqpair.sa_rounds)
    moves;
  let span_names =
    List.sort_uniq String.compare
      (List.map (fun (sp : T.Tracer.span) -> sp.T.Tracer.name) (T.Sink.spans s))
  in
  List.iter
    (fun n ->
      Alcotest.(check bool) ("span " ^ n) true (List.mem n span_names))
    [ "sa.round"; "eval.cost"; "eval.pack"; "eval.hpwl"; "eval.compose" ];
  Alcotest.(check int)
    "one convergence sample per round" out.Placer.Sa_seqpair.sa_rounds
    (List.length (T.Sink.convergence s));
  let h = List.assoc "sa.acceptance" (T.Sink.histograms s) in
  Alcotest.(check int)
    "acceptance histogram fed per round" out.Placer.Sa_seqpair.sa_rounds
    (T.Hist.count h)

let test_parallel_telemetry_merged () =
  (* roomy ring: absorbing three chains' span history must not evict
     the coordinator's own parallel.* spans *)
  let s = live_sink ~trace_capacity:32768 () in
  let out =
    Placer.Sa_bstar.place ~telemetry:s ~params:small_params ~chains:3 ~workers:2
      ~rng:(Prelude.Rng.create 11) (circuit ())
  in
  let counters = T.Sink.counters s in
  Alcotest.(check bool) "exchanges counted" true
    (assoc "parallel.exchanges" counters > 0);
  (* one arena evaluation per engine move plus the initial cost of each
     of the 3 chains (t0 is given, so no estimation walk) *)
  Alcotest.(check int)
    "children's evaluation counters merged"
    (out.Placer.Sa_bstar.evaluated + 3)
    (assoc "eval.costs" counters);
  let tids =
    List.sort_uniq Int.compare
      (List.map
         (fun (c : T.Convergence.sample) -> c.T.Convergence.tid)
         (T.Sink.convergence s))
  in
  Alcotest.(check (list int)) "samples from every chain" [ 1; 2; 3 ] tids;
  let span_names =
    List.sort_uniq String.compare
      (List.map (fun (sp : T.Tracer.span) -> sp.T.Tracer.name) (T.Sink.spans s))
  in
  List.iter
    (fun n ->
      Alcotest.(check bool) ("span " ^ n) true (List.mem n span_names))
    [ "parallel.slice"; "parallel.exchange"; "chain.slice" ]

let () =
  Alcotest.run "telemetry"
    [
      ( "counter",
        [
          Alcotest.test_case "basics" `Quick test_counter_basics;
          Alcotest.test_case "merge order-independent" `Quick
            test_counter_merge_order_independent;
        ] );
      ( "hist",
        [
          Alcotest.test_case "stats" `Quick test_hist_stats;
          Alcotest.test_case "merge associative" `Quick
            test_hist_merge_associative;
          QCheck_alcotest.to_alcotest prop_hist_quantile_monotone;
        ] );
      ( "tracer",
        [
          Alcotest.test_case "ring drops oldest" `Quick test_tracer_drops_oldest;
          Alcotest.test_case "ring grows to its bound" `Quick
            test_tracer_grows_to_bound;
          Alcotest.test_case "default sink absorbs 9600 spans" `Quick
            test_default_sink_absorbs_without_drops;
          Alcotest.test_case "sink spans" `Quick test_sink_spans;
        ] );
      ( "export",
        [
          Alcotest.test_case "json checker" `Quick test_check_json;
          Alcotest.test_case "chrome trace round-trips" `Quick
            test_chrome_json_roundtrip;
          Alcotest.test_case "convergence csv" `Quick test_conv_csv;
          Alcotest.test_case "text summary" `Quick test_text_summary;
          Alcotest.test_case "dropped spans disclosed" `Quick
            test_text_dropped_spans;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "on/off bit-identical" `Quick test_on_off_identical;
          Alcotest.test_case "span and counter coverage" `Quick
            test_pipeline_coverage;
          Alcotest.test_case "parallel sinks merge" `Quick
            test_parallel_telemetry_merged;
        ] );
    ]
