(* Placement-as-a-service: fingerprints, the multi-placement cache,
   instantiate-from-cache, verify-on-hit eviction, and the batched
   request pipeline (including the concurrent mixed-traffic stress the
   CI multicore job reruns under ANALOG_VALIDATE=1). *)

module J = Telemetry.Json
module G = Constraints.Symmetry_group

let quick_req ?outline ?(seed = 0) ?(id = "r") source =
  {
    Service.Request.id;
    source;
    outline;
    effort = Service.Fingerprint.Quick;
    seed;
  }

let result_string (resp : Service.Request.response) =
  match resp.Service.Request.body with
  | Ok body -> J.emit (Service.Request.result_json body)
  | Error e -> Alcotest.failf "expected a result, got error: %s" e

(* ---- fingerprints -------------------------------------------------- *)

let canonical_of_groups groups =
  Service.Fingerprint.canonical ~groups ~effort:Service.Fingerprint.Standard ()

let test_fingerprint_basics () =
  let c = (Netlist.Benchmarks.miller ()).Netlist.Benchmarks.circuit in
  let fp = Service.Fingerprint.make ~effort:Service.Fingerprint.Standard c in
  Alcotest.(check bool)
    "key embeds the circuit digest" true
    (String.length fp > 17
    && String.sub fp 0 16 = Netlist.Circuit.digest c);
  let fp_quick = Service.Fingerprint.make ~effort:Service.Fingerprint.Quick c in
  Alcotest.(check bool) "effort separates keys" true (fp <> fp_quick);
  let fp_seed =
    Service.Fingerprint.make ~seed:7 ~effort:Service.Fingerprint.Standard c
  in
  Alcotest.(check bool) "seed separates keys" true (fp <> fp_seed)

let test_fingerprint_outline_class () =
  let c = (Netlist.Benchmarks.miller ()).Netlist.Benchmarks.circuit in
  let key outline =
    Service.Fingerprint.make ?outline ~effort:Service.Fingerprint.Standard c
  in
  Alcotest.(check bool)
    "same class, different outline: same key" true
    (key (Some (200, 100)) = key (Some (300, 140)));
  Alcotest.(check bool)
    "wide vs square: different key" true
    (key (Some (200, 100)) <> key (Some (100, 100)));
  Alcotest.(check bool)
    "free vs fixed: different key" true
    (key None <> key (Some (100, 100)))

let test_hierarchy_signature_order_invariant () =
  let h1 =
    Netlist.Hierarchy.node "root"
      [
        Netlist.Hierarchy.node ~kind:Netlist.Hierarchy.Symmetry "s"
          [ Netlist.Hierarchy.Leaf 0; Netlist.Hierarchy.Leaf 1 ];
        Netlist.Hierarchy.node ~kind:Netlist.Hierarchy.Proximity "p"
          [ Netlist.Hierarchy.Leaf 2; Netlist.Hierarchy.Leaf 3 ];
      ]
  in
  let h2 =
    Netlist.Hierarchy.node "other-name"
      [
        Netlist.Hierarchy.node ~kind:Netlist.Hierarchy.Proximity "q"
          [ Netlist.Hierarchy.Leaf 3; Netlist.Hierarchy.Leaf 2 ];
        Netlist.Hierarchy.node ~kind:Netlist.Hierarchy.Symmetry "t"
          [ Netlist.Hierarchy.Leaf 1; Netlist.Hierarchy.Leaf 0 ];
      ]
  in
  Alcotest.(check string)
    "same obligations, same signature"
    (Netlist.Hierarchy.constraint_signature h1)
    (Netlist.Hierarchy.constraint_signature h2);
  let h3 =
    Netlist.Hierarchy.node "root"
      [
        Netlist.Hierarchy.node ~kind:Netlist.Hierarchy.Symmetry "s"
          [ Netlist.Hierarchy.Leaf 0; Netlist.Hierarchy.Leaf 4 ];
        Netlist.Hierarchy.node ~kind:Netlist.Hierarchy.Proximity "p"
          [ Netlist.Hierarchy.Leaf 2; Netlist.Hierarchy.Leaf 3 ];
      ]
  in
  Alcotest.(check bool)
    "member change flips the signature" true
    (Netlist.Hierarchy.constraint_signature h1
    <> Netlist.Hierarchy.constraint_signature h3)

(* Random symmetry groups over distinct cells: a prefix of a shuffled
   [0..n-1] becomes pairs and selfs. *)
let groups_gen =
  QCheck.Gen.(
    int_range 6 24 >>= fun n ->
    int_range 0 1000 >|= fun seed ->
    let rng = Prelude.Rng.create seed in
    let cells = Array.init n (fun i -> i) in
    for i = n - 1 downto 1 do
      let j = Prelude.Rng.int rng (i + 1) in
      let t = cells.(i) in
      cells.(i) <- cells.(j);
      cells.(j) <- t
    done;
    let n_pairs = 1 + Prelude.Rng.int rng (n / 4) in
    let n_selfs = Prelude.Rng.int rng 2 in
    let pairs =
      List.init n_pairs (fun i -> (cells.(2 * i), cells.((2 * i) + 1)))
    in
    let selfs = List.init n_selfs (fun i -> cells.((2 * n_pairs) + i)) in
    (pairs, selfs, n))

let prop_fingerprint_reorder_invariant =
  QCheck.Test.make ~name:"reordered constraint sets fingerprint equally"
    ~count:200
    (QCheck.make groups_gen)
    (fun (pairs, selfs, _n) ->
      let g1 = G.make ~name:"a" ~pairs ~selfs () in
      let g2 =
        G.make ~name:"b"
          ~pairs:(List.rev_map (fun (a, b) -> (b, a)) pairs)
          ~selfs:(List.rev selfs) ()
      in
      (* group signatures ignore naming, pair order, in-pair order *)
      G.signature g1 = G.signature g2
      && canonical_of_groups [ g1 ] = canonical_of_groups [ g2 ])

let prop_fingerprint_member_change =
  QCheck.Test.make ~name:"any member change flips the fingerprint" ~count:200
    (QCheck.make groups_gen)
    (fun (pairs, selfs, n) ->
      let g1 = G.make ~name:"a" ~pairs ~selfs () in
      let (pa, _pb), rest = (List.hd pairs, List.tl pairs) in
      (* swap one paired cell for a fresh one (n is unused by design) *)
      let g2 = G.make ~name:"a" ~pairs:((pa, n) :: rest) ~selfs () in
      G.signature g1 <> G.signature g2
      && canonical_of_groups [ g1 ] <> canonical_of_groups [ g2 ])

let prop_fingerprint_group_order =
  QCheck.Test.make ~name:"group list order never matters" ~count:100
    (QCheck.make groups_gen)
    (fun (pairs, selfs, n) ->
      let g1 = G.make ~pairs ~selfs () in
      let g2 = G.make ~pairs:[ (n, n + 1) ] ~selfs:[ n + 2 ] () in
      canonical_of_groups [ g1; g2 ] = canonical_of_groups [ g2; g1 ])

(* ---- cache --------------------------------------------------------- *)

let dummy_multi () =
  let b = Netlist.Benchmarks.miller () in
  let c = b.Netlist.Benchmarks.circuit in
  let placed =
    Seqpair.Pack.pack_fast
      (Seqpair.Sp.random (Prelude.Rng.create 1) (Netlist.Circuit.size c))
      (Netlist.Circuit.dims c)
  in
  Service.Multi.build ~groups:[] c placed

let test_cache_lru () =
  let cache = Service.Cache.create ~capacity:2 () in
  let m = dummy_multi () in
  Service.Cache.insert cache "a" m;
  Service.Cache.insert cache "b" m;
  Alcotest.(check int) "two entries" 2 (Service.Cache.length cache);
  (* touch a so b is the LRU victim *)
  Alcotest.(check bool) "find a" true (Service.Cache.find cache "a" <> None);
  Service.Cache.insert cache "c" m;
  Alcotest.(check int) "capacity held" 2 (Service.Cache.length cache);
  Alcotest.(check bool) "a survives" true (Service.Cache.mem cache "a");
  Alcotest.(check bool) "b evicted" false (Service.Cache.mem cache "b");
  Alcotest.(check int) "one eviction" 1 (Service.Cache.evictions cache);
  Alcotest.(check bool) "explicit evict" true (Service.Cache.remove cache "c");
  Alcotest.(check bool) "absent remove" false (Service.Cache.remove cache "c")

(* ---- multi-placement structures ------------------------------------ *)

let test_multi_family () =
  let b = Netlist.Benchmarks.miller () in
  let c = b.Netlist.Benchmarks.circuit in
  let groups = G.of_hierarchy b.Netlist.Benchmarks.hierarchy in
  let rng = Prelude.Rng.create 11 in
  let outcome =
    Placer.Portfolio.race ~groups ~workers:1 ~rng
      ~hierarchy:b.Netlist.Benchmarks.hierarchy c
  in
  let multi =
    Service.Multi.build ~groups c
      outcome.Placer.Portfolio.placement.Placer.Placement.placed
  in
  let cands = Service.Multi.candidates multi in
  Alcotest.(check bool) "family is non-empty" true (cands <> []);
  (* Pareto: no member dominated in (w, h, cost) by another *)
  List.iter
    (fun (a : Service.Multi.candidate) ->
      List.iter
        (fun (b : Service.Multi.candidate) ->
          if a != b then
            Alcotest.(check bool)
              "no dominated family member" false
              (b.Service.Multi.width <= a.Service.Multi.width
              && b.Service.Multi.height <= a.Service.Multi.height
              && b.Service.Multi.cost <= a.Service.Multi.cost
              && (b.Service.Multi.width < a.Service.Multi.width
                 || b.Service.Multi.height < a.Service.Multi.height
                 || b.Service.Multi.cost < a.Service.Multi.cost)))
        cands)
    cands;
  (* every member re-instantiates to exactly its recorded geometry *)
  List.iter
    (fun (cand : Service.Multi.candidate) ->
      let p = Service.Multi.materialize multi cand in
      Alcotest.(check int)
        "width reproduced" cand.Service.Multi.width
        (Placer.Placement.width p);
      Alcotest.(check int)
        "height reproduced" cand.Service.Multi.height
        (Placer.Placement.height p);
      Alcotest.(check (float 0.0))
        "cost reproduced" cand.Service.Multi.cost
        (Placer.Cost.evaluate Placer.Cost.default p))
    cands;
  (* selection honors a generous outline and flags a hopeless one *)
  let cand, fit = Service.Multi.select ~outline:(10_000, 10_000) multi in
  Alcotest.(check bool) "generous outline fits" true fit;
  Alcotest.(check bool)
    "fitting member honored" true
    (cand.Service.Multi.width <= 10_000 && cand.Service.Multi.height <= 10_000);
  let _, fit = Service.Multi.select ~outline:(3, 3) multi in
  Alcotest.(check bool) "hopeless outline flagged" false fit;
  Alcotest.(check bool)
    "hopeless outline provably infeasible" true
    (Service.Multi.outline_infeasible multi (3, 3))

let test_multi_deterministic () =
  let m = dummy_multi () in
  let cand, _ = Service.Multi.select m in
  let p1 = Service.Multi.materialize m cand in
  let cand2, _ = Service.Multi.select m in
  let p2 = Service.Multi.materialize m cand2 in
  Alcotest.(check bool)
    "repeated materialization is identical" true
    (Placer.Qor.rects p1 = Placer.Qor.rects p2)

(* ---- the service --------------------------------------------------- *)

let test_service_miss_then_hit () =
  Service.with_service ~workers:1 (fun svc ->
      let req = quick_req (Service.Request.Bench "miller") in
      let r1 = Service.submit svc req in
      Alcotest.(check string) "first is a miss" "miss" r1.Service.Request.served;
      let r2 = Service.submit svc req in
      Alcotest.(check string) "second is a hit" "hit" r2.Service.Request.served;
      Alcotest.(check int) "hits never anneal" 0 r2.Service.Request.sa_rounds;
      Alcotest.(check string)
        "byte-identical results" (result_string r1) (result_string r2);
      Alcotest.(check int)
        "hit counter" 1
        (Service.counter_value svc "service.hits");
      Alcotest.(check int)
        "miss counter" 1
        (Service.counter_value svc "service.misses");
      let prom = Service.metrics svc in
      Alcotest.(check bool)
        "hit counter exported to Prometheus" true
        (let needle = "analog_service_hits 1" in
         let rec find i =
           i + String.length needle <= String.length prom
           && (String.sub prom i (String.length needle) = needle
              || find (i + 1))
         in
         find 0);
      match Telemetry.Prom.check prom with
      | Ok () -> ()
      | Error e -> Alcotest.failf "invalid Prometheus exposition: %s" e)

let test_service_varied_outline_hit () =
  Service.with_service ~workers:1 (fun svc ->
      (* both outlines are Square-class: one anneal, one instantiation *)
      let r1 =
        Service.submit svc
          (quick_req ~outline:(100_000, 80_000) (Service.Request.Bench "miller"))
      in
      let r2 =
        Service.submit svc
          (quick_req ~outline:(90_000, 95_000) (Service.Request.Bench "miller"))
      in
      Alcotest.(check string) "first misses" "miss" r1.Service.Request.served;
      Alcotest.(check string) "varied outline hits" "hit"
        r2.Service.Request.served;
      match (r1.Service.Request.body, r2.Service.Request.body) with
      | Ok b1, Ok b2 ->
          Alcotest.(check (option bool))
            "outline honored cold" (Some true) b1.Service.Request.outline_fit;
          Alcotest.(check (option bool))
            "outline honored warm" (Some true) b2.Service.Request.outline_fit;
          (* the served instantiation passes the independent verifier
             with zero violations *)
          let b = Netlist.Benchmarks.miller () in
          let groups = G.of_hierarchy b.Netlist.Benchmarks.hierarchy in
          let placed =
            List.map
              (fun (r : Telemetry.Ledger.rect) ->
                let cell =
                  Netlist.Circuit.find_module b.Netlist.Benchmarks.circuit
                    r.Telemetry.Ledger.cell
                in
                let w0, _ =
                  Netlist.Circuit.dims b.Netlist.Benchmarks.circuit cell
                in
                {
                  Geometry.Transform.cell;
                  rect =
                    {
                      Geometry.Rect.x = r.Telemetry.Ledger.x;
                      y = r.Telemetry.Ledger.y;
                      w = r.Telemetry.Ledger.w;
                      h = r.Telemetry.Ledger.h;
                    };
                  orient =
                    (if w0 = r.Telemetry.Ledger.w then Geometry.Orientation.R0
                     else Geometry.Orientation.R90);
                })
              b2.Service.Request.placement
          in
          let errors =
            Analysis.Verify.placement ~groups ~outline:(90_000, 95_000)
              b.Netlist.Benchmarks.circuit placed
            |> List.filter (fun (d : Analysis.Diagnostic.t) ->
                   d.Analysis.Diagnostic.severity = Analysis.Diagnostic.Error)
          in
          Alcotest.(check int) "verifier finds zero violations" 0
            (List.length errors)
      | _ -> Alcotest.fail "both requests must produce results")

let test_service_verify_evicts () =
  Service.with_service ~workers:1 (fun svc ->
      let b = Netlist.Benchmarks.miller () in
      let c = b.Netlist.Benchmarks.circuit in
      let groups = G.of_hierarchy b.Netlist.Benchmarks.hierarchy in
      let req = quick_req (Service.Request.Bench "miller") in
      (* poison the cache: a "winning placement" with every module at
         the origin builds an entry whose rigid family member overlaps
         everything — minimal bbox, so selection will pick it *)
      let overlapping =
        List.init (Netlist.Circuit.size c) (fun cell ->
            let w, h = Netlist.Circuit.dims c cell in
            {
              Geometry.Transform.cell;
              rect = { Geometry.Rect.x = 0; y = 0; w; h };
              orient = Geometry.Orientation.R0;
            })
      in
          let poisoned = Service.Multi.build ~groups c overlapping in
      let fp =
        Service.Fingerprint.make ~groups
          ~hierarchy:b.Netlist.Benchmarks.hierarchy
          ~weights:(Service.weights_of_outline None)
          ~seed:0 ~effort:Service.Fingerprint.Quick c
      in
      Service.Cache.insert (Service.cache svc) fp poisoned;
      let r = Service.submit svc req in
      Alcotest.(check string)
        "poisoned entry evicted, request re-annealed" "evict-miss"
        r.Service.Request.served;
      Alcotest.(check int)
        "eviction counted" 1
        (Service.counter_value svc "service.verify_evictions");
      (match r.Service.Request.body with
      | Ok body ->
          (* the service only serves Verify-clean placements; the
             [violations] field additionally counts soft hierarchy QoR
             obligations, so only sanity is asserted here *)
          Alcotest.(check bool)
            "re-annealed result is a real placement" true
            (body.Service.Request.width > 0 && body.Service.Request.height > 0)
      | Error e -> Alcotest.failf "re-anneal failed: %s" e);
      (* the rebuilt entry serves hits again *)
      let r2 = Service.submit svc req in
      Alcotest.(check string) "cache healed" "hit" r2.Service.Request.served;
      Alcotest.(check string)
        "healed entry serves the re-annealed bytes" (result_string r)
        (result_string r2))

let test_service_error_request () =
  Service.with_service ~workers:1 (fun svc ->
      let r =
        Service.submit svc (quick_req (Service.Request.Bench "nope"))
      in
      Alcotest.(check string) "unknown bench errors" "error"
        r.Service.Request.served;
      match r.Service.Request.body with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "error response carries no result")

let test_service_negative_cache () =
  Service.with_service ~workers:1 (fun svc ->
      (* miller needs ~15.3M units^2 of module area: a 1000x1000 box is
         provably unplaceable, so the request must be rejected by the
         feasibility prover without burning an anneal *)
      let req =
        quick_req ~outline:(1000, 1000) (Service.Request.Bench "miller")
      in
      let r1 = Service.submit svc req in
      Alcotest.(check string) "served infeasible" "infeasible"
        r1.Service.Request.served;
      (match r1.Service.Request.body with
      | Error msg ->
          Alcotest.(check bool) "carries the proof" true
            (String.length msg > 0)
      | Ok _ -> Alcotest.fail "infeasible response carries no result");
      Alcotest.(check int) "proved once" 1
        (Service.counter_value svc "service.infeasible");
      Alcotest.(check int) "no anneal burned" 0
        (Service.counter_value svc "service.misses");
      (* the second identical request is answered from the negative
         cache: no prover run, no anneal, just a neg hit *)
      let r2 = Service.submit svc req in
      Alcotest.(check string) "still infeasible" "infeasible"
        r2.Service.Request.served;
      Alcotest.(check int) "negative-cache hit" 1
        (Service.counter_value svc "service.neg_hits");
      Alcotest.(check int) "prover not re-run" 1
        (Service.counter_value svc "service.infeasible");
      Alcotest.(check int) "still no anneal" 0
        (Service.counter_value svc "service.misses");
      (* proofs are salted with the exact box: one unit wider is a new
         key, so it re-proves instead of reusing the cached verdict *)
      let r3 =
        Service.submit svc
          (quick_req ~outline:(1001, 1000) (Service.Request.Bench "miller"))
      in
      Alcotest.(check string) "nearby box re-proved" "infeasible"
        r3.Service.Request.served;
      Alcotest.(check int) "second proof" 2
        (Service.counter_value svc "service.infeasible");
      Alcotest.(check int) "no stale neg hit" 1
        (Service.counter_value svc "service.neg_hits"))

let test_request_json_roundtrip () =
  let line =
    {|{"id":"q1","synthetic":{"n":9,"seed":4},"outline":[50,40],"effort":"quick","seed":3}|}
  in
  match Service.Request.of_line line with
  | Error e -> Alcotest.fail e
  | Ok r ->
      Alcotest.(check string) "id" "q1" r.Service.Request.id;
      Alcotest.(check bool) "outline" true (r.Service.Request.outline = Some (50, 40));
      Alcotest.(check int) "seed" 3 r.Service.Request.seed;
      let again =
        Service.Request.of_line (J.emit (Service.Request.to_json r))
      in
      Alcotest.(check bool) "round-trips" true (again = Ok r)

(* ---- pool-width identity ------------------------------------------ *)

(* Misses (one of them a two-chain Thorough race with the ESF
   entrant), repeats that hit, and an outline variant. *)
let width_requests =
  let syn = Service.Request.Synthetic { n = 10; seed = 1 } in
  let fig2 id =
    {
      (quick_req ~id ~seed:2 (Service.Request.Bench "fig2")) with
      Service.Request.effort = Service.Fingerprint.Thorough;
    }
  in
  let miller = Service.Request.Bench "miller" in
  [
    quick_req ~id:"m1" miller;
    quick_req ~id:"s1" syn;
    fig2 "f1";
    quick_req ~id:"m2" miller;
    quick_req ~id:"o1" ~outline:(100_000, 80_000) miller;
    quick_req ~id:"o2" ~outline:(90_000, 95_000) miller;
    quick_req ~id:"s2" syn;
    fig2 "f2";
  ]

(* Everything in a response but its latency. *)
let response_key (r : Service.Request.response) =
  Printf.sprintf "%s %s %d %d %s" r.Service.Request.request_id
    r.Service.Request.served r.Service.Request.sa_rounds
    r.Service.Request.evaluated (result_string r)

let batch_at ?telemetry workers =
  Service.with_service ~workers ?telemetry (fun svc ->
      Service.run_batch svc width_requests)

let test_service_any_width () =
  let base = batch_at 1 in
  Alcotest.(check (list string))
    "misses, hits and the outline variant"
    [ "miss"; "miss"; "miss"; "hit"; "miss"; "hit"; "hit"; "hit" ]
    (List.map (fun (r : Service.Request.response) -> r.Service.Request.served)
       base);
  let keys rs = List.map response_key rs in
  List.iter
    (fun w ->
      List.iter2
        (Alcotest.(check string) (Printf.sprintf "identical at %d workers" w))
        (keys base) (keys (batch_at w)))
    [ 2; 4 ];
  Alcotest.(check (list string))
    "traced session equals untraced" (keys (batch_at 2))
    (keys (batch_at ~telemetry:Telemetry.Sink.null 2));
  (* a one-entry cache evicts the first miss; re-requesting it anneals
     again and must reproduce the first response *)
  Service.with_service ~workers:2 ~cache_capacity:1 (fun svc ->
      let first = quick_req ~id:"a" (Service.Request.Bench "miller") in
      let other =
        quick_req ~id:"b" (Service.Request.Synthetic { n = 10; seed = 1 })
      in
      let r1 = Service.submit svc first in
      ignore (Service.submit svc other);
      let r2 = Service.submit svc first in
      Alcotest.(check string) "evicted entry misses again" "miss"
        r2.Service.Request.served;
      Alcotest.(check string) "re-miss equals the first miss"
        (response_key r1) (response_key r2))

(* ---- concurrent mixed traffic (CI runs this under real cores) ------ *)

let test_concurrent_stress () =
  let sources =
    [
      Service.Request.Synthetic { n = 10; seed = 1 };
      Service.Request.Synthetic { n = 12; seed = 2 };
      Service.Request.Synthetic { n = 14; seed = 3 };
    ]
  in
  (* repeat-heavy mixed workload: every source queried repeatedly,
     with same-class outline variation to exercise instantiation.
     Outlines are generous: a provably-too-small box would now be
     rejected by the feasibility gate instead of served best-effort *)
  let workload =
    List.concat_map
      (fun k ->
        List.mapi
          (fun i src ->
            let outline =
              match k mod 3 with
              | 0 -> None
              | 1 -> Some (5_000 + (100 * k), 4_500)
              | _ -> Some (5_200, 4_600 + (50 * k))
            in
            quick_req ~id:(Printf.sprintf "w%d-s%d" k i) ?outline src)
          sources)
      [ 0; 1; 2; 3; 4; 5 ]
  in
  Service.with_service (fun svc ->
      List.iter
        (fun in_flight ->
          let responses = Service.run_batch ~in_flight svc workload in
          Alcotest.(check int)
            "every request answered, in order" (List.length workload)
            (List.length responses);
          List.iter2
            (fun (req : Service.Request.t) (resp : Service.Request.response) ->
              Alcotest.(check string)
                "response order preserved" req.Service.Request.id
                resp.Service.Request.request_id;
              if resp.Service.Request.served = "hit" then
                Alcotest.(check int)
                  "no cross-request annealing bleed" 0
                  resp.Service.Request.sa_rounds)
            workload responses;
          (* identical requests (same source/outline/effort/seed) must
             serve byte-identical result objects *)
          let tbl = Hashtbl.create 16 in
          List.iter2
            (fun (req : Service.Request.t) resp ->
              let key =
                ( Service.Request.source_label req.Service.Request.source,
                  req.Service.Request.outline )
              in
              let s = result_string resp in
              match Hashtbl.find_opt tbl key with
              | None -> Hashtbl.add tbl key s
              | Some prev ->
                  Alcotest.(check string)
                    "byte-identical responses for identical requests" prev s)
            workload responses)
        [ 2; 4; 8 ];
      (* zero telemetry bleed: the root counters add up exactly *)
      let v = Service.counter_value svc in
      Alcotest.(check int)
        "every request counted" (3 * List.length workload)
        (v "service.requests");
      Alcotest.(check int)
        "hits + misses = requests"
        (v "service.requests")
        (v "service.hits" + v "service.misses");
      Alcotest.(check int) "no verify evictions in clean traffic" 0
        (v "service.verify_evictions"))

let () =
  Alcotest.run "service"
    [
      ( "fingerprint",
        [
          Alcotest.test_case "keys" `Quick test_fingerprint_basics;
          Alcotest.test_case "outline classes" `Quick
            test_fingerprint_outline_class;
          Alcotest.test_case "hierarchy signature" `Quick
            test_hierarchy_signature_order_invariant;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_fingerprint_reorder_invariant;
            prop_fingerprint_member_change;
            prop_fingerprint_group_order;
          ] );
      ("cache", [ Alcotest.test_case "lru" `Quick test_cache_lru ]);
      ( "multi",
        [
          Alcotest.test_case "family" `Quick test_multi_family;
          Alcotest.test_case "deterministic" `Quick test_multi_deterministic;
        ] );
      ( "service",
        [
          Alcotest.test_case "miss then hit" `Quick test_service_miss_then_hit;
          Alcotest.test_case "varied outline" `Quick
            test_service_varied_outline_hit;
          Alcotest.test_case "verify evicts" `Quick test_service_verify_evicts;
          Alcotest.test_case "error request" `Quick test_service_error_request;
          Alcotest.test_case "negative cache" `Quick
            test_service_negative_cache;
          Alcotest.test_case "request json" `Quick test_request_json_roundtrip;
          Alcotest.test_case "any pool width" `Quick test_service_any_width;
        ] );
      ( "concurrent",
        [ Alcotest.test_case "mixed traffic" `Quick test_concurrent_stress ] );
    ]
