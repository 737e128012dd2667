(* Pinned fixed-seed trajectories for every annealing engine.

   Each case runs one engine end to end at a fixed seed and compares
   the bits of its best cost ([Int64.bits_of_float]) and its effort
   counters — rounds, accepted moves, cost evaluations — against
   values recorded when persistent problems still ran on a separate
   copying engine. Any change to the Metropolis loop, to the order of
   rng draws or cost calls, or to how a placer builds its problem shows
   up here as a bit difference. A field the engine's public outcome
   does not expose is -1 on both sides. *)

let params =
  {
    Anneal.Sa.initial_temperature = None;
    final_temperature = 1e-2;
    moves_per_round = 60;
    schedule = Anneal.Schedule.default;
    frozen_rounds = 4;
    max_rounds = 400;
  }

(* accepted moves, summed over the per-move-class tallies *)
let accepted_of sink =
  List.fold_left
    (fun acc (k, v) ->
      if
        String.starts_with ~prefix:"sa.moves." k
        && String.ends_with ~suffix:".accept" k
      then acc + v
      else acc)
    0
    (Telemetry.Sink.counters sink)

let miller = Netlist.Benchmarks.miller ()
let mc = miller.Netlist.Benchmarks.circuit

let mgroups =
  Constraints.Symmetry_group.of_hierarchy miller.Netlist.Benchmarks.hierarchy

let cc =
  (List.nth (Netlist.Benchmarks.table1_suite ()) 1).Netlist.Benchmarks.circuit
let fig2 = Netlist.Benchmarks.fig2_design ()

let sp ?workers ?chains ?(groups = []) seed circuit () =
  let sink = Telemetry.Sink.create () in
  let o =
    Placer.Sa_seqpair.place ~params ~groups ?workers ?chains ~telemetry:sink
      ~rng:(Prelude.Rng.create seed) circuit
  in
  ( o.Placer.Sa_seqpair.cost,
    o.Placer.Sa_seqpair.sa_rounds,
    accepted_of sink,
    o.Placer.Sa_seqpair.evaluated )

let sp_no_exchange () =
  let out =
    Anneal.Parallel.run ~workers:2 ~exchange_every:0
      ~seeds:[ 11; 12; 13 ] params
      (Placer.Sa_seqpair.problem_of ~weights:Placer.Cost.default
         ~groups:mgroups mc)
  in
  let chains = out.Anneal.Parallel.chains in
  ( out.Anneal.Parallel.best_cost,
    chains.(out.Anneal.Parallel.winner).Anneal.Sa.rounds,
    Array.fold_left (fun a o -> a + o.Anneal.Sa.accepted) 0 chains,
    out.Anneal.Parallel.evaluated )

let tcg ?weights ?estimator seed () =
  let sink = Telemetry.Sink.create () in
  let o =
    Placer.Sa_tcg.place ?weights ~params ?estimator ~telemetry:sink
      ~rng:(Prelude.Rng.create seed) cc
  in
  ( o.Placer.Sa_tcg.cost,
    o.Placer.Sa_tcg.sa_rounds,
    accepted_of sink,
    o.Placer.Sa_tcg.evaluated )

let bstar ?weights ?estimator ?workers ?chains seed () =
  let sink = Telemetry.Sink.create () in
  let o =
    Placer.Sa_bstar.place ?weights ~params ?estimator ?workers ?chains
      ~telemetry:sink ~rng:(Prelude.Rng.create seed) cc
  in
  ( o.Placer.Sa_bstar.cost,
    o.Placer.Sa_bstar.sa_rounds,
    accepted_of sink,
    o.Placer.Sa_bstar.evaluated )

(* the routability-weighted B* anneal with the RUDY estimate folded
   into the cost, at the weight the E20 comparison uses *)
let bstar_routability =
  bstar
    ~weights:{ Placer.Cost.default with Placer.Cost.routability = 60.0 }
    ~estimator:(Route.Estimate.estimator cc) 5

(* the TCG arm under the same routability weight: its congestion term
   reads the per-cell geometry of every packed candidate *)
let tcg_routability =
  tcg
    ~weights:{ Placer.Cost.default with Placer.Cost.routability = 60.0 }
    ~estimator:(Route.Estimate.estimator cc) 4

let hbstar ?workers ?chains seed () =
  let sink = Telemetry.Sink.create () in
  let o =
    Placer.Sa_hbstar.place ~params ?workers ?chains ~telemetry:sink
      ~rng:(Prelude.Rng.create seed) fig2.Netlist.Benchmarks.circuit
      fig2.Netlist.Benchmarks.hierarchy
  in
  ( o.Placer.Sa_hbstar.cost,
    o.Placer.Sa_hbstar.sa_rounds,
    accepted_of sink,
    o.Placer.Sa_hbstar.evaluated )

(* Sa_hbstar's problem run straight on the engine, so its acceptance
   count is read from the outcome rather than from move tallies *)
let hbstar_engine () =
  let rng = Prelude.Rng.create 7 in
  let r =
    Anneal.Sa.run ~rng params
      (Placer.Sa_hbstar.problem_of ~weights:Placer.Cost.default
         fig2.Netlist.Benchmarks.circuit fig2.Netlist.Benchmarks.hierarchy
         Telemetry.Sink.null rng)
  in
  (r.Anneal.Sa.best_cost, r.Anneal.Sa.rounds, r.Anneal.Sa.accepted,
   r.Anneal.Sa.evaluated)

let slicing () =
  let o = Placer.Slicing.place ~params ~rng:(Prelude.Rng.create 8) cc in
  (o.Placer.Slicing.cost, o.Placer.Slicing.sa_rounds, -1,
   o.Placer.Slicing.evaluated)

let absolute () =
  let o = Placer.Sa_absolute.place ~params ~rng:(Prelude.Rng.create 9) cc in
  (o.Placer.Sa_absolute.cost, o.Placer.Sa_absolute.sa_rounds, -1,
   o.Placer.Sa_absolute.evaluated)

(* the sizing flow exposes neither its cost nor its rounds: pin the
   best design's layout area instead *)
let sizing mode () =
  let sa =
    {
      Anneal.Sa.initial_temperature = Some 10.0;
      final_temperature = 1e-2;
      moves_per_round = 80;
      schedule = Anneal.Schedule.Geometric 0.9;
      frozen_rounds = 6;
      max_rounds = 50;
    }
  in
  let config = { Sizing.Flow.default_config with Sizing.Flow.sa } in
  let o = Sizing.Flow.run ~config ~rng:(Prelude.Rng.create 10) mode in
  (o.Sizing.Flow.layout.Sizing.Template.area_um2, -1, -1,
   o.Sizing.Flow.evaluations)

(* the race runs on the lockstep schedule, so it is deterministic at any
   width; its four pins were recorded on that schedule *)
let race =
  lazy
    (Placer.Portfolio.race ~params ~workers:1 ~rng:(Prelude.Rng.create 12) cc)

let portfolio () =
  let o = Lazy.force race in
  (o.Placer.Portfolio.cost, -1, -1, o.Placer.Portfolio.evaluated)

let entrant engine () =
  let e =
    List.find
      (fun (e : Placer.Portfolio.entrant) -> e.Placer.Portfolio.engine = engine)
      (Lazy.force race).Placer.Portfolio.entrants
  in
  (e.Placer.Portfolio.cost, e.Placer.Portfolio.sa_rounds, -1,
   e.Placer.Portfolio.evaluated)

(* name, run, (cost bits, rounds, accepted, evaluated) *)
let cases =
  [
    ("sp symmetric", sp ~groups:mgroups 1 mc,
     (4714383884566292070L, 400, 5835, 24000));
    ("sp flat", sp 2 cc, (4691367007617024000L, 368, 5298, 22080));
    ("sp deterministic 1 worker", sp ~groups:mgroups ~workers:1 ~chains:3 3 mc,
     (4714258948369992909L, 400, 18104, 67140));
    ("sp deterministic 2 workers", sp ~groups:mgroups ~workers:2 ~chains:3 3 mc,
     (4714258948369992909L, 400, 18104, 67140));
    ("sp no exchange", sp_no_exchange,
     (4714384024260103373L, 400, 17970, 72000));
    ("tcg", tcg 4, (4691247628142038221L, 366, 6464, 21960));
    ("bstar", bstar 5, (4691429836116616806L, 362, 5488, 21720));
    ("bstar deterministic 2 workers", bstar ~workers:2 ~chains:3 6,
     (4691366392577707213L, 370, 17040, 66300));
    ("hbstar", hbstar 7, (4686205900036243456L, 346, 10059, 20760));
    ("hbstar engine", hbstar_engine,
     (4686205900036243456L, 346, 10059, 20760));
    (* recorded when HB* moved onto multi_start: any width, one result *)
    ("hbstar deterministic 1 worker", hbstar ~workers:1 ~chains:3 8,
     (4686205900036243456L, 353, 31915, 63300));
    ("hbstar deterministic 2 workers", hbstar ~workers:2 ~chains:3 8,
     (4686205900036243456L, 353, 31915, 63300));
    ("slicing", slicing, (4691653538629235507L, 356, -1, 21360));
    ("absolute", absolute, (4691533236595274547L, 372, -1, 22320));
    ("sizing layout-aware", sizing Sizing.Flow.Layout_aware,
     (4656818044287444216L, -1, -1, 4000));
    ("sizing electrical-only", sizing Sizing.Flow.Electrical_only,
     (4665320416852040693L, -1, -1, 4000));
    ("portfolio race", portfolio, (4691260353271142810L, -1, -1, 65602));
    ("portfolio sp entrant", entrant Placer.Portfolio.Sp,
     (4691260353271142810L, 370, -1, 22203));
    ("portfolio bstar entrant", entrant Placer.Portfolio.Bstar,
     (4691591244423574323L, 359, -1, 21549));
    ("portfolio tcg entrant", entrant Placer.Portfolio.Tcg,
     (4691333457050494566L, 364, -1, 21850));
    ("bstar routability", bstar_routability,
     (4692465216064757766L, 362, 5127, 21720));
    ("tcg routability", tcg_routability,
     (4692232009291635709L, 366, 5550, 21960));
  ]

let check_case (run, (bits, rounds, accepted, evaluated)) () =
  let cost, r, a, e = run () in
  Alcotest.(check int64) "best-cost bits" bits (Int64.bits_of_float cost);
  Alcotest.(check int) "rounds" rounds r;
  Alcotest.(check int) "accepted" accepted a;
  Alcotest.(check int) "evaluated" evaluated e

let () =
  Alcotest.run "trajectory"
    [
      ( "pinned",
        List.map
          (fun (name, run, expected) ->
            Alcotest.test_case name `Quick (check_case (run, expected)))
          cases );
    ]
