let test_schedule_geometric () =
  let t =
    Anneal.Schedule.next (Anneal.Schedule.Geometric 0.9) ~temperature:100.0
      ~acceptance:0.5
  in
  Alcotest.(check (float 1e-9)) "geometric" 90.0 t

let test_schedule_adaptive () =
  let s = Anneal.Schedule.adaptive in
  let hot = Anneal.Schedule.next s ~temperature:100.0 ~acceptance:0.95 in
  let mid = Anneal.Schedule.next s ~temperature:100.0 ~acceptance:0.5 in
  let cold = Anneal.Schedule.next s ~temperature:100.0 ~acceptance:0.05 in
  Alcotest.(check bool) "hot cools faster" true (hot < mid);
  Alcotest.(check bool) "cold cools slower" true (cold > mid)

(* A rugged 1-D landscape the walker must cross barriers on, as a
   persistent problem lifted onto the in-place engine. Each call builds
   a fresh problem: the lift owns its working state, so chains must not
   share one. *)
let landscape x =
  let fx = float_of_int x in
  (0.01 *. fx *. fx) +. (3.0 *. sin (fx /. 4.0))

let problem () =
  Anneal.Sa.persistent ~init:80
    ~neighbor:(fun rng x ->
      let step = Prelude.Rng.int_in rng (-3) 3 in
      max (-100) (min 100 (x + step)))
    ~cost:landscape

let test_sa_minimizes () =
  let rng = Prelude.Rng.create 17 in
  let params =
    { (Anneal.Sa.default_params ~n:10) with Anneal.Sa.max_rounds = 200 }
  in
  let out = Anneal.Sa.run ~rng params (problem ()) in
  (* global minimum is near x = -6 .. 0 with cost around -2.7 *)
  Alcotest.(check bool)
    (Printf.sprintf "found near-optimum (best %d cost %.2f)"
       !(out.Anneal.Sa.best) out.Anneal.Sa.best_cost)
    true
    (out.Anneal.Sa.best_cost < -2.0);
  Alcotest.(check bool) "improved on init" true
    (out.Anneal.Sa.best_cost < landscape 80);
  Alcotest.(check bool) "counted evaluations" true (out.Anneal.Sa.evaluated > 0)

let test_estimate_t0 () =
  let rng = Prelude.Rng.create 5 in
  let p = problem () in
  let t0 = Anneal.Sa.estimate_t0 ~rng p ~samples:50 in
  Alcotest.(check bool) "positive" true (t0 > 0.0);
  Alcotest.(check int) "working state restored" 80 !(p.Anneal.Sa.state)

let test_deterministic () =
  let run () =
    let rng = Prelude.Rng.create 17 in
    !((Anneal.Sa.run ~rng (Anneal.Sa.default_params ~n:10) (problem ()))
        .Anneal.Sa.best)
  in
  Alcotest.(check int) "same seed same best" (run ()) (run ())

let par_params =
  { (Anneal.Sa.default_params ~n:10) with Anneal.Sa.max_rounds = 120 }

(* A single chain with no rivals must replay [Sa.run] on the same seed
   exactly: same best, same cost, same evaluation count. *)
let test_parallel_solo_matches_run () =
  let seq =
    Anneal.Sa.run ~rng:(Prelude.Rng.create 17) par_params (problem ())
  in
  let par =
    Anneal.Parallel.run ~workers:1 ~seeds:[ 17 ] par_params (fun _ _ ->
        problem ())
  in
  Alcotest.(check int)
    "same best" !(seq.Anneal.Sa.best) !(par.Anneal.Parallel.best);
  Alcotest.(check (float 0.0))
    "same cost" seq.Anneal.Sa.best_cost par.Anneal.Parallel.best_cost;
  Alcotest.(check int)
    "same evaluation count" seq.Anneal.Sa.evaluated
    par.Anneal.Parallel.evaluated

let test_parallel_worker_count_invariant () =
  let seeds = [ 3; 11; 42; 99 ] in
  let go workers =
    Anneal.Parallel.run ~workers ~exchange_every:8 ~seeds par_params (fun _ _ ->
        problem ())
  in
  let a = go 1 and b = go 2 and c = go 4 in
  Alcotest.(check int)
    "1 vs 2 best" !(a.Anneal.Parallel.best) !(b.Anneal.Parallel.best);
  Alcotest.(check int)
    "1 vs 4 best" !(a.Anneal.Parallel.best) !(c.Anneal.Parallel.best);
  Alcotest.(check (float 0.0))
    "1 vs 2 cost" a.Anneal.Parallel.best_cost b.Anneal.Parallel.best_cost;
  Alcotest.(check (float 0.0))
    "1 vs 4 cost" a.Anneal.Parallel.best_cost c.Anneal.Parallel.best_cost;
  Alcotest.(check int)
    "1 vs 4 winner" a.Anneal.Parallel.winner c.Anneal.Parallel.winner;
  Alcotest.(check int)
    "1 vs 4 evaluations" a.Anneal.Parallel.evaluated
    c.Anneal.Parallel.evaluated

let test_parallel_deterministic () =
  let go () =
    (Anneal.Parallel.run ~workers:2 ~exchange_every:8 ~seeds:[ 5; 6; 7 ]
       par_params (fun _ _ -> problem ()))
      .Anneal.Parallel.best_cost
  in
  Alcotest.(check (float 0.0)) "same seeds same cost" (go ()) (go ())

let test_parallel_multistart_minimizes () =
  let out =
    Anneal.Parallel.run ~workers:2 ~seeds:[ 1; 2; 3 ] par_params (fun _ _ ->
        problem ())
  in
  Alcotest.(check bool)
    "found near-optimum" true
    (out.Anneal.Parallel.best_cost < -2.0);
  Alcotest.(check int)
    "one outcome per seed" 3
    (Array.length out.Anneal.Parallel.chains);
  Alcotest.(check bool) "winner is the argmin" true
    (Array.for_all
       (fun (o : int ref Anneal.Sa.outcome) ->
         out.Anneal.Parallel.best_cost <= o.Anneal.Sa.best_cost)
       out.Anneal.Parallel.chains)

(* The same landscape written directly as an in-place problem: state is
   [| value; prev |] so [undo] restores the pre-propose value.
   Draw-for-draw the same rng consumption as the persistent [problem],
   so the lift must replay it exactly — the cases below pin that down
   at the engine and parallel levels. *)
let in_place () =
  {
    Anneal.Sa.state = [| 80; 80 |];
    propose =
      (fun rng s ->
        let step = Prelude.Rng.int_in rng (-3) 3 in
        s.(1) <- s.(0);
        s.(0) <- max (-100) (min 100 (s.(0) + step)));
    undo = (fun s -> s.(0) <- s.(1));
    cost = (fun s -> landscape s.(0));
    copy = Array.copy;
    blit = (fun ~src ~dst -> Array.blit src 0 dst 0 2);
  }

let test_mutable_matches_functional () =
  let seq =
    Anneal.Sa.run ~rng:(Prelude.Rng.create 17) par_params (problem ())
  in
  let m =
    Anneal.Sa.run ~rng:(Prelude.Rng.create 17) par_params (in_place ())
  in
  Alcotest.(check int) "same best" !(seq.Anneal.Sa.best) m.Anneal.Sa.best.(0);
  Alcotest.(check (float 0.0))
    "same cost" seq.Anneal.Sa.best_cost m.Anneal.Sa.best_cost;
  Alcotest.(check int) "same rounds" seq.Anneal.Sa.rounds m.Anneal.Sa.rounds;
  Alcotest.(check int)
    "same acceptances" seq.Anneal.Sa.accepted m.Anneal.Sa.accepted;
  Alcotest.(check int)
    "same evaluation count" seq.Anneal.Sa.evaluated m.Anneal.Sa.evaluated

let test_parallel_mutable_matches_functional () =
  let seeds = [ 3; 11; 42; 99 ] in
  let f =
    Anneal.Parallel.run ~workers:2 ~exchange_every:8 ~seeds par_params
      (fun _ _ -> problem ())
  in
  let m =
    Anneal.Parallel.run ~workers:2 ~exchange_every:8 ~seeds par_params
      (fun _ _ -> in_place ())
  in
  Alcotest.(check int)
    "same best" !(f.Anneal.Parallel.best) m.Anneal.Parallel.best.(0);
  Alcotest.(check (float 0.0))
    "same cost" f.Anneal.Parallel.best_cost m.Anneal.Parallel.best_cost;
  Alcotest.(check int) "same winner" f.Anneal.Parallel.winner
    m.Anneal.Parallel.winner;
  Alcotest.(check int)
    "same evaluations" f.Anneal.Parallel.evaluated m.Anneal.Parallel.evaluated

let test_parallel_mutable_worker_invariant () =
  let seeds = [ 3; 11; 42; 99 ] in
  let go workers =
    Anneal.Parallel.run ~workers ~exchange_every:8 ~seeds par_params
      (fun _ _ -> in_place ())
  in
  let a = go 1 and b = go 2 and c = go 4 in
  Alcotest.(check int)
    "1 vs 2 best" a.Anneal.Parallel.best.(0) b.Anneal.Parallel.best.(0);
  Alcotest.(check (float 0.0))
    "1 vs 2 cost" a.Anneal.Parallel.best_cost b.Anneal.Parallel.best_cost;
  Alcotest.(check (float 0.0))
    "1 vs 4 cost" a.Anneal.Parallel.best_cost c.Anneal.Parallel.best_cost;
  Alcotest.(check int)
    "1 vs 4 winner" a.Anneal.Parallel.winner c.Anneal.Parallel.winner;
  Alcotest.(check int)
    "1 vs 4 evaluations" a.Anneal.Parallel.evaluated
    c.Anneal.Parallel.evaluated

(* Worker-count invariance as a property: the deterministic mode on the
   persistent pool must be a pure function of seeds/params/exchange for
   ANY worker count and ANY slice length, not just the hand-picked
   combinations above. *)
let prop_parallel_worker_invariant =
  QCheck.Test.make ~name:"deterministic mode is worker-count invariant"
    ~count:12
    QCheck.(
      triple
        (list_of_size Gen.(1 -- 5) (int_range 0 999))
        (int_range 2 5) (int_range 1 16))
    (fun (seeds, workers, exchange_every) ->
      let go workers =
        Anneal.Parallel.run ~workers ~exchange_every ~seeds par_params
          (fun _ _ -> problem ())
      in
      let a = go 1 and b = go workers in
      !(a.Anneal.Parallel.best) = !(b.Anneal.Parallel.best)
      && a.Anneal.Parallel.best_cost = b.Anneal.Parallel.best_cost
      && a.Anneal.Parallel.winner = b.Anneal.Parallel.winner
      && a.Anneal.Parallel.evaluated = b.Anneal.Parallel.evaluated)

(* With exchange disabled every chain replays its solo walk exactly:
   the one barrier comes after every chain has finished, and a finished
   chain is offered nothing. So each chain reports its own best (not
   the winner's), the winner is the first chain holding the lowest solo
   best, and the outcome is the min over independent Sa.run restarts.
   Eight rounds leave the chains in different basins; these seeds put
   the best one at index 2. *)
let test_parallel_restarts_match_solo () =
  let params = { par_params with Anneal.Sa.max_rounds = 8 } in
  let seeds = [ 7; 107; 207; 307 ] in
  let solo =
    List.map
      (fun s ->
        Anneal.Sa.run ~rng:(Prelude.Rng.create s) params (problem ()))
      seeds
  in
  let out =
    Anneal.Parallel.run ~workers:2 ~exchange_every:0 ~seeds params
      (fun _ _ -> problem ())
  in
  List.iteri
    (fun i (o : int ref Anneal.Sa.outcome) ->
      Alcotest.(check (float 0.0))
        (Printf.sprintf "chain %d replays its solo walk" i)
        o.Anneal.Sa.best_cost
        out.Anneal.Parallel.chains.(i).Anneal.Sa.best_cost)
    solo;
  let best_solo =
    List.fold_left
      (fun acc (o : int ref Anneal.Sa.outcome) -> min acc o.Anneal.Sa.best_cost)
      infinity solo
  in
  Alcotest.(check (float 0.0))
    "best = min over solo restarts" best_solo out.Anneal.Parallel.best_cost;
  Alcotest.(check int) "winner is the best solo chain" 2
    out.Anneal.Parallel.winner;
  Alcotest.(check int)
    "same total evaluations"
    (List.fold_left
       (fun acc (o : int ref Anneal.Sa.outcome) -> acc + o.Anneal.Sa.evaluated)
       0 solo)
    out.Anneal.Parallel.evaluated

(* ANALOG_WORKERS: parse/clamp behavior of the worker-count default.
   Unix.putenv mutates the live environment, so restore it per case. *)
let with_env value f =
  let prev = Sys.getenv_opt "ANALOG_WORKERS" in
  Unix.putenv "ANALOG_WORKERS" value;
  Fun.protect
    ~finally:(fun () ->
      Unix.putenv "ANALOG_WORKERS" (Option.value prev ~default:""))
    f

let test_parse_workers () =
  let check label input expected =
    Alcotest.(check (option int)) label expected (Anneal.Parallel.parse_workers input)
  in
  check "plain" "4" (Some 4);
  check "trimmed" "  8 " (Some 8);
  check "clamped to 1" "0" (Some 1);
  check "negative clamped" "-3" (Some 1);
  check "garbage" "lots" None;
  check "empty" "" None;
  check "float rejected" "2.5" None

let test_default_workers_env () =
  with_env "3" (fun () ->
      Alcotest.(check int) "env honoured" 3 (Anneal.Parallel.default_workers ()));
  with_env "-2" (fun () ->
      Alcotest.(check int)
        "clamped to at least 1" 1
        (Anneal.Parallel.default_workers ()));
  with_env "nonsense" (fun () ->
      Alcotest.(check int)
        "unparsable falls back to hardware"
        (Domain.recommended_domain_count ())
        (Anneal.Parallel.default_workers ()));
  with_env "" (fun () ->
      Alcotest.(check int)
        "empty falls back to hardware"
        (Domain.recommended_domain_count ())
        (Anneal.Parallel.default_workers ()))

(* --- the persistent worker pool ------------------------------------ *)

let test_pool_runs_all_jobs () =
  List.iter
    (fun workers ->
      Anneal.Pool.with_pool ~workers (fun pool ->
          let n = 37 in
          let hits = Array.make n 0 in
          Anneal.Pool.run pool
            (Array.init n (fun i () -> hits.(i) <- hits.(i) + 1));
          Alcotest.(check bool)
            (Printf.sprintf "every job ran once at %d workers" workers)
            true
            (Array.for_all (( = ) 1) hits)))
    [ 1; 2; 4 ]

let test_pool_persists_across_barriers () =
  Anneal.Pool.with_pool ~workers:3 (fun pool ->
      let total = Atomic.make 0 in
      for _ = 1 to 5 do
        Anneal.Pool.run pool
          (Array.init 8 (fun _ () -> Atomic.incr total))
      done;
      Alcotest.(check int) "five barriers on one pool" 40 (Atomic.get total));
  Alcotest.(check pass) "shutdown clean" () ()

let test_pool_sequential_order () =
  (* workers:1 spawns no domain: jobs run inline in submission order *)
  Anneal.Pool.with_pool ~workers:1 (fun pool ->
      Alcotest.(check int) "clamped count" 1 (Anneal.Pool.workers pool);
      let order = ref [] in
      Anneal.Pool.run pool (Array.init 5 (fun i () -> order := i :: !order));
      Alcotest.(check (list int)) "submission order" [ 0; 1; 2; 3; 4 ]
        (List.rev !order))

exception Boom of int

let test_pool_reraises_failure () =
  List.iter
    (fun workers ->
      Anneal.Pool.with_pool ~workers (fun pool ->
          let ran = Atomic.make 0 in
          (try
             Anneal.Pool.run pool
               [|
                 (fun () -> Atomic.incr ran);
                 (fun () -> raise (Boom 1));
                 (fun () -> Atomic.incr ran);
               |];
             Alcotest.fail "drain swallowed the job exception"
           with Boom 1 -> ());
          Alcotest.(check int)
            (Printf.sprintf "remaining jobs still ran at %d workers" workers)
            2 (Atomic.get ran);
          (* the pool survives a failed batch *)
          let ok = ref false in
          Anneal.Pool.run pool [| (fun () -> ok := true) |];
          Alcotest.(check bool) "usable after failure" true !ok))
    [ 1; 3 ]

let test_pool_submit_after_shutdown () =
  let pool = Anneal.Pool.create ~workers:2 in
  Anneal.Pool.shutdown pool;
  Anneal.Pool.shutdown pool;
  (* idempotent *)
  Alcotest.check_raises "submit after shutdown"
    (Invalid_argument "Pool.submit: pool is shut down") (fun () ->
      Anneal.Pool.submit pool (fun () -> ()))

let () =
  Alcotest.run "anneal"
    [
      ( "schedule",
        [
          Alcotest.test_case "geometric" `Quick test_schedule_geometric;
          Alcotest.test_case "adaptive" `Quick test_schedule_adaptive;
        ] );
      ( "sa",
        [
          Alcotest.test_case "minimizes" `Quick test_sa_minimizes;
          Alcotest.test_case "estimate t0" `Quick test_estimate_t0;
          Alcotest.test_case "deterministic" `Quick test_deterministic;
          Alcotest.test_case "mutable engine replays functional" `Quick
            test_mutable_matches_functional;
        ] );
      ( "parallel",
        [
          Alcotest.test_case "workers=1 replays Sa.run" `Quick
            test_parallel_solo_matches_run;
          Alcotest.test_case "worker-count invariant" `Quick
            test_parallel_worker_count_invariant;
          Alcotest.test_case "deterministic" `Quick test_parallel_deterministic;
          Alcotest.test_case "multi-start minimizes" `Quick
            test_parallel_multistart_minimizes;
          Alcotest.test_case "restarts match solo runs" `Quick
            test_parallel_restarts_match_solo;
          Alcotest.test_case "mutable replays functional" `Quick
            test_parallel_mutable_matches_functional;
          Alcotest.test_case "mutable worker-count invariant" `Quick
            test_parallel_mutable_worker_invariant;
          Alcotest.test_case "ANALOG_WORKERS parser" `Quick test_parse_workers;
          Alcotest.test_case "ANALOG_WORKERS default" `Quick
            test_default_workers_env;
          QCheck_alcotest.to_alcotest prop_parallel_worker_invariant;
        ] );
      ( "pool",
        [
          Alcotest.test_case "runs all jobs" `Quick test_pool_runs_all_jobs;
          Alcotest.test_case "persists across barriers" `Quick
            test_pool_persists_across_barriers;
          Alcotest.test_case "workers=1 runs inline in order" `Quick
            test_pool_sequential_order;
          Alcotest.test_case "re-raises job failures" `Quick
            test_pool_reraises_failure;
          Alcotest.test_case "shutdown" `Quick test_pool_submit_after_shutdown;
        ] );
    ]
