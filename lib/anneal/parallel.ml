(* Multi-start annealing over a persistent domain pool.

   One chain per seed, each with a private splitmix64 stream and
   private problem instance (so mutable evaluation arenas are never
   shared). The chains run on [lockstep], the one barrier schedule
   (Placer.Portfolio races its heterogeneous entrants on it too).
   Entrants are partitioned over workers round-robin and advanced in
   slices of [exchange_every] rounds; each slice is a {!Pool.run}
   barrier (the happens-before edge a spawn/join pair used to give,
   minus the spawn), and at the boundary the globally best entrant's
   exchange value is offered to every entrant still running. The slice
   counter is the logical clock: boundaries, reduction order and every
   chain's stream are fixed by the seed list alone, so the result is
   identical for any worker count.

   Each entrant writes its telemetry to a private child sink (tid =
   seed index + 1) that only one domain touches per slice, and the
   children are absorbed into the caller's sink after the final
   barrier — so recording is race-free and consumes no rng draws. *)

type 'a outcome = {
  best : 'a;
  best_cost : float;
  winner : int;
  chains : 'a Sa.outcome array;
  evaluated : int;
}

(* ANALOG_WORKERS overrides the hardware default, e.g. to pin CI to a
   known width or to share a box. Anything unparsable falls back to the
   hardware count; values below 1 clamp to 1. *)
let parse_workers s =
  match int_of_string_opt (String.trim s) with
  | Some w -> Some (max 1 w)
  | None -> None

let default_workers () =
  match Sys.getenv_opt "ANALOG_WORKERS" with
  | Some s when String.trim s <> "" -> (
      match parse_workers s with
      | Some w -> w
      | None -> Domain.recommended_domain_count ())
  | _ -> Domain.recommended_domain_count ()

(* The pool width [k] chains run on: the requested worker count
   (default {!default_workers}), capped at one domain per chain. *)
let width ?workers k =
  max 1 (min k (match workers with Some w -> w | None -> default_workers ()))

type 'x entrant = {
  tel : Telemetry.Sink.t;
  engine : string option;
  step : unit -> unit;
  finished : unit -> bool;
  best_cost : unit -> float;
  best : unit -> 'x;
  offer : 'x -> float -> unit;
  effort : unit -> int * int;
}

(* An Sa chain as an entrant: the exchange value is the chain's own
   best-snapshot buffer, and [Sa.adopt] keeps only strict improvements,
   so offering the winner its own best never perturbs it. *)
let sa_entrant ?engine tel c =
  {
    tel;
    engine;
    step = (fun () -> Sa.step_round c);
    finished = (fun () -> Sa.finished c);
    best_cost = (fun () -> Sa.best_cost c);
    best = (fun () -> Sa.best c);
    offer = (fun state cost -> Sa.adopt c ~state ~cost);
    effort =
      (fun () ->
        let o = Sa.outcome_of_chain c in
        (o.Sa.rounds, o.Sa.evaluated));
  }

let best_index entrants =
  let bi = ref 0 in
  Array.iteri
    (fun i e ->
      if e.best_cost () < entrants.(!bi).best_cost () then bi := i)
    entrants;
  !bi

(* Advance an entrant by up to [slice] rounds, recording the slice span
   and bumping its accumulated slice wall-time counter. *)
let advance_slice ~slice e =
  let t0 = Telemetry.Sink.span_begin e.tel in
  let budget = ref slice in
  while !budget > 0 && not (e.finished ()) do
    e.step ();
    decr budget
  done;
  let t1 = Telemetry.Sink.lap e.tel "chain.slice" t0 in
  Telemetry.Counter.add
    (Telemetry.Sink.counter e.tel "chain.slice_us")
    (int_of_float ((t1 -. t0) *. 1e6))

(* Report every entrant, merge the child sinks and pick the winner:
   the first entrant holding the lowest best cost, checked once more on
   the calling domain. The report is one Qor.chain record per entrant,
   written into its own child sink just before absorb so it rides into
   the parent like every other telemetry stream. Wall time comes from
   the chain.slice_us counter accumulated as slices close — O(1) to
   read, and immune to the span ring overwriting old slices on long
   runs. *)
let close ~check ~telemetry entrants =
  Array.iter
    (fun e ->
      if Telemetry.Sink.live e.tel then begin
        let counters = Telemetry.Sink.counters e.tel in
        let wall =
          match List.assoc_opt "chain.slice_us" counters with
          | Some us -> float_of_int us /. 1e6
          | None -> 0.0
        in
        let move_rates = Telemetry.Qor.move_rates_of_counters counters in
        let sa_rounds, evaluated = e.effort () in
        Telemetry.Sink.record_qor e.tel
          (Telemetry.Qor.chain ?engine:e.engine ~mode:"deterministic"
             ~move_rates ~cost:(e.best_cost ()) ~wall_s:wall ~sa_rounds
             ~evaluated ())
      end)
    entrants;
  Array.iter (fun e -> Telemetry.Sink.absorb telemetry e.tel) entrants;
  let winner = best_index entrants in
  check (entrants.(winner).best ());
  winner

(* The lockstep schedule: barrier slices on a persistent pool, created
   once per run unless the caller lends one. Each Pool.run is a full
   barrier, so the exchange reduction happens-after every entrant's
   slice; the partition (entrant i on domain i mod workers) only
   decides where a slice runs, never what it computes. *)
let lockstep ?pool ?workers ?(exchange_every = 32) ?(check = ignore)
    ?(telemetry = Telemetry.Sink.null) entrants =
  let k = Array.length entrants in
  if k = 0 then invalid_arg "Parallel.lockstep: no entrants";
  (* a non-positive exchange period is one slice to completion, i.e.
     no exchange *)
  let slice = if exchange_every <= 0 then max_int else exchange_every in
  let exchanges = Telemetry.Sink.counter telemetry "parallel.exchanges" in
  let unfinished () = Array.exists (fun e -> not (e.finished ())) entrants in
  let barriers pool =
    let workers = Pool.workers pool in
    let jobs =
      Array.init workers (fun d () ->
          for i = 0 to k - 1 do
            if i mod workers = d then
              advance_slice ~slice entrants.(i)
          done)
    in
    while unfinished () do
      let t_slice = Telemetry.Sink.span_begin telemetry in
      Pool.run pool jobs;
      let t_ex = Telemetry.Sink.lap telemetry "parallel.slice" t_slice in
      let b = entrants.(best_index entrants) in
      let x = b.best () and cost = b.best_cost () in
      check x;
      (* a finished entrant cannot walk on from an offer; adopting it
         would only overwrite the best it reports and the winner *)
      Array.iter (fun e -> if not (e.finished ()) then e.offer x cost) entrants;
      Telemetry.Counter.incr exchanges;
      Telemetry.Sink.span_end telemetry "parallel.exchange" t_ex
    done
  in
  (match pool with
  | Some p -> barriers p
  | None -> Pool.with_pool ~workers:(width ?workers k) barriers);
  close ~check ~telemetry entrants

let run ?workers ?(exchange_every = 32) ?(check = ignore)
    ?(telemetry = Telemetry.Sink.null) ?engine ~seeds params problem_of =
  if seeds = [] then invalid_arg "Parallel: empty seed list";
  (* Chain creation draws from each chain's own stream only, so order
     does not matter; build them up front on the calling domain. *)
  let chains =
    Array.of_list
      (List.mapi
         (fun i seed ->
           let tel = Telemetry.Sink.child telemetry ~tid:(i + 1) in
           let rng = Prelude.Rng.create seed in
           (* bind before [start]: the problem draws its initial state
              from the stream first, then [start] estimates t0 — the
              same order as the sequential placers *)
           let problem = problem_of tel rng in
           (tel, Sa.start ~telemetry:tel ~rng params problem))
         seeds)
  in
  let entrants = Array.map (fun (tel, c) -> sa_entrant ?engine tel c) chains in
  let winner = lockstep ?workers ~exchange_every ~check ~telemetry entrants in
  let outcomes = Array.map (fun (_, c) -> Sa.outcome_of_chain c) chains in
  {
    best = outcomes.(winner).Sa.best;
    best_cost = outcomes.(winner).Sa.best_cost;
    winner;
    chains = outcomes;
    evaluated = Array.fold_left (fun acc o -> acc + o.Sa.evaluated) 0 outcomes;
  }

type 'a multi_start = {
  state : 'a;
  cost : float;
  rounds : int;
  evaluated : int;
  workers : int;
  chains : int;
}

(* The multi-start policy every placer shares: no geometry at all is
   the classic single chain on the caller's stream; otherwise [chains]
   (default [workers], default the hardware) chains whose seeds are
   drawn from that stream, so a fixed caller seed gives the same result
   at any worker count. *)
let multi_start ?workers ?chains ?check ?telemetry ~engine ~rng params
    problem_of =
  match (chains, workers) with
  | None, None ->
      let tel = Option.value telemetry ~default:Telemetry.Sink.null in
      let o = Sa.run ~telemetry:tel ~rng params (problem_of tel rng) in
      {
        state = o.Sa.best;
        cost = o.Sa.best_cost;
        rounds = o.Sa.rounds;
        evaluated = o.Sa.evaluated;
        workers = 1;
        chains = 1;
      }
  | Some k, _ | None, Some k ->
      let k = max 1 k in
      let seeds = List.init k (fun _ -> Prelude.Rng.int rng 0x3FFFFFFF) in
      let r =
        run ?workers ?check ?telemetry ~engine ~seeds params problem_of
      in
      {
        state = r.best;
        cost = r.best_cost;
        rounds = r.chains.(r.winner).Sa.rounds;
        evaluated = r.evaluated;
        workers = width ?workers k;
        chains = k;
      }
