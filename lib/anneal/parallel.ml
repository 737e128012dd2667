(* Multi-start annealing over a persistent domain pool.

   One chain per seed, each with a private splitmix64 stream and
   private problem instance (so mutable evaluation arenas are never
   shared). Two modes share the chain setup and differ only in how
   bests travel between chains:

   - Deterministic: chains are partitioned over workers round-robin
     and advanced in slices of [exchange_every] rounds; each slice is
     a {!Pool.run} barrier (the happens-before edge a spawn/join pair
     used to give, minus the spawn), and at the boundary the globally
     best state is offered to every chain. The slice counter is the
     logical clock: boundaries, reduction order and every chain's
     stream are fixed by the seed list alone, so the result is
     identical for any worker count.

   - Async (free-running): each chain is one pool job that runs to
     completion at its own pace, publishing its best to a shared
     {!Elite} pool and pulling the global best at its own slice
     boundaries — no round synchronization, no join barrier, so the
     slowest chain never holds the others. The result depends on
     domain interleaving (better solutions simply arrive earlier or
     later); what is guaranteed is that adoption is strictly
     improving, every published state passed [check] on its
     publishing domain, and with exchange disabled every chain
     replays its solo walk exactly.

   Telemetry keeps both stories intact: each chain writes to a private
   child sink (tid = seed index + 1) that only one domain touches at a
   time (exclusively per-slice in deterministic mode, for the whole
   job in async mode), and the children are absorbed into the caller's
   sink after the final drain — so recording is race-free and consumes
   no rng draws. *)

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

(* One Qor.chain record per chain, written into the chain's own child
   sink just before absorb so it rides into the parent like every other
   telemetry stream. Wall time comes from the chain.slice_us counter
   accumulated as slices close — O(1) to read, and immune to the span
   ring overwriting old slices on long runs. *)
let record_chain_qor tel ?engine ~mode ~best_cost ~rounds ~evaluated () =
  if Telemetry.Sink.live tel then begin
    let counters = Telemetry.Sink.counters tel in
    let wall =
      match List.assoc_opt "chain.slice_us" counters with
      | Some us -> float_of_int us /. 1e6
      | None -> 0.0
    in
    let move_rates = Telemetry.Qor.move_rates_of_counters counters in
    Telemetry.Sink.record_qor tel
      (Telemetry.Qor.chain ?engine ~mode ~move_rates ~cost:best_cost
         ~wall_s:wall ~sa_rounds:rounds ~evaluated ())
  end

let best_index chains =
  let bi = ref 0 in
  Array.iteri
    (fun i c -> if Sa.best_cost c < Sa.best_cost chains.(!bi) then bi := i)
    chains;
  !bi

(* Advance chain [i] by up to [slice] rounds, recording the slice span
   and bumping the chain's accumulated slice wall-time counter. *)
let advance_slice ~slice ~tel ~slice_us c =
  let t0 = Telemetry.Sink.span_begin tel in
  let budget = ref slice in
  while !budget > 0 && not (Sa.finished c) do
    Sa.step_round c;
    decr budget
  done;
  let t1 = Telemetry.Sink.lap tel "chain.slice" t0 in
  Telemetry.Counter.add slice_us (int_of_float ((t1 -. t0) *. 1e6))

let finish ?engine ~mode ~check ~telemetry ~tels chains =
  let outcomes = Array.map Sa.outcome_of_chain chains in
  Array.iteri
    (fun i (o : _ Sa.outcome) ->
      record_chain_qor tels.(i) ?engine ~mode ~best_cost:o.Sa.best_cost
        ~rounds:o.Sa.rounds ~evaluated:o.Sa.evaluated ())
    outcomes;
  Array.iter (Telemetry.Sink.absorb telemetry) tels;
  let winner = best_index chains in
  check outcomes.(winner).Sa.best;
  {
    best = outcomes.(winner).Sa.best;
    best_cost = outcomes.(winner).Sa.best_cost;
    winner;
    chains = outcomes;
    evaluated = Array.fold_left (fun acc o -> acc + o.Sa.evaluated) 0 outcomes;
  }

(* Run on a caller-supplied pool (left running for its next request —
   how the placement service amortizes domain spawns across requests)
   or on a private one created and shut down here. *)
let on_pool ?pool ~workers f =
  match pool with Some p -> f p | None -> Pool.with_pool ~workers f

(* Deterministic mode: barrier slices on the persistent pool. The pool
   is created once per run (satellite of ISSUE 6: no more per-slice
   Domain.spawn/join churn); each Pool.run is a full barrier, so the
   exchange reduction happens-after every chain's slice. *)
let deterministic ?pool ~workers ~slice ~check ~telemetry ~tels ~slice_us
    chains =
  let k = Array.length chains in
  let exchanges = Telemetry.Sink.counter telemetry "parallel.exchanges" in
  let unfinished () = Array.exists (fun c -> not (Sa.finished c)) chains in
  on_pool ?pool ~workers @@ fun pool ->
  let workers = Pool.workers pool in
  let jobs =
    Array.init workers (fun d () ->
        for i = 0 to k - 1 do
          if i mod workers = d then
            advance_slice ~slice ~tel:tels.(i) ~slice_us:slice_us.(i)
              chains.(i)
        done)
  in
  while unfinished () do
    let t_slice = Telemetry.Sink.span_begin telemetry in
    Pool.run pool jobs;
    let t_ex = Telemetry.Sink.lap telemetry "parallel.slice" t_slice in
    let b = chains.(best_index chains) in
    let state = Sa.best b and cost = Sa.best_cost b in
    check state;
    Array.iter (fun c -> Sa.adopt c ~state ~cost) chains;
    Telemetry.Counter.incr exchanges;
    Telemetry.Sink.span_end telemetry "parallel.exchange" t_ex
  done

(* Async mode: one job per chain, free-running. Publishes go through
   [check] on the publishing domain (so a corrupted state aborts the
   run before any other chain can adopt it); the epilogue publish
   guarantees every chain's final best reaches the elite pool even
   when it never improved mid-run. *)
let async ?pool ~workers ~slice ~check ~tels ~slice_us chains =
  let k = Array.length chains in
  let elite = Elite.create ~stripes:(min 8 k) () in
  let publishes =
    Array.init k (fun i -> Telemetry.Sink.counter tels.(i) "chain.publishes")
  in
  let pulls =
    Array.init k (fun i -> Telemetry.Sink.counter tels.(i) "chain.pulls")
  in
  (* worker domains must not touch the parent sink: all async-mode
     tallies live in child sinks and merge by name at absorb *)
  let global_improvements =
    Array.init k (fun i ->
        Telemetry.Sink.counter tels.(i) "chain.elite_improvements")
  in
  on_pool ?pool ~workers @@ fun pool ->
  let job i () =
    let c = chains.(i) in
    let last_published = ref infinity in
    let publish () =
      let bc = Sa.best_cost c in
      if bc < !last_published then begin
        last_published := bc;
        let state = Sa.best_copy c in
        check state;
        let improved = Elite.publish elite ~origin:i ~cost:bc state in
        (* the parent counter is bumped only after the drain, by the
           caller — worker domains must not touch the parent sink *)
        if improved then Telemetry.Counter.incr global_improvements.(i);
        Telemetry.Counter.incr publishes.(i)
      end
    in
    while not (Sa.finished c) && not (Pool.failed pool) do
      advance_slice ~slice ~tel:tels.(i) ~slice_us:slice_us.(i) c;
      publish ();
      match Elite.pull elite ~than:(Sa.best_cost c) with
      | Some e ->
          Sa.adopt c ~state:e.Elite.state ~cost:e.Elite.cost;
          Telemetry.Counter.incr pulls.(i)
      | None -> ()
    done;
    publish ()
  in
  for i = 0 to k - 1 do
    Pool.submit pool (job i)
  done;
  Pool.drain pool

(* The pool width [k] chains run on: the requested worker count
   (default {!default_workers}), capped at one domain per chain. *)
let width ?workers k =
  max 1 (min k (match workers with Some w -> w | None -> default_workers ()))

let run ?(mode = `Deterministic) ?pool ?workers ?(exchange_every = 32)
    ?(check = ignore) ?(telemetry = Telemetry.Sink.null) ?engine ~seeds params
    problem_of =
  if seeds = [] then invalid_arg "Parallel: empty seed list";
  let seeds = Array.of_list seeds in
  let k = Array.length seeds in
  let workers = width ?workers k in
  let slice = if exchange_every <= 0 then max_int else exchange_every in
  let tels =
    Array.init k (fun i -> Telemetry.Sink.child telemetry ~tid:(i + 1))
  in
  let slice_us =
    Array.init k (fun i -> Telemetry.Sink.counter tels.(i) "chain.slice_us")
  in
  (* Chain creation draws from each chain's own stream only, so order
     does not matter; build them up front on the calling domain. *)
  let chains =
    Array.init k (fun i ->
        let rng = Prelude.Rng.create seeds.(i) in
        (* bind before [start]: the problem draws its initial state
           from the stream first, then [start] estimates t0 — the same
           order as the sequential placers *)
        let problem = problem_of tels.(i) rng in
        Sa.start ~telemetry:tels.(i) ~rng params problem)
  in
  (match mode with
  | `Deterministic ->
      deterministic ?pool ~workers ~slice ~check ~telemetry ~tels ~slice_us
        chains
  | `Async -> async ?pool ~workers ~slice ~check ~tels ~slice_us chains);
  let mode_label =
    match mode with `Deterministic -> "deterministic" | `Async -> "async"
  in
  finish ?engine ~mode:mode_label ~check ~telemetry ~tels chains

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
let multi_start ?workers ?chains ?mode ?check ?telemetry ~engine ~rng params
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
        run ?mode ?workers ?check ?telemetry ~engine ~seeds params problem_of
      in
      {
        state = r.best;
        cost = r.best_cost;
        rounds = r.chains.(r.winner).Sa.rounds;
        evaluated = r.evaluated;
        workers = width ?workers k;
        chains = k;
      }
