type 'a problem = {
  state : 'a;
  propose : Prelude.Rng.t -> 'a -> unit;
  undo : 'a -> unit;
  cost : 'a -> float;
  copy : 'a -> 'a;
  blit : src:'a -> dst:'a -> unit;
}

(* A persistent neighbor never mutates its argument, so a rejected
   move is undone by putting the pre-propose value back. *)
let persistent ~init ~neighbor ~cost =
  let saved = ref init in
  {
    state = ref init;
    propose =
      (fun rng r ->
        saved := !r;
        r := neighbor rng !r);
    undo = (fun r -> r := !saved);
    cost = (fun r -> cost !r);
    copy = (fun r -> ref !r);
    blit = (fun ~src ~dst -> dst := !src);
  }

type params = {
  initial_temperature : float option;
  final_temperature : float;
  moves_per_round : int;
  schedule : Schedule.t;
  frozen_rounds : int;
  max_rounds : int;
}

let default_params ~n =
  {
    initial_temperature = None;
    final_temperature = 1e-3;
    moves_per_round = max 64 (8 * n);
    schedule = Schedule.default;
    frozen_rounds = 5;
    max_rounds = 500;
  }

type 'a outcome = {
  best : 'a;
  best_cost : float;
  rounds : int;
  accepted : int;
  evaluated : int;
}

let estimate_t0 ~rng p ~samples =
  (* walk accepting everything and take the spread of the cost deltas,
     then restore the working state *)
  let snapshot = p.copy p.state in
  let cost = ref (p.cost p.state) in
  let deltas = ref [] in
  for _ = 1 to samples do
    p.propose rng p.state;
    let c = p.cost p.state in
    deltas := Float.abs (c -. !cost) :: !deltas;
    cost := c
  done;
  p.blit ~src:snapshot ~dst:p.state;
  let sd = Prelude.Stats.stddev !deltas in
  Float.max 1e-6 (if sd > 0.0 then sd else Prelude.Stats.mean !deltas)

(* A chain is the walk's full mutable state, so callers can advance it
   one temperature round at a time. [run] below is the classic closed
   loop; {!Parallel} interleaves several chains and exchanges bests at
   round boundaries. The stepwise decomposition is exact: run = start;
   step until finished. *)
type 'a chain = {
  params : params;
  p : 'a problem;
  rng : Prelude.Rng.t;
  tel : Telemetry.Sink.t;
  acc_hist : Telemetry.Hist.t; (* resolved once; dead handle when off *)
  mutable temperature : float;
  mutable current_cost : float;
  best_state : 'a; (* private snapshot buffer, only ever blitted into *)
  mutable best_cost : float;
  mutable round : int;
  mutable frozen : int;
  mutable accepted_total : int;
  mutable evaluated : int;
}

let start ?(telemetry = Telemetry.Sink.null) ~rng params p =
  let t0 =
    match params.initial_temperature with
    | Some t -> t
    | None -> 20.0 *. estimate_t0 ~rng p ~samples:64
  in
  let cost = p.cost p.state in
  {
    params;
    p;
    rng;
    tel = telemetry;
    acc_hist = Telemetry.Sink.histogram telemetry "sa.acceptance";
    temperature = t0;
    current_cost = cost;
    best_state = p.copy p.state;
    best_cost = cost;
    round = 0;
    frozen = 0;
    accepted_total = 0;
    evaluated = 0;
  }

let finished c =
  c.round >= c.params.max_rounds
  || c.temperature <= c.params.final_temperature
  || c.frozen >= c.params.frozen_rounds

let step_round c =
  if not (finished c) then begin
    (* Telemetry consumes no rng draws, so instrumented and bare runs
       walk identical move trajectories (tested). When the sink is the
       null sink every call below is one predictable branch. *)
    let t0 = Telemetry.Sink.span_begin c.tel in
    let mv = Telemetry.Sink.moves c.tel in
    let p = c.p in
    let accepted = ref 0 and improved = ref false in
    for _ = 1 to c.params.moves_per_round do
      p.propose c.rng p.state;
      let cost = p.cost p.state in
      c.evaluated <- c.evaluated + 1;
      let delta = cost -. c.current_cost in
      let accept =
        delta <= 0.0
        || Prelude.Rng.float c.rng 1.0 < exp (-.delta /. c.temperature)
      in
      if accept then begin
        Telemetry.Moves.accept mv;
        c.current_cost <- cost;
        incr accepted;
        c.accepted_total <- c.accepted_total + 1;
        if cost < c.best_cost then begin
          p.blit ~src:p.state ~dst:c.best_state;
          c.best_cost <- cost;
          improved := true
        end
      end
      else begin
        Telemetry.Moves.reject mv;
        p.undo p.state
      end
    done;
    let acceptance =
      float_of_int !accepted /. float_of_int c.params.moves_per_round
    in
    Telemetry.Hist.observe c.acc_hist acceptance;
    Telemetry.Sink.sample c.tel ~round:c.round ~temperature:c.temperature
      ~acceptance ~best_cost:c.best_cost;
    c.temperature <-
      Schedule.next c.params.schedule ~temperature:c.temperature ~acceptance;
    (* frozen = the walk has effectively stopped moving AND stopped
       improving; high-temperature rounds without a new global best
       are normal and must not terminate the run *)
    c.frozen <- (if acceptance < 0.02 && not !improved then c.frozen + 1 else 0);
    c.round <- c.round + 1;
    Telemetry.Sink.span_end c.tel "sa.round" t0
  end

let best c = c.best_state
let best_cost c = c.best_cost

let adopt c ~state ~cost =
  (* strict improvement only, so offering a chain its own best buffer
     never blits a buffer onto itself *)
  if cost < c.best_cost then begin
    c.p.blit ~src:state ~dst:c.best_state;
    c.p.blit ~src:state ~dst:c.p.state;
    c.best_cost <- cost;
    c.current_cost <- cost
  end

let outcome_of_chain c =
  {
    best = c.p.copy c.best_state;
    best_cost = c.best_cost;
    rounds = c.round;
    accepted = c.accepted_total;
    evaluated = c.evaluated;
  }

let run ?telemetry ~rng params p =
  let c = start ?telemetry ~rng params p in
  while not (finished c) do
    step_round c
  done;
  outcome_of_chain c
