(* One job of each workload, called stage by stage through the
   library's public entry points, plus the checks every job's outputs
   must pass. A job's wall time covers its stages only; checks run
   outside it. *)

let sprintf = Printf.sprintf

type outcome = {
  wall : float;  (** seconds, the job's stages only *)
  failures : string list;
  hpwl : float;
  routed_wl : int;
  served : string;  (** service tag; "" on the flow workloads *)
  reported_us : int;  (** the service's own latency; 0 on flows *)
  identity : string;  (** what every replay of this job must reproduce *)
}

(* What a job records. Traced, [sink] is the job's child of the run's
   root sink (its tid the deck element) and takes the benchmark's stage
   spans; layer quantities read from the library are summed into
   [sums]. Untraced, [sink] is [Telemetry.Sink.null] and nothing is
   recorded. *)
type probe = { sink : Telemetry.Sink.t; sums : (string, float) Hashtbl.t }

let traced p = Telemetry.Sink.live p.sink

let add p key v =
  if traced p then
    Hashtbl.replace p.sums key
      (v +. Option.value ~default:0.0 (Hashtbl.find_opt p.sums key))

(* Fold a library sink into the sums: span seconds as ["span." ^ name],
   counters as ["counter." ^ name], and the spans its ring evicted. *)
let absorb_library p lib =
  List.iter
    (fun (s : Telemetry.Tracer.span) ->
      add p ("span." ^ s.Telemetry.Tracer.name) s.Telemetry.Tracer.dur)
    (Telemetry.Sink.spans lib);
  add p "span.dropped" (float_of_int (Telemetry.Sink.dropped_spans lib));
  List.iter
    (fun (name, v) -> add p ("counter." ^ name) (float_of_int v))
    (Telemetry.Sink.counters lib)

let now = Unix.gettimeofday

(* A workload ready to run: [start]/[stop] bracket a session (the
   service workload's [Service.t]; nothing on the flows), [job] runs
   deck element [i]. *)
type instance = {
  deck_len : int;
  start : probe -> unit;
  job : probe -> int -> outcome;
  stop : probe -> unit;
  finish : unit -> string list;  (** end-of-run checks *)
}

(* The sink the library's calls in one job record into: big enough that
   no span of the job is evicted (four eval spans per cost evaluation, a
   round span per round, room for the router's spans). It is separate
   from the job's stage sink, so the written trace holds the benchmark's
   spans only. *)
let library_sink p (params : Anneal.Sa.params) =
  if not (traced p) then Telemetry.Sink.null
  else
    Telemetry.Sink.create
      ~trace_capacity:
        ((4 * ((params.Anneal.Sa.max_rounds * params.Anneal.Sa.moves_per_round) + 65))
        + params.Anneal.Sa.max_rounds + 1024)
      ()

(* The first [rounds] rounds of the library's default anneal for a
   circuit of [n] modules: its moves per round and cooling schedule,
   with freezing and the temperature floor off, so every job of a given
   size evaluates exactly [rounds * moves_per_round] moves whatever the
   seed. A full default anneal runs until frozen (thousands of moves, a
   few seconds per circuit here); the round counts are an assumption,
   set so that a 40-s run completes at least two passes of a deck. *)
let truncated_params ~n ~rounds =
  {
    (Anneal.Sa.default_params ~n) with
    Anneal.Sa.max_rounds = rounds;
    frozen_rounds = max_int;
    final_temperature = 0.0;
  }

let codes ds = List.map (fun (d : Analysis.Diagnostic.t) -> d.Analysis.Diagnostic.code) ds

(* ---- the shared tail of both flows: route, verify, ledger ----------- *)

type placed = {
  placement : Placer.Placement.t;
  cost : float;
  sa_rounds : int;
  evaluated : int;
}

let flow_tail (pr : probe) ~sink ~ledger ~label ~engine ~seed ~schedule
    ~pitch ~groups ~verify_groups ~hierarchy ~t0 circuit (p : placed) =
  let r =
    Telemetry.Sink.time pr.sink "route" (fun () ->
        Route.Router.route_all ~pitch ~power:false ~symmetric:groups ~telemetry:sink
          p.placement)
  in
  let diags =
    Telemetry.Sink.time pr.sink "verify" (fun () ->
        Analysis.Verify.placement ~groups:verify_groups ~hierarchy circuit
          p.placement.Placer.Placement.placed)
  in
  let entry =
    Telemetry.Sink.time pr.sink "ledger" (fun () ->
        let move_rates =
          Telemetry.Qor.move_rates_of_counters (Telemetry.Sink.counters sink)
        in
        let qor =
          Placer.Qor.extract ~groups ~hierarchy ~move_rates
            ~routed_wl:r.Route.Router.wirelength
            ~route_overflow:r.Route.Router.overflow
            ~route_failed:(List.length r.Route.Router.failed)
            ~route_iterations:r.Route.Router.iterations ~cost:p.cost
            ~wall_s:(now () -. t0) ~sa_rounds:p.sa_rounds
            ~evaluated:p.evaluated p.placement
        in
        let entry =
          Telemetry.Ledger.make ~git_rev:"perfbench"
            ~placement:(Placer.Qor.rects p.placement)
            ~label ~netlist_hash:(Netlist.Circuit.digest circuit) ~engine ~seed
            ~schedule ~workers:1 ~chains:1 ~qor ()
        in
        let a0 = now () in
        (match Telemetry.Ledger.append ledger entry with
        | Ok () -> ()
        | Error msg -> failwith ("ledger append: " ^ msg));
        add pr "ledger.append" (now () -. a0);
        entry)
  in
  let wall = now () -. t0 in
  (* checks, outside the job's time *)
  let verify_errors =
    List.filter
      (fun c -> List.mem c [ "AL210"; "AL211"; "AL212"; "AL213"; "AL214" ])
      (codes (Analysis.Diagnostic.errors diags))
  in
  let unmet = List.filter (fun c -> List.mem c [ "AL215"; "AL216" ]) (codes diags) in
  let line = Telemetry.Ledger.to_line entry in
  let failures =
    List.concat
      [
        (match Placer.Placement.validate p.placement with
        | Ok () -> []
        | Error m -> [ "invalid placement: " ^ m ]);
        List.map (fun c -> "verify " ^ c) verify_errors;
        (if r.Route.Router.failed <> [] then
           [ sprintf "%d nets failed to route" (List.length r.Route.Router.failed) ]
         else []);
        (if r.Route.Router.overflow > 0 then
           [ sprintf "route overflow %d" r.Route.Router.overflow ]
         else []);
        (match Telemetry.Ledger.of_line line with
        | Ok e when String.equal (Telemetry.Ledger.to_line e) line -> []
        | Ok _ -> [ "ledger line does not round-trip" ]
        | Error m -> [ "ledger line does not re-read: " ^ m ]);
      ]
  in
  if traced pr then begin
    absorb_library pr sink;
    add pr "anneal.moves" (float_of_int p.evaluated);
    add pr "anneal.rounds" (float_of_int p.sa_rounds);
    List.iter
      (fun (it : Route.Router.iteration) ->
        add pr "route.heap_pops" (float_of_int it.Route.Router.it_pops);
        add pr "route.ripped" (float_of_int it.Route.Router.it_ripped))
      r.Route.Router.negotiation;
    add pr "route.iterations" (float_of_int r.Route.Router.iterations);
    add pr "route.overflow" (float_of_int r.Route.Router.overflow);
    add pr "route.failed_nets"
      (float_of_int (List.length r.Route.Router.failed));
    add pr "analysis.verify_errors"
      (float_of_int (List.length verify_errors));
    add pr "analysis.unmet_obligations" (float_of_int (List.length unmet));
    add pr "ledger.bytes" (float_of_int (String.length line + 1))
  end;
  let hpwl = Placer.Placement.hpwl p.placement in
  {
    wall;
    failures;
    hpwl;
    routed_wl = r.Route.Router.wirelength;
    served = "";
    reported_us = 0;
    identity =
      sprintf "%h/%d/%d/%d" hpwl r.Route.Router.wirelength
        (Placer.Placement.area p.placement)
        r.Route.Router.iterations;
  }

(* The ledger is a scratch file: created empty at set-up, appended by
   every job, re-read whole at the end of the run. *)
let ledger_finish ledger ~jobs () =
  match Telemetry.Ledger.read ledger with
  | Error m -> [ "ledger does not re-read: " ^ m ]
  | Ok es when List.length es <> !jobs ->
      [ sprintf "ledger holds %d entries for %d jobs" (List.length es) !jobs ]
  | Ok _ -> []

let fresh_ledger path =
  Out_channel.with_open_bin path (fun _ -> ());
  path

let no_session (_ : probe) = ()

(* ---- flow-sym ------------------------------------------------------- *)

(* Generous square box for the feasibility prover: every proof AL201
   to AL205 is relative to it, and none may fire on these inputs. *)
let sym_outline circuit =
  let side =
    Array.fold_left
      (fun acc (m : Netlist.Circuit.module_) ->
        max acc (max m.Netlist.Circuit.w m.Netlist.Circuit.h))
      0 circuit.Netlist.Circuit.modules
  in
  let area = float_of_int (Netlist.Circuit.total_module_area circuit) in
  let s = max (Gen.isqrt_ceil (4.0 *. area)) ((2 * side) + 1) in
  (s, s)

let sym_rounds = function Gen.Full -> 2 | Gen.Tiny -> 1

(* Device-level cells sit on a 10 nm grid: route them at a 0.4 um track
   pitch rather than the synthetic circuits' default. *)
let sym_pitch = 40

let flow_sym ~size ~seed ~ledger =
  let deck = Gen.sym_deck ~size ~seed in
  let ledger = fresh_ledger ledger in
  let jobs = ref 0 in
  let job pr i =
    incr jobs;
    let { Gen.input = text; anneal_seed } = deck.(i) in
    let t0 = now () in
    let circuit =
      Telemetry.Sink.time pr.sink "parse" (fun () ->
          match Netlist.Parser.parse_string text with
          | Ok devices ->
              Netlist.Parser.to_circuit ~name:(sprintf "sym%d" i) devices
          | Error e ->
              failwith (Format.asprintf "parse: %a" Netlist.Parser.pp_error e))
    in
    let recognized, groups =
      Telemetry.Sink.time pr.sink "recognize" (fun () ->
          let r = Netlist.Recognize.recognize circuit in
          ( r,
            Constraints.Symmetry_group.of_hierarchy
              r.Netlist.Recognize.hierarchy ))
    in
    let hierarchy = recognized.Netlist.Recognize.hierarchy in
    let lint =
      Telemetry.Sink.time pr.sink "lint" (fun () -> Analysis.Lint.all circuit hierarchy)
    in
    let feas =
      Telemetry.Sink.time pr.sink "feasibility" (fun () ->
          Analysis.Feasibility.check ~groups ~hierarchy
            ~outline:(sym_outline circuit) circuit)
    in
    let params =
      truncated_params ~n:(Netlist.Circuit.size circuit) ~rounds:(sym_rounds size)
    in
    let sink = library_sink pr params in
    let placed =
      Telemetry.Sink.time pr.sink "place" (fun () ->
          let o =
            Placer.Sa_seqpair.place ~params ~groups ~telemetry:sink
              ~rng:(Prelude.Rng.create anneal_seed)
              circuit
          in
          {
            placement = o.Placer.Sa_seqpair.placement;
            cost = o.Placer.Sa_seqpair.cost;
            sa_rounds = o.Placer.Sa_seqpair.sa_rounds;
            evaluated = o.Placer.Sa_seqpair.evaluated;
          })
    in
    let o =
      flow_tail pr ~sink ~ledger ~label:circuit.Netlist.Circuit.name ~engine:"sp"
        ~seed:anneal_seed ~pitch:sym_pitch
        ~schedule:(Anneal.Schedule.to_string params.Anneal.Sa.schedule)
        ~groups ~verify_groups:groups ~hierarchy ~t0 circuit placed
    in
    add pr "netlist.structures"
      (float_of_int (List.length recognized.Netlist.Recognize.structures));
    let input_errors =
      List.map (fun c -> "lint " ^ c) (codes (Analysis.Diagnostic.errors lint))
      @ List.map
          (fun c -> "feasibility " ^ c)
          (codes (Analysis.Diagnostic.errors feas))
    in
    { o with failures = input_errors @ o.failures }
  in
  {
    deck_len = Array.length deck;
    start = no_session;
    job;
    stop = no_session;
    finish = ledger_finish ledger ~jobs;
  }

(* ---- flow-route ----------------------------------------------------- *)

(* Weight of the congestion estimate in the anneal cost: the E20
   comparison's, which makes it a real share of the cost. *)
let route_weight = 60.0

let route_rounds = function Gen.Full -> 6 | Gen.Tiny -> 1

let flow_route ~size ~seed ~ledger =
  let deck = Gen.route_deck ~size ~seed in
  let ledger = fresh_ledger ledger in
  let jobs = ref 0 in
  let weights = { Placer.Cost.default with Placer.Cost.routability = route_weight } in
  let job pr i =
    incr jobs;
    let { Gen.input = { Netlist.Benchmarks.circuit; hierarchy; label }; anneal_seed } =
      deck.(i)
    in
    let t0 = now () in
    let groups = Constraints.Symmetry_group.of_hierarchy hierarchy in
    let params =
      truncated_params ~n:(Netlist.Circuit.size circuit) ~rounds:(route_rounds size)
    in
    let sink = library_sink pr params in
    let placed =
      Telemetry.Sink.time pr.sink "place" (fun () ->
          let o =
            Placer.Sa_bstar.place ~weights ~params
              ~estimator:(Route.Estimate.estimator circuit) ~telemetry:sink
              ~rng:(Prelude.Rng.create anneal_seed)
              circuit
          in
          {
            placement = o.Placer.Sa_bstar.placement;
            cost = o.Placer.Sa_bstar.cost;
            sa_rounds = o.Placer.Sa_bstar.sa_rounds;
            evaluated = o.Placer.Sa_bstar.evaluated;
          })
    in
    (* B* claims no symmetry: verify geometry only *)
    flow_tail pr ~sink ~ledger ~label ~engine:"bstar" ~seed:anneal_seed
      ~pitch:Route.Router.default_pitch
      ~schedule:(Anneal.Schedule.to_string params.Anneal.Sa.schedule)
      ~groups ~verify_groups:[] ~hierarchy ~t0 circuit placed
  in
  {
    deck_len = Array.length deck;
    start = no_session;
    job;
    stop = no_session;
    finish = ledger_finish ledger ~jobs;
  }

(* ---- service-mix ---------------------------------------------------- *)

(* One pool domain: [Placer.Portfolio.race] is a pure function of the
   request seed only at one worker, and the workload's checks (replays,
   traced against untraced, a re-miss after eviction against the first
   miss) need every response to be reproducible. *)
let service_workers = 1

(* Half the cache entries the stream touches: a run's working set is
   then larger than the cache, so LRU evicts, while the popular designs
   stay resident. The half is an assumption. *)
let cache_capacity stream = max 1 (Gen.distinct_entries stream / 2)

let service_counters =
  [ "service.hits"; "service.misses"; "service.neg_hits";
    "service.verify_evictions"; "service.infeasible" ]

let service_mix ~size ~seed =
  let stream = Gen.service_stream ~size ~seed in
  let svc = ref None and lib = ref Telemetry.Sink.null in
  let seen = ref 0 in
  (* the first response to each distinct request: every later one
     (hit, miss after eviction, replay) must be byte-identical *)
  let results = Hashtbl.create 64 in
  let service () =
    match !svc with Some s -> s | None -> invalid_arg "no open service session"
  in
  (* Fold the spans the service's sink recorded since the last read,
     and count the ones its ring evicted before they were read. *)
  let read_spans pr =
    if traced pr then begin
      let spans = Telemetry.Sink.spans !lib in
      let kept = List.length spans in
      let total = kept + Telemetry.Sink.dropped_spans !lib in
      let fresh = total - !seen in
      if fresh > kept then add pr "span.dropped" (float_of_int (fresh - kept));
      List.iteri
        (fun j (sp : Telemetry.Tracer.span) ->
          if j >= kept - min fresh kept then
            add pr ("span." ^ sp.Telemetry.Tracer.name) sp.Telemetry.Tracer.dur)
        spans;
      seen := total
    end
  in
  let capacity = cache_capacity stream in
  let start pr =
    lib :=
      if traced pr then Telemetry.Sink.create ~trace_capacity:(1 lsl 17) ()
      else Telemetry.Sink.null;
    seen := 0;
    svc :=
      Some
        (Service.create ~workers:service_workers ~cache_capacity:capacity
           ~validate:false ~telemetry:!lib ())
  in
  let stop pr =
    let s = service () in
    if traced pr then begin
      read_spans pr;
      List.iter
        (fun name -> add pr name (float_of_int (Service.counter_value s name)))
        service_counters;
      add pr "service.evictions"
        (float_of_int (Service.Cache.evictions (Service.cache s)))
    end;
    Service.shutdown s;
    svc := None
  in
  let job pr i =
    let { Gen.req; feasible } = stream.(i) in
    let t0 = now () in
    let resp =
      Telemetry.Sink.time pr.sink "submit" (fun () -> Service.submit (service ()) req)
    in
    let wall = now () -. t0 in
    let served = resp.Service.Request.served in
    let miss = served = "miss" || served = "evict-miss" in
    if traced pr && miss then begin
      read_spans pr;
      add pr "service.miss_moves" (float_of_int resp.Service.Request.evaluated)
    end;
    let bytes, hpwl, fit =
      match resp.Service.Request.body with
      | Ok body ->
          ( Telemetry.Json.emit (Service.Request.result_json body),
            body.Service.Request.hpwl,
            body.Service.Request.outline_fit )
      | Error msg -> (msg, 0.0, None)
    in
    (* a too-small box is rejected by the prover, or, when its outline
       class is cached, served from the entry as not fitting *)
    let key = Gen.request_key req ^ if served = "infeasible" then "/reject" else "" in
    let failures =
      List.concat
        [
          (match (served, feasible, fit) with
          | ("hit" | "miss" | "evict-miss"), true, _
          | "infeasible", false, _
          | "hit", false, Some false ->
              []
          | tag, true, _ -> [ sprintf "feasible request served as %s: %s" tag bytes ]
          | tag, false, _ -> [ sprintf "too-small outline served as %s" tag ]);
          (match Hashtbl.find_opt results key with
          | None ->
              Hashtbl.replace results key bytes;
              []
          | Some first when String.equal first bytes -> []
          | Some _ -> [ sprintf "%s result differs from the first response" served ]);
        ]
    in
    {
      wall;
      failures;
      hpwl;
      routed_wl = 0;
      served;
      reported_us = resp.Service.Request.latency_us;
      identity = served ^ "/" ^ bytes;
    }
  in
  {
    deck_len = Array.length stream;
    start;
    job;
    stop;
    finish = (fun () -> []);
  }
