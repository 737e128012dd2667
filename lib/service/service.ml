(* The placement service engine.

   Long-lived state: one memoizing multi-placement cache, one shared
   Anneal.Pool (domains spawned once, reused by every request — the
   miss path races Placer.Portfolio on it, the hit path runs
   instantiation jobs on it), and a pool of Placer.Eval arenas keyed
   by circuit digest so building a cache entry draws a preallocated
   arena instead of building one.

   A batch runs in two phases per wave of [in_flight] requests:

   - misses first, sequentially on the caller (the anneal itself
     parallelizes across the pool; running a race from inside a pool
     job would drain the pool from a worker). Each unique fingerprint
     anneals once — identical in-flight requests share the entry.
   - then every request becomes one instantiation job on the pool:
     select the best-fit family member, re-pack it, re-check it with
     Analysis.Verify. A failed re-check evicts
     the entry and marks the request; evicted requests re-anneal on
     the caller after the drain and are served from the rebuilt entry.

   Every response — miss or hit — is materialized from the cache entry
   by the same deterministic selection, so identical requests return
   byte-identical result objects regardless of which path served them.
   The race runs on Anneal.Parallel's lockstep schedule, so a miss is a
   pure function of its request: every response but its latency is
   byte-identical at any pool width, a re-miss after eviction
   reproduces the first miss, and a traced session answers exactly as
   an untraced one.

   Telemetry: each request records into a private Sink.child (tid =
   running request ordinal); service.* counters and latency histograms
   live in the children and merge into the root sink by name when the
   wave completes, so no worker ever touches the root sink and
   per-request streams never interleave. *)

(* [service.ml] is the library's main module, so re-export the
   submodules the generated alias module would otherwise expose. *)
module Fingerprint = Fingerprint
module Multi = Multi
module Cache = Cache
module Request = Request

module G = Constraints.Symmetry_group

type t = {
  cache : Cache.t;
  pool : Anneal.Pool.t;
  arenas : (string, Placer.Eval.t list ref) Hashtbl.t;
  arenas_mutex : Mutex.t;
  telemetry : Telemetry.Sink.t;
  validate : bool;
  mutable next_tid : int;
  mutable shut : bool;
}

let create ?(workers = Anneal.Parallel.default_workers ())
    ?(cache_capacity = 256) ?validate
    ?(telemetry = Telemetry.Sink.create ()) () =
  let validate =
    match validate with
    | Some v -> v
    | None -> Analysis.Invariant.enabled_from_env ()
  in
  {
    cache = Cache.create ~capacity:cache_capacity ();
    pool = Anneal.Pool.create ~workers;
    arenas = Hashtbl.create 16;
    arenas_mutex = Mutex.create ();
    telemetry;
    validate;
    next_tid = 0;
    shut = false;
  }

let cache t = t.cache
let pool t = t.pool

let shutdown t =
  if not t.shut then begin
    t.shut <- true;
    Anneal.Pool.drain t.pool;
    Anneal.Pool.shutdown t.pool
  end

let with_service ?workers ?cache_capacity ?validate ?telemetry f =
  let t = create ?workers ?cache_capacity ?validate ?telemetry () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

(* ---- arena pool ----------------------------------------------------

   Pooled arenas are shared across requests, so they carry no request
   sink (a sink bound at creation would bleed one request's counters
   into another's); request-level telemetry is recorded by the service
   itself. *)

let arena_checkout t circuit =
  let key = Netlist.Circuit.digest circuit in
  Mutex.lock t.arenas_mutex;
  let free =
    match Hashtbl.find_opt t.arenas key with
    | Some r -> r
    | None ->
        let r = ref [] in
        Hashtbl.replace t.arenas key r;
        r
  in
  let arena =
    match !free with
    | a :: rest ->
        free := rest;
        Some a
    | [] -> None
  in
  Mutex.unlock t.arenas_mutex;
  match arena with Some a -> a | None -> Placer.Eval.create circuit

let arena_checkin t arena =
  let key = Netlist.Circuit.digest (Placer.Eval.circuit arena) in
  Mutex.lock t.arenas_mutex;
  (match Hashtbl.find_opt t.arenas key with
  | Some r -> r := arena :: !r
  | None -> Hashtbl.replace t.arenas key (ref [ arena ]));
  Mutex.unlock t.arenas_mutex

let with_arena t circuit f =
  let arena = arena_checkout t circuit in
  Fun.protect ~finally:(fun () -> arena_checkin t arena) (fun () -> f arena)

(* ---- request plumbing ---------------------------------------------- *)

let params_of_effort ~n = function
  | Fingerprint.Quick ->
      let p = Anneal.Sa.default_params ~n in
      {
        p with
        Anneal.Sa.max_rounds = 120;
        moves_per_round = max 32 (4 * n);
        frozen_rounds = 3;
      }
  | Fingerprint.Standard -> Anneal.Sa.default_params ~n
  | Fingerprint.Thorough ->
      let p = Anneal.Sa.default_params ~n in
      { p with Anneal.Sa.max_rounds = 2 * p.Anneal.Sa.max_rounds }

let chains_of_effort = function
  | Fingerprint.Quick | Fingerprint.Standard -> 1
  | Fingerprint.Thorough -> 2

(* The cost scale a request anneals and instantiates under: the
   outline class contributes its aspect target, so a wide-outline
   request's topology is pulled toward wide packings. Derived, not
   caller-supplied, so the fingerprint and the evaluation always
   agree. *)
let weights_of_outline outline =
  match Fingerprint.class_target_aspect (Fingerprint.classify outline) with
  | None -> Placer.Cost.default
  | Some target ->
      { Placer.Cost.default with Placer.Cost.aspect = 0.1; target_aspect = target }

(* A parsed, resolved, fingerprinted request — the unit the batch
   pipeline schedules. *)
type job = {
  req : Request.t;
  bench : Netlist.Benchmarks.bench;
  groups : G.t list;
  weights : Placer.Cost.weights;
  fp : string;
  tel : Telemetry.Sink.t;  (* private child sink *)
  mutable served : string;
  mutable sa_rounds : int;
  mutable evaluated : int;
  mutable latency_us : int;
  mutable body : (Request.result_body, string) result;
  mutable needs_anneal : bool;  (* set by a worker on verify-eviction *)
}

let finish_job job ~served ~t0 ~t1 body =
  job.served <- served;
  job.latency_us <- int_of_float ((t1 -. t0) *. 1e6);
  job.body <- body

let response_of_job (job : job) =
  {
    Request.request_id = job.req.Request.id;
    served = job.served;
    latency_us = job.latency_us;
    sa_rounds = job.sa_rounds;
    evaluated = job.evaluated;
    body = job.body;
  }

(* ---- the hit path --------------------------------------------------

   Select, re-instantiate, re-verify. Never anneals; runs on pool
   workers. Returns Error with the verify diagnostics when the entry
   must not be served. *)

let instantiate_and_verify job multi =
  let { Netlist.Benchmarks.label; circuit; hierarchy } = job.bench in
  let outline = job.req.Request.outline in
  let cand, fit = Multi.select ?outline multi in
  let placement = Multi.materialize multi cand in
  let placed = placement.Placer.Placement.placed in
  (* verify exactly what the engines enforce: geometry, symmetry
     groups, and the outline when the served candidate claims to fit
     it. Hierarchy proximity/centroid nodes are reported as QoR
     violations below, not verify errors — no engine enforces them. *)
  let verify_outline = if fit then outline else None in
  let diags =
    Analysis.Verify.placement ~groups:job.groups ?outline:verify_outline
      circuit placed
  in
  let errors =
    List.filter
      (fun (d : Analysis.Diagnostic.t) ->
        d.Analysis.Diagnostic.severity = Analysis.Diagnostic.Error)
      diags
  in
  if errors <> [] then
    Error
      (String.concat "; "
         (List.map
            (fun (d : Analysis.Diagnostic.t) ->
              d.Analysis.Diagnostic.code ^ " " ^ d.Analysis.Diagnostic.message)
            errors))
  else begin
    let violations =
      Placer.Qor.violations ~groups:job.groups ~hierarchy placement
      |> List.fold_left
           (fun acc (v : Telemetry.Qor.violation) ->
             acc + v.Telemetry.Qor.count)
           0
    in
    let width = Placer.Placement.width placement in
    let height = Placer.Placement.height placement in
    let area = width * height in
    let dead_space_pct =
      if area = 0 then 0.0
      else
        100.0
        *. float_of_int (area - Netlist.Circuit.total_module_area circuit)
        /. float_of_int area
    in
    Ok
      {
        Request.label;
        digest = Netlist.Circuit.digest circuit;
        fingerprint = job.fp;
        outline;
        outline_fit = (match outline with None -> None | Some _ -> Some fit);
        cost = cand.Multi.cost;
        width;
        height;
        area;
        hpwl = cand.Multi.hpwl;
        dead_space_pct;
        violations;
        placement = Placer.Qor.rects placement;
      }
  end

(* ---- the miss path -------------------------------------------------

   Portfolio race on the shared pool, then build and insert the
   multi-placement entry. Runs on the caller only. *)

let anneal_entry t job =
  let { Netlist.Benchmarks.circuit; hierarchy; _ } = job.bench in
  let n = Netlist.Circuit.size circuit in
  let params = params_of_effort ~n job.req.Request.effort in
  let chains = chains_of_effort job.req.Request.effort in
  let rng = Prelude.Rng.create job.req.Request.seed in
  let t0 = Unix.gettimeofday () in
  let outcome =
    Placer.Portfolio.race ~weights:job.weights ~params ~groups:job.groups
      ~pool:t.pool ~chains ~hierarchy ~validate:t.validate ~telemetry:job.tel
      ~rng circuit
  in
  job.sa_rounds <-
    List.fold_left
      (fun acc (e : Placer.Portfolio.entrant) ->
        acc + e.Placer.Portfolio.sa_rounds)
      0 outcome.Placer.Portfolio.entrants;
  job.evaluated <- outcome.Placer.Portfolio.evaluated;
  let multi =
    with_arena t circuit (fun arena ->
        Multi.build ~weights:job.weights ~arena ~groups:job.groups circuit
          outcome.Placer.Portfolio.placement.Placer.Placement.placed)
  in
  Cache.insert t.cache job.fp multi;
  let t1 = Unix.gettimeofday () in
  Telemetry.Sink.histogram job.tel "service.miss_us"
  |> fun h -> Telemetry.Hist.observe h ((t1 -. t0) *. 1e6);
  multi

(* ---- batch pipeline ------------------------------------------------ *)

let job_of_request t req =
  t.next_tid <- t.next_tid + 1;
  let tel = Telemetry.Sink.child t.telemetry ~tid:t.next_tid in
  Telemetry.Counter.incr (Telemetry.Sink.counter tel "service.requests");
  match Request.resolve_source req.Request.source with
  | Error msg ->
      Error
        {
          Request.request_id = req.Request.id;
          served = "error";
          latency_us = 0;
          sa_rounds = 0;
          evaluated = 0;
          body = Error msg;
        }
  | Ok bench ->
      let groups = G.of_hierarchy bench.Netlist.Benchmarks.hierarchy in
      let outline = req.Request.outline in
      let weights = weights_of_outline outline in
      let fp =
        Fingerprint.make ~groups ~hierarchy:bench.Netlist.Benchmarks.hierarchy
          ?outline ~weights ~seed:req.Request.seed
          ~effort:req.Request.effort bench.Netlist.Benchmarks.circuit
      in
      Ok
        {
          req;
          bench;
          groups;
          weights;
          fp;
          tel;
          served = "error";
          sa_rounds = 0;
          evaluated = 0;
          latency_us = 0;
          body = Error "unprocessed";
          needs_anneal = false;
        }

let bump job name =
  Telemetry.Counter.incr (Telemetry.Sink.counter job.tel name)

let observe job name v =
  Telemetry.Hist.observe (Telemetry.Sink.histogram job.tel name) v

(* Serve one request from a cache entry on a pool worker. [served] is
   the envelope tag to use on success. *)
let hit_job t job ~served multi () =
  let t0 = Unix.gettimeofday () in
  match instantiate_and_verify job multi with
  | Ok body ->
      let t1 = Unix.gettimeofday () in
      bump job "service.instantiations";
      observe job "service.instantiate_us" ((t1 -. t0) *. 1e6);
      (match body.Request.outline_fit with
      | Some false -> bump job "service.unfit"
      | Some true | None -> ());
      job.evaluated <- job.evaluated + 1;
      finish_job job ~served ~t0 ~t1 (Ok body)
  | Error msg ->
      (* the re-check failed: evict and fall through to the miss path
         (re-annealed on the caller after the drain) *)
      if Sys.getenv_opt "ANALOG_SERVICE_DEBUG" <> None then
        Printf.eprintf "service: evicting %s: %s\n%!" job.fp msg;
      ignore (Cache.remove t.cache job.fp);
      bump job "service.verify_evictions";
      job.needs_anneal <- true;
      let t1 = Unix.gettimeofday () in
      finish_job job ~served:"error" ~t0 ~t1
        (Error ("cache entry failed re-verification: " ^ msg))

(* Anneal on the caller and serve from the fresh entry, through the
   same instantiation path as every other response. *)
let miss_serve t job ~served =
  let t0 = Unix.gettimeofday () in
  match anneal_entry t job with
  | exception e ->
      let t1 = Unix.gettimeofday () in
      finish_job job ~served:"error" ~t0 ~t1 (Error (Printexc.to_string e))
  | multi -> (
      match instantiate_and_verify job multi with
      | Ok body ->
          let t1 = Unix.gettimeofday () in
          bump job "service.instantiations";
          job.evaluated <- job.evaluated + 1;
          finish_job job ~served ~t0 ~t1 (Ok body)
      | Error msg ->
          (* a freshly annealed entry failing its own re-check is an
             engine bug, not a stale cache: do not loop *)
          ignore (Cache.remove t.cache job.fp);
          bump job "service.verify_evictions";
          let t1 = Unix.gettimeofday () in
          finish_job job ~served:"error" ~t0 ~t1
            (Error ("fresh placement failed verification: " ^ msg)))

(* The negative-cache key. The fingerprint classifies the outline into
   coarse aspect classes (so near-identical outlines share placement
   entries), but a feasibility proof is relative to the {e exact} box —
   a request 1 unit wider may be perfectly placeable. Salt the key with
   the exact outline so proofs never leak across boxes. *)
let negative_key (job : job) =
  match job.req.Request.outline with
  | None -> job.fp ^ ";neg-outline:none"
  | Some (w, h) -> Printf.sprintf "%s;neg-outline:%dx%d" job.fp w h

(* Instant reject on a cached (or freshly proven) infeasibility. Only
   [Error]-severity findings count: they are sound proofs for any
   engine, while warnings are merely evidence and must not block the
   anneal. Returns true when the job was served. *)
let reject_if_infeasible t job =
  let t0 = Unix.gettimeofday () in
  let key = negative_key job in
  match Cache.find_negative t.cache key with
  | Some proof ->
      bump job "service.neg_hits";
      let t1 = Unix.gettimeofday () in
      finish_job job ~served:"infeasible" ~t0 ~t1
        (Error ("infeasible: " ^ proof));
      true
  | None -> (
      let { Netlist.Benchmarks.circuit; hierarchy; _ } = job.bench in
      let diags =
        Analysis.Feasibility.check ~groups:job.groups ~hierarchy
          ?outline:job.req.Request.outline circuit
      in
      let errors =
        List.filter
          (fun (d : Analysis.Diagnostic.t) ->
            d.Analysis.Diagnostic.severity = Analysis.Diagnostic.Error)
          diags
      in
      match errors with
      | [] -> false
      | _ ->
          let proof =
            String.concat "; "
              (List.map
                 (fun (d : Analysis.Diagnostic.t) ->
                   d.Analysis.Diagnostic.code ^ " "
                   ^ d.Analysis.Diagnostic.message)
                 errors)
          in
          Cache.insert_negative t.cache key proof;
          bump job "service.infeasible";
          let t1 = Unix.gettimeofday () in
          finish_job job ~served:"infeasible" ~t0 ~t1
            (Error ("infeasible: " ^ proof));
          true)

let process_wave t jobs =
  (* misses first, one anneal per unique fingerprint, on the caller —
     but a key proven unplaceable rejects instantly instead *)
  List.iter
    (fun job ->
      if not (Cache.mem t.cache job.fp) then begin
        if not (reject_if_infeasible t job) then begin
          bump job "service.misses";
          miss_serve t job ~served:"miss"
        end
      end)
    jobs;
  (* everything still unserved is a hit: instantiate concurrently *)
  let pending =
    List.filter (fun job -> job.body = Error "unprocessed") jobs
  in
  List.iter
    (fun job ->
      match Cache.find t.cache job.fp with
      | Some multi ->
          bump job "service.hits";
          let t0 = Unix.gettimeofday () in
          Anneal.Pool.submit t.pool (fun () ->
              hit_job t job ~served:"hit" multi ();
              observe job "service.hit_us"
                ((Unix.gettimeofday () -. t0) *. 1e6))
      | None ->
          (* evicted between the miss phase and here (capacity or a
             concurrent verify-eviction): anneal below *)
          job.needs_anneal <- true)
    pending;
  Anneal.Pool.drain t.pool;
  (* verify-evicted (or raced-out) requests re-anneal sequentially *)
  List.iter
    (fun job ->
      if job.needs_anneal then begin
        job.needs_anneal <- false;
        bump job "service.misses";
        miss_serve t job ~served:"evict-miss"
      end)
    pending;
  (* single-threaded again: merge the request sinks into the root *)
  List.iter (fun job -> Telemetry.Sink.absorb t.telemetry job.tel) jobs

let run_batch ?in_flight t requests =
  if t.shut then invalid_arg "Service.run_batch: service is shut down";
  let parsed = List.map (job_of_request t) requests in
  let jobs = List.filter_map Result.to_option parsed in
  let wave =
    match in_flight with
    | None -> max 1 (List.length jobs)
    | Some k -> max 1 k
  in
  let rec waves = function
    | [] -> ()
    | js ->
        let rec split i acc rest =
          match rest with
          | x :: tl when i < wave -> split (i + 1) (x :: acc) tl
          | _ -> (List.rev acc, rest)
        in
        let now, later = split 0 [] js in
        process_wave t now;
        waves later
  in
  waves jobs;
  List.map
    (function Error resp -> resp | Ok job -> response_of_job job)
    parsed

let submit t request =
  match run_batch t [ request ] with
  | [ resp ] -> resp
  | _ -> assert false

let metrics t = Telemetry.Prom.render t.telemetry

let counter_value t name =
  match List.assoc_opt name (Telemetry.Sink.counters t.telemetry) with
  | Some v -> v
  | None -> 0
