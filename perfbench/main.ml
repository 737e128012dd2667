(* The end-to-end benchmark program.

     main.exe --workload NAME --seed N --seconds S --trace 0|1
     main.exe --smoke BENCHMARK.json

   A run makes passes over the workload's deck until another pass would
   overrun [--seconds]. Before each pass it sets the workload up five
   times (set-up time is the median over the untraced passes); the pass
   then takes deck elements 1, 2, ... on a fresh session, the same
   elements every pass. With [--trace 0] it
   runs at least two passes and prints the end-to-end metrics of each
   element's fastest run; with [--trace 1] it spends half the time
   untraced and half traced (at least one pass each), prints the
   per-layer metrics, and writes the benchmark's stage spans as a Chrome
   trace. Every pass must reproduce the first one's results. The last
   line of standard output is one JSON object; the exit code is
   non-zero when any job failed its checks. *)

let sprintf = Printf.sprintf

type workload = {
  name : string;
  make : size:Gen.size -> seed:int -> out:string -> Flows.instance;
}

let workloads =
  [
    {
      name = "flow-sym";
      make =
        (fun ~size ~seed ~out ->
          Flows.flow_sym ~size ~seed
            ~ledger:(Filename.concat out "flow-sym.ledger.jsonl"));
    };
    {
      name = "flow-route";
      make =
        (fun ~size ~seed ~out ->
          Flows.flow_route ~size ~seed
            ~ledger:(Filename.concat out "flow-route.ledger.jsonl"));
    };
    {
      name = "service-mix";
      make = (fun ~size ~seed ~out:_ -> Flows.service_mix ~size ~seed);
    };
  ]

(* ---- running ---------------------------------------------------------- *)

(* Seconds since the clock's first reading, which is exactly 0.
   [Telemetry.Export.chrome_json] subtracts the sink's epoch from span
   durations as well as from start times; with an epoch of 0 both come
   out right. *)
let zero_epoch_clock () =
  let t0 = ref Float.nan in
  fun () ->
    let t = Unix.gettimeofday () in
    if Float.is_nan !t0 then begin
      t0 := t;
      0.0
    end
    else t -. !t0

(* A phase's probe: the run's root sink (dead when untraced), which
   absorbs each job's stage spans, and the layer sums. *)
let phase_probe ~live =
  {
    Flows.sink =
      (if live then Telemetry.Sink.create ~clock:(zero_epoch_clock ()) ()
       else Telemetry.Sink.null);
    sums = Hashtbl.create 64;
  }

(* A phase: passes over the same deck elements on one probe. *)
type phase = {
  passes : Flows.outcome array list;  (** element [k + 1] at index [k] *)
  pass_walls : float list;  (** seconds per pass *)
  probe : Flows.probe;
}

(* Run deck element [i] with its own child sink: an exception is a
   failed job, and the result must match the element's identity from
   the first time it ran. *)
let run_job (inst : Flows.instance) (pr : Flows.probe) ~expected i =
  let sink = Telemetry.Sink.child pr.Flows.sink ~tid:i in
  let j0 = Flows.now () in
  let o =
    try inst.Flows.job { pr with Flows.sink } i
    with e ->
      {
        Flows.wall = Flows.now () -. j0;
        failures = [ "exception: " ^ Printexc.to_string e ];
        hpwl = 0.0;
        routed_wl = 0;
        served = "error";
        reported_us = 0;
        identity = "exception";
      }
  in
  Telemetry.Sink.absorb pr.Flows.sink sink;
  match Hashtbl.find_opt expected i with
  | None ->
      Hashtbl.replace expected i o.Flows.identity;
      o
  | Some id when String.equal id o.Flows.identity -> o
  | Some _ -> { o with Flows.failures = "replay differs" :: o.Flows.failures }

(* One pass: a fresh session runs deck elements 1 to [deck_len - 1]
   once, in order. Every pass of a run does the same work, so each is a
   replay of the first. *)
let run_pass (inst : Flows.instance) pr ~expected =
  inst.Flows.start pr;
  let t0 = Flows.now () in
  let outcomes =
    Array.init (inst.Flows.deck_len - 1) (fun k -> run_job inst pr ~expected (k + 1))
  in
  let wall = Flows.now () -. t0 in
  inst.Flows.stop pr;
  (outcomes, wall)

(* Passes until [min_passes] ran and another would overrun [budget]
   seconds, going by the last pass's length. [fresh ()] sets the
   workload up for each pass. *)
let run_phase ~fresh pr ~budget ~min_passes ~expected =
  let t0 = Flows.now () in
  let rec go passes walls last =
    if
      List.length passes >= min_passes
      && Flows.now () -. t0 +. last > budget
    then { passes = List.rev passes; pass_walls = List.rev walls; probe = pr }
    else
      let outcomes, wall = run_pass (fresh ()) pr ~expected in
      go (outcomes :: passes) (wall :: walls) wall
  in
  go [] [] 0.0

(* Set-up: generate the inputs, open a session and run deck element 0
   (the same warm-up input for every seed) once. Returns the instance,
   the seconds from start until the first job could run, and the
   warm-up job's outcome; the warm-up session is then closed, untimed. *)
let setup (w : workload) ~size ~seed ~out ~expected =
  let t0 = Flows.now () in
  let inst = w.make ~size ~seed ~out in
  let pr = phase_probe ~live:false in
  inst.Flows.start pr;
  let warm_up = run_job inst pr ~expected 0 in
  let dt = Flows.now () -. t0 in
  inst.Flows.stop pr;
  (inst, dt, warm_up)

(* Set-ups before each pass; the pass runs on the last one. Set-up time
   is the median of every set-up of the run's untraced passes, so it
   samples the host across the run rather than in one burst: here the
   same set-up took 25 ms or 41 ms depending on when it ran, switching
   within a second. Each set-up starts from a compacted heap, so one
   after a pass costs the same as one at process start. *)
let setups_per_pass = 5

let vm_hwm_mb () =
  try
    In_channel.with_open_text "/proc/self/status" (fun ic ->
        let rec go () =
          match In_channel.input_line ic with
          | None -> 0.0
          | Some l when String.starts_with ~prefix:"VmHWM:" l ->
              Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d" (fun kb ->
                  float_of_int kb /. 1024.0)
          | Some _ -> go ()
        in
        go ())
  with Sys_error _ -> 0.0

(* ---- metrics ---------------------------------------------------------- *)

let q xs p = Prelude.Stats.quantile xs p
let ms s = s *. 1e3
let walls os = List.map (fun (o : Flows.outcome) -> o.Flows.wall) os

let lookup name metrics =
  List.fold_left (fun acc (n, v, _) -> if n = name then v else acc) 0.0 metrics

let is_miss (o : Flows.outcome) =
  o.Flows.served = "miss" || o.Flows.served = "evict-miss"

let outcomes (p : phase) = List.concat_map Array.to_list p.passes

(* Each element's fastest run over the phase's passes. The passes do the
   same work, so the fastest is the one the host slowed least. *)
let best (p : phase) =
  List.fold_left
    (Array.map2 (fun (a : Flows.outcome) (b : Flows.outcome) ->
         if b.Flows.wall < a.Flows.wall then b else a))
    (List.hd p.passes) (List.tl p.passes)
  |> Array.to_list

(* The end-to-end metrics, names and units as in BENCHMARK.json. *)
let end_to_end ~setup_s (p : phase) =
  let ws = walls (best p) in
  [
    ("setup_s", setup_s, "s");
    ("job_ms_p50", ms (q ws 0.5), "ms");
    ("job_ms_p90", ms (q ws 0.9), "ms");
    ( "jobs_per_s",
      float_of_int (List.length ws) /. List.fold_left Float.min Float.infinity p.pass_walls,
      "jobs/s" );
    ("max_rss_mb", vm_hwm_mb (), "MB");
  ]

(* Outcome summaries of a phase: quality sums over one pass
   (deterministic per seed), and the service's hit/miss split. *)
let summary ~failed ~attempted (p : phase) =
  let pass = Array.to_list (List.hd p.passes) and best = best p in
  let served tag = List.filter (fun (o : Flows.outcome) -> o.Flows.served = tag) best in
  let hits = served "hit" and misses = List.filter is_miss best in
  let n = List.length pass in
  [
    ("jobs", float_of_int n, "count");
    ("hpwl_sum", List.fold_left (fun a (o : Flows.outcome) -> a +. o.Flows.hpwl) 0.0 pass, "units");
    ( "routed_wl_sum",
      float_of_int (List.fold_left (fun a (o : Flows.outcome) -> a + o.Flows.routed_wl) 0 pass),
      "cells" );
    ("fail_ratio", float_of_int failed /. float_of_int (max 1 attempted), "ratio");
    ("hit_ratio", float_of_int (List.length hits) /. float_of_int (max 1 n), "ratio");
    ("hit_us_p50", 1e6 *. q (walls hits) 0.5, "us");
    ("miss_ms_p50", ms (q (walls misses) 0.5), "ms");
  ]

(* The traced phase's stage spans: seconds per stage name, and their
   total. *)
let stage_totals root =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (s : Telemetry.Tracer.span) ->
      let name = s.Telemetry.Tracer.name in
      Hashtbl.replace tbl name
        (s.Telemetry.Tracer.dur +. Option.value ~default:0.0 (Hashtbl.find_opt tbl name)))
    (Telemetry.Sink.spans root);
  (tbl, Hashtbl.fold (fun _ v acc -> acc +. v) tbl 0.0)

let per_layer ~(u : phase) ~(t : phase) =
  let stages, stage_sum = stage_totals t.probe.Flows.sink in
  let sum key = Option.value ~default:0.0 (Hashtbl.find_opt t.probe.Flows.sums key) in
  let stage name = Option.value ~default:0.0 (Hashtbl.find_opt stages name) in
  let n = float_of_int (max 1 (List.length (outcomes t))) in
  let per_job key = sum key /. n in
  let us_per_job name = 1e6 *. stage name /. n in
  (* annealing jobs: every flow job, the service's misses *)
  let annealed =
    List.filter
      (fun (o : Flows.outcome) -> o.Flows.served = "" || is_miss o)
      (outcomes t)
  in
  let na = float_of_int (max 1 (List.length annealed)) in
  let place_s =
    if Hashtbl.mem stages "place" then stage "place" else sum "span.sa.round"
  in
  let moves_accepted, moves_total =
    Hashtbl.fold
      (fun key v (a, tot) ->
        if String.starts_with ~prefix:"counter.sa.moves." key then
          if String.ends_with ~suffix:".accept" key then (a +. v, tot +. v)
          else (a, tot +. v)
        else (a, tot))
      t.probe.Flows.sums (0.0, 0.0)
  in
  let ratio a b = if b > 0.0 then a /. b else 0.0 in
  let pops = sum "route.heap_pops" in
  let reported tag =
    List.filter_map
      (fun (o : Flows.outcome) ->
        if o.Flows.served = tag then Some (float_of_int o.Flows.reported_us) else None)
      (outcomes u)
  in
  let client_wait =
    List.filter_map
      (fun (o : Flows.outcome) ->
        if o.Flows.served = "" then None
        else Some ((1e6 *. o.Flows.wall) -. float_of_int o.Flows.reported_us))
      (outcomes u)
  in
  let wall_t = List.fold_left ( +. ) 0.0 (walls (outcomes t)) in
  let misses = float_of_int (max 1 (List.length (List.filter is_miss (outcomes t)))) in
  [
    ("netlist.parse_us", us_per_job "parse", "us");
    ("netlist.recognize_us", us_per_job "recognize", "us");
    ("netlist.structures", per_job "netlist.structures", "count");
    ("analysis.lint_us", us_per_job "lint", "us");
    ("analysis.feasibility_us", us_per_job "feasibility", "us");
    ("analysis.verify_us", us_per_job "verify", "us");
    ("analysis.verify_errors", per_job "analysis.verify_errors", "count");
    ("analysis.unmet_obligations", per_job "analysis.unmet_obligations", "count");
    ("anneal.place_ms", 1e3 *. place_s /. na, "ms");
    ("anneal.moves", sum "anneal.moves" /. na, "count");
    ("anneal.moves_per_s", ratio (sum "anneal.moves") place_s, "1/s");
    ("anneal.rounds", sum "anneal.rounds" /. na, "count");
    ("anneal.accept_ratio", ratio moves_accepted moves_total, "ratio");
    ("placer.eval_pack_us", 1e6 *. sum "span.eval.pack" /. na, "us");
    ("placer.eval_hpwl_us", 1e6 *. sum "span.eval.hpwl" /. na, "us");
    ("placer.eval_compose_us", 1e6 *. sum "span.eval.compose" /. na, "us");
    ("placer.pack_share", ratio (sum "span.eval.pack") place_s, "ratio");
    ("route.route_ms", 1e3 *. stage "route" /. n, "ms");
    ("route.iterations", per_job "route.iterations", "count");
    ("route.heap_pops", per_job "route.heap_pops", "count");
    ("route.ripped", per_job "route.ripped", "count");
    ("route.pops_per_ms", ratio pops (1e3 *. stage "route"), "1/ms");
    ("route.overflow", per_job "route.overflow", "count");
    ("route.failed_nets", per_job "route.failed_nets", "count");
    ("service.hits", sum "service.hits", "count");
    ("service.misses", sum "service.misses", "count");
    ("service.neg_hits", sum "service.neg_hits", "count");
    ("service.verify_evictions", sum "service.verify_evictions", "count");
    ( "service.lru_evictions",
      sum "service.evictions" -. sum "service.verify_evictions",
      "count" );
    ("service.reported_us.hit", q (reported "hit") 0.5, "us");
    ("service.reported_us.miss", q (reported "miss") 0.5, "us");
    ("service.reported_us.infeasible", q (reported "infeasible") 0.5, "us");
    ("service.client_wait_us", q client_wait 0.5, "us");
    ("service.miss_moves", sum "service.miss_moves" /. misses, "count");
    ("telemetry.ledger_append_us", 1e6 *. per_job "ledger.append", "us");
    ("telemetry.ledger_bytes", per_job "ledger.bytes", "bytes");
    ( "bench.stage_gap_pct",
      100.0 *. ratio (wall_t -. stage_sum) wall_t,
      "%" );
    ( "bench.trace_overhead_pct",
      100.0 *. (ratio (q (walls (best t)) 0.5) (q (walls (best u)) 0.5) -. 1.0),
      "%" );
    ( "bench.dropped_spans",
      sum "span.dropped" +. float_of_int (Telemetry.Sink.dropped_spans t.probe.Flows.sink),
      "count" );
  ]

(* ---- one run ---------------------------------------------------------- *)

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * float * string) list;
  notes : string list;  (** human-readable findings, printed before the JSON *)
}

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

(* Where the traced jobs' time went, largest stage first. *)
let stage_shares root =
  let stages, total = stage_totals root in
  Hashtbl.fold (fun name v acc -> (name, v) :: acc) stages []
  |> List.sort (fun (_, a) (_, b) -> Float.compare b a)
  |> List.map (fun (name, v) -> sprintf "%s %.1f%%" name (100.0 *. v /. total))
  |> String.concat ", "
  |> ( ^ ) "stage shares: "

(* Gap between a job's wall time and the sum of its stage spans above
   which the traced run does not account for where the time went. *)
let max_stage_gap_pct = 5.0

let run (w : workload) ~size ~seed ~seconds ~trace ~out =
  mkdir_p out;
  let expected = Hashtbl.create 256 in
  let setup_times = ref [] and warm_ups = ref [] and last = ref None in
  let fresh () =
    for _ = 1 to setups_per_pass do
      Gc.compact ();
      let inst, dt, warm_up = setup w ~size ~seed ~out ~expected in
      setup_times := dt :: !setup_times;
      warm_ups := warm_up :: !warm_ups;
      last := Some inst
    done;
    Option.get !last
  in
  (* untraced: two passes at least, so every job is replayed and has a
     fastest run; traced: one untraced and one traced pass at least,
     over the same elements *)
  let u =
    run_phase ~fresh (phase_probe ~live:false)
      ~budget:(if trace then seconds /. 2.0 else seconds)
      ~min_passes:(if trace then 1 else 2) ~expected
  in
  let setup_s = Prelude.Stats.quantile !setup_times 0.5 in
  let t =
    if trace then
      Some
        (run_phase ~fresh (phase_probe ~live:true) ~budget:(seconds /. 2.0)
           ~min_passes:1 ~expected)
    else None
  in
  let inst = Option.get !last in
  let phases = u :: Option.to_list t in
  List.iter
    (fun p ->
      Printf.eprintf "%s phase: %d passes of %d jobs (%s s), fastest runs p50 %.3f ms, p90 %.3f ms\n%!"
        (if Flows.traced p.probe then "traced" else "untraced")
        (List.length p.passes)
        (Array.length (List.hd p.passes))
        (String.concat " " (List.map (sprintf "%.2f") p.pass_walls))
        (ms (q (walls (best p)) 0.5))
        (ms (q (walls (best p)) 0.9)))
    phases;
  let all = !warm_ups @ List.concat_map outcomes phases in
  let failing = List.filter (fun (o : Flows.outcome) -> o.Flows.failures <> []) all in
  let finish = inst.Flows.finish () in
  let attempted = List.length all in
  let failed = List.length failing + List.length finish in
  let sums = summary ~failed ~attempted u in
  let notes =
    List.map (fun m -> "end of run: " ^ m) finish
    @ List.filteri
        (fun i _ -> i < 10)
        (List.map
           (fun (o : Flows.outcome) -> "failed job: " ^ String.concat "; " o.Flows.failures)
           failing)
  in
  match t with
  | None ->
      {
        correct = failed = 0;
        attempted;
        failed;
        metrics = end_to_end ~setup_s u @ sums;
        notes;
      }
  | Some t ->
      let layers = per_layer ~u ~t @ sums in
      let gap = lookup "bench.stage_gap_pct" layers in
      let gap_ok = Float.abs gap <= max_stage_gap_pct in
      (* an evicted span leaves the eval.* sums or the stage spans short *)
      let dropped = lookup "bench.dropped_spans" layers in
      ignore
        (Telemetry.Export.write_file
           ~path:(Filename.concat out (sprintf "trace-%s-%d.json" w.name seed))
           (Telemetry.Export.chrome_json t.probe.Flows.sink)
          : (unit, string) Stdlib.result);
      let traced_sums = summary ~failed ~attempted t in
      let identical =
        List.for_all
          (fun m -> lookup m traced_sums = lookup m sums)
          [ "hpwl_sum"; "routed_wl_sum" ]
      in
      {
        correct = failed = 0 && gap_ok && dropped = 0.0 && identical;
        attempted;
        failed;
        metrics = layers;
        notes =
          notes
          @ [ stage_shares t.probe.Flows.sink ]
          @ (if gap_ok then []
             else [ sprintf "stage spans miss %.1f%% of job time" gap ])
          @ (if dropped = 0.0 then []
             else [ sprintf "%.0f spans evicted before they were read" dropped ])
          @
          if identical then []
          else [ "traced and untraced hpwl_sum / routed_wl_sum differ" ];
      }

(* ---- output ----------------------------------------------------------- *)

let result_json r =
  Telemetry.Json.emit
    (Telemetry.Json.Obj
       [
         ("correct", Telemetry.Json.bool r.correct);
         ("attempted", Telemetry.Json.int r.attempted);
         ("failed", Telemetry.Json.int r.failed);
         ( "metrics",
           Telemetry.Json.Obj
             (List.map
                (fun (name, v, unit) ->
                  ( name,
                    Telemetry.Json.Obj
                      [ ("value", Telemetry.Json.float v); ("unit", Telemetry.Json.str unit) ] ))
                r.metrics) );
       ])

let print_result ~printed r =
  List.iter (fun n -> Printf.printf "# %s\n" n) r.notes;
  List.iter
    (fun (name, v, unit) -> Printf.printf "%-32s %14.6g %s\n" name v unit)
    r.metrics;
  Printf.printf "# %d jobs attempted, %d failed\n" r.attempted r.failed;
  (* the contract's last line: exactly the metrics BENCHMARK.json lists *)
  print_endline
    (result_json
       { r with metrics = List.filter (fun (n, _, _) -> List.mem n printed) r.metrics })

(* ---- BENCHMARK.json and the smoke test -------------------------------- *)

let read_spec path =
  let doc =
    match Telemetry.Json.parse (In_channel.with_open_bin path In_channel.input_all) with
    | Ok d -> d
    | Error e -> failwith (path ^ ": " ^ e)
  in
  let metrics key =
    match Option.bind (Telemetry.Json.member key doc) Telemetry.Json.to_list with
    | None -> failwith (path ^ ": no " ^ key)
    | Some l ->
        List.map
          (fun m ->
            let field f =
              Option.bind (Telemetry.Json.member f m) Telemetry.Json.to_str
              |> Option.value ~default:""
            in
            (field "name", field "unit"))
          l
  in
  (metrics "end_to_end", metrics "per_layer")

(* A tiny-size pass of every workload, traced and untraced: every
   metric BENCHMARK.json names must come out with its unit, no job may
   fail, and the generators must be deterministic per seed. *)
let smoke spec_path ~out =
  let e2e, layers = read_spec spec_path in
  let problems = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  List.iter
    (fun w ->
      List.iter
        (fun trace ->
          let r = run w ~size:Gen.Tiny ~seed:1 ~seconds:0.0 ~trace ~out in
          List.iter
            (fun (name, unit) ->
              match List.find_opt (fun (n, _, _) -> n = name) r.metrics with
              | None -> fail "%s trace %b: %s not printed" w.name trace name
              | Some (_, _, u) when u <> unit ->
                  fail "%s: %s printed in %s, BENCHMARK.json says %s" w.name name u unit
              | Some _ -> ())
            (if trace then layers else e2e);
          if r.failed > 0 || not r.correct then
            fail "%s trace %b: %d of %d jobs failed (%s)" w.name trace r.failed
              r.attempted (String.concat "; " r.notes))
        [ false; true ])
    workloads;
  (* full-size decks: generating them is cheap, running them is not *)
  let stream seed =
    Array.map (fun (r : Gen.request) -> Gen.request_key r.Gen.req)
      (Gen.service_stream ~size:Gen.Full ~seed)
  in
  let route seed =
    Array.map
      (fun (j : Netlist.Benchmarks.bench Gen.job) ->
        (Netlist.Circuit.digest j.Gen.input.Netlist.Benchmarks.circuit, j.Gen.anneal_seed))
      (Gen.route_deck ~size:Gen.Full ~seed)
  in
  let sym seed = Gen.sym_deck ~size:Gen.Full ~seed in
  let deterministic name gen =
    if gen 7 <> gen 7 then fail "%s generator is not deterministic" name;
    if gen 7 = gen 8 then fail "%s generator ignores its seed" name
  in
  deterministic "flow-sym" sym;
  deterministic "flow-route" route;
  deterministic "service-mix" stream;
  match !problems with
  | [] ->
      print_endline "smoke ok";
      0
  | ps ->
      List.iter prerr_endline (List.rev ps);
      1

(* ---- command line ----------------------------------------------------- *)

let usage =
  "usage: main.exe --workload (flow-sym|flow-route|service-mix) --seed N \
   --seconds S --trace 0|1 [--size full|tiny] [--out DIR]\n\
  \       main.exe --smoke BENCHMARK.json [--out DIR]"

let () =
  let args = ref [] in
  let rec parse = function
    | key :: v :: rest when String.starts_with ~prefix:"--" key ->
        args := (key, v) :: !args;
        parse rest
    | [] -> ()
    | _ ->
        prerr_endline usage;
        exit 2
  in
  parse (List.tl (Array.to_list Sys.argv));
  let arg key = List.assoc_opt key !args in
  let num key conv =
    match Option.map conv (arg key) with
    | Some (Some v) -> v
    | _ ->
        Printf.eprintf "missing or bad %s\n%s\n" key usage;
        exit 2
  in
  let out = Option.value ~default:"perfbench/_out" (arg "--out") in
  match arg "--smoke" with
  | Some spec -> exit (smoke spec ~out)
  | None ->
      let w =
        match
          List.find_opt (fun w -> Some w.name = arg "--workload") workloads
        with
        | Some w -> w
        | None ->
            prerr_endline usage;
            exit 2
      in
      let seed = num "--seed" int_of_string_opt in
      let seconds = num "--seconds" float_of_string_opt in
      let trace = num "--trace" (function "0" -> Some false | "1" -> Some true | _ -> None) in
      let size = if arg "--size" = Some "tiny" then Gen.Tiny else Gen.Full in
      let e2e, layers = read_spec "BENCHMARK.json" in
      let r = run w ~size ~seed ~seconds ~trace ~out in
      print_result ~printed:(List.map fst (if trace then layers else e2e)) r;
      exit (if r.correct then 0 else 1)
