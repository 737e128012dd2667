(* Command-line front end.

     analog_place place     -- place a netlist (or a built-in benchmark)
     analog_place route     -- place, then route every net
     analog_place report    -- diff QoR ledgers, gate regressions
     analog_place size      -- layout-aware sizing of the Miller op amp
     analog_place info      -- parse + recognize only
     analog_place lint      -- static constraint/netlist diagnostics
     analog_place verify    -- re-verify recorded placements, DRC style
     analog_place batch     -- serve a JSONL request file
     analog_place serve     -- long-lived JSONL placement service
     analog_place dashboard -- the flight recorder: one-page HTML telemetry

   Examples:
     analog_place place --netlist opamp.cir --engine hbstar --svg out.svg
     analog_place place --bench lnamixbias --engine esf
     analog_place place --bench miller-v2 --infeasible-check --outline 10x10
     analog_place route --bench miller --engine sp --ledger runs.jsonl
     analog_place report runs.jsonl --baseline bench/qor_baseline.jsonl
     analog_place size --mode aware
     analog_place lint opamp.cir --json
     analog_place verify --ledger runs.jsonl --all --sarif verify.sarif
     analog_place batch requests.jsonl -o responses.jsonl
     analog_place dashboard runs.jsonl --out flight.html --bench miller --route
*)

open Cmdliner

(* ---- files ------------------------------------------------------- *)

let read_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | s -> Ok s
  | exception Sys_error msg -> Error msg

(* All CLI-facing file reads and writes go through these two: an I/O
   failure prints one clean line and exits 2 instead of dying on a raw
   Sys_error. [read_or_die "-"] reads stdin. *)
let read_or_die path =
  if path = "-" then In_channel.input_all stdin
  else
    match read_file path with
    | Ok s -> s
    | Error msg ->
        Printf.eprintf "error: cannot read %s: %s\n" path msg;
        exit 2

let write_or_die path contents =
  match Telemetry.Export.write_file ~path contents with
  | Ok () -> ()
  | Error msg ->
      Printf.eprintf "error: cannot write %s: %s\n" path msg;
      exit 2

(* Everything that can go wrong between a path and a recognized bench,
   as one AL000 diagnostic: unreadable file, parse error (with its
   line), or a circuit the structure recognizer rejects (an empty
   netlist has no hierarchy root, for instance). *)
let try_load_netlist path =
  match read_file path with
  | Error msg -> Error (Analysis.Lint.parse_failure ~file:path msg)
  | Ok contents -> (
      match Netlist.Parser.parse_string contents with
      | Error (e : Netlist.Parser.error) ->
          Error
            (Analysis.Lint.parse_failure ~line:e.Netlist.Parser.line ~file:path
               e.Netlist.Parser.message)
      | Ok devices -> (
          let name = Filename.remove_extension (Filename.basename path) in
          let circuit = Netlist.Parser.to_circuit ~name devices in
          match Netlist.Recognize.recognize circuit with
          | exception Invalid_argument msg ->
              Error
                (Analysis.Lint.parse_failure ~file:path
                   ("structure recognition failed: " ^ msg))
          | { Netlist.Recognize.hierarchy; _ } ->
              Ok { Netlist.Benchmarks.label = name; circuit; hierarchy }))

(* An engine that cannot represent the circuit rejects it with one
   diagnostic line and exit 2, like an unusable flag. *)
let engine_outcome = function
  | Ok o -> o
  | Error d ->
      Format.eprintf "%a@." Analysis.Diagnostic.pp d;
      exit 2

let load_netlist path =
  match try_load_netlist path with
  | Ok b -> b
  | Error d ->
      Format.eprintf "%a@." Analysis.Diagnostic.pp d;
      exit 1

let load_bench name =
  match name with
  | "miller" -> Netlist.Benchmarks.miller ()
  | "fig2" -> Netlist.Benchmarks.fig2_design ()
  | _ -> (
      match
        List.find_opt
          (fun (b : Netlist.Benchmarks.bench) ->
            String.lowercase_ascii b.label
            = String.lowercase_ascii (String.map (function '-' -> ' ' | c -> c) name))
          (Netlist.Benchmarks.table1_suite ())
      with
      | Some b -> b
      | None ->
          Format.eprintf
            "unknown benchmark %s (try: miller fig2 \"miller-v2\" \
             \"comparator-v2\" \"folded-casc.\" buffer biasynth lnamixbias)@."
            name;
          exit 1)

(* The --netlist/--bench pair: a netlist path wins over a bench name;
   neither is a one-line usage error, exit 1. *)
let resolve_input ?(usage = "need --netlist FILE or --bench NAME") netlist
    bench =
  match (netlist, bench) with
  | Some path, _ -> `Netlist path
  | None, Some name -> `Bench (load_bench name)
  | None, None ->
      prerr_endline usage;
      exit 1

let load_input netlist bench =
  match resolve_input netlist bench with
  | `Netlist path -> load_netlist path
  | `Bench b -> b

let read_ledger path =
  match Telemetry.Ledger.read path with
  | Ok [] ->
      Printf.eprintf "error: %s holds no ledger entries\n" path;
      exit 2
  | Ok es -> es
  | Error msg ->
      Printf.eprintf "error: %s\n" msg;
      exit 2

(* --last N: the newest N entries, all of them without the flag. *)
let trim_last last entries =
  match last with
  | None -> entries
  | Some n ->
      let len = List.length entries in
      List.filteri (fun i _ -> i >= len - n) entries

(* Every SARIF file ships through the emitter's own structural check
   first — a malformed report is a bug here, not data for CI. *)
let write_sarif ?uri path diags =
  let s = Analysis.Sarif.to_string ?uri diags in
  (match Analysis.Sarif.check s with
  | Ok () -> ()
  | Error e ->
      Printf.eprintf "internal error: invalid SARIF: %s\n" e;
      exit 2);
  write_or_die path s;
  Printf.printf "wrote %s\n" path

(* ---- shared flags ------------------------------------------------ *)

let outline_conv =
  let fail s = Error (`Msg (Printf.sprintf "bad outline %S (expected WxH)" s)) in
  let parse s =
    match String.split_on_char 'x' (String.lowercase_ascii s) with
    | [ w; h ] -> (
        match (int_of_string_opt w, int_of_string_opt h) with
        | Some w, Some h when w > 0 && h > 0 -> Ok (w, h)
        | _ -> fail s)
    | _ -> fail s
  in
  let print ppf (w, h) = Format.fprintf ppf "%dx%d" w h in
  Arg.conv (parse, print)

let engine_conv =
  let parse s =
    match Placer.Engine.of_string s with
    | Some e -> Ok e
    | None -> Error (`Msg ("unknown engine " ^ s))
  in
  let print ppf e = Format.pp_print_string ppf (Placer.Engine.name e) in
  Arg.conv (parse, print)

(* The engines that take the annealing-only flags, for help and notes:
   "sp, bstar, tcg, hbstar". *)
let annealed_engines =
  String.concat ", "
    (List.map Placer.Engine.name
       (List.filter Placer.Engine.annealed Placer.Engine.all))

let netlist_arg doc =
  Arg.(
    value
    & opt (some string) None
    & info [ "netlist"; "n" ] ~docv:"FILE" ~doc)

let bench_arg doc =
  Arg.(value & opt (some string) None & info [ "bench"; "b" ] ~docv:"NAME" ~doc)

let engine_arg default doc =
  Arg.(value & opt engine_conv default & info [ "engine"; "e" ] ~docv:"ENGINE" ~doc)

let seed_arg doc = Arg.(value & opt int 1 & info [ "seed" ] ~docv:"INT" ~doc)
let json_arg doc = Arg.(value & flag & info [ "json" ] ~doc)

let sarif_arg doc =
  Arg.(value & opt (some string) None & info [ "sarif" ] ~docv:"FILE" ~doc)

let last_arg doc =
  Arg.(value & opt (some int) None & info [ "last" ] ~docv:"N" ~doc)

let workers_arg doc =
  Arg.(value & opt (some int) None & info [ "workers" ] ~docv:"N" ~doc)

let route_arg doc = Arg.(value & flag & info [ "route" ] ~doc)

(* ---- place ------------------------------------------------------- *)

(* [do_route] comes first so the `route` subcommand is a partial
   application of the same runner the `--route` flag drives. *)
let run_place do_route netlist bench engine seed svg quiet cluster validate
    trace conv metrics workers chains portfolio ledger infeasible_check
    outline route_weight =
  let b = load_input netlist bench in
  let circuit = b.Netlist.Benchmarks.circuit in
  let hierarchy =
    if cluster then Netlist.Cluster.by_connectivity circuit
    else b.Netlist.Benchmarks.hierarchy
  in
  let rng = Prelude.Rng.create seed in
  (* One sink for the whole run, created only when some output wants
     it; the engines see the null sink otherwise and pay nothing. The
     ledger wants move tallies and per-chain QoR, so it counts too. *)
  let want_telemetry =
    trace <> None || conv <> None || metrics || ledger <> None
  in
  let telemetry =
    if want_telemetry then Telemetry.Sink.create ()
    else Telemetry.Sink.null
  in
  let annealed = portfolio || Placer.Engine.annealed engine in
  if want_telemetry && not annealed then
    Printf.eprintf
      "note: engine is not annealing-instrumented; the trace will only \
       contain the place.total span (%s carry full telemetry)\n"
      annealed_engines;
  let groups = Constraints.Symmetry_group.of_hierarchy hierarchy in
  (* The prover runs before any annealing; its errors are proofs, so a
     rejected input exits 1 without burning a single SA round. It gates
     every engine and the portfolio alike. *)
  if infeasible_check then begin
    let diags =
      Analysis.Feasibility.check ~groups ~hierarchy ?outline circuit
    in
    if diags <> [] then Format.printf "%a" Analysis.Diagnostic.pp_list diags;
    if Analysis.Diagnostic.has_errors diags then begin
      Printf.eprintf "input proven infeasible; not placing\n";
      exit 1
    end
  end;
  (* Routability-driven annealing: a non-zero --route-weight folds the
     probabilistic congestion estimate into the cost of the annealing
     engines. Each chain builds its own estimator instance, so parallel
     chains share nothing mutable. *)
  let weights =
    if route_weight > 0.0 then
      { Placer.Cost.default with Placer.Cost.routability = route_weight }
    else Placer.Cost.default
  in
  let estimator =
    if route_weight > 0.0 then Some (Route.Estimate.estimator circuit)
    else None
  in
  if route_weight > 0.0 && not annealed then
    Printf.eprintf
      "note: --route-weight only drives the annealing engines (%s, \
       --portfolio); %s ignores it\n"
      annealed_engines
      (Placer.Engine.name engine);
  let t0 = Sys.time () in
  let w0 = Unix.gettimeofday () in
  let t_total = Telemetry.Sink.span_begin telemetry in
  let o =
    if portfolio then (
      let o =
        Placer.Portfolio.race ~weights ~groups ?workers ?chains ~hierarchy
          ?validate ?estimator ~telemetry ~rng circuit
      in
      Printf.printf "portfolio winner: %s (%s)\n"
        (Placer.Portfolio.engine_name o.Placer.Portfolio.winner)
        (String.concat ", "
           (List.map
              (fun (e : Placer.Portfolio.entrant) ->
                Printf.sprintf "%s %.0f"
                  (Placer.Portfolio.engine_name e.Placer.Portfolio.engine)
                  e.Placer.Portfolio.cost)
              o.Placer.Portfolio.entrants));
      {
        Placer.Placement.placement = o.Placer.Portfolio.placement;
        cost = o.Placer.Portfolio.cost;
        sa_rounds =
          List.fold_left
            (fun acc (e : Placer.Portfolio.entrant) ->
              max acc e.Placer.Portfolio.sa_rounds)
            0 o.Placer.Portfolio.entrants;
        evaluated = o.Placer.Portfolio.evaluated;
        workers = o.Placer.Portfolio.workers;
        chains = Option.value chains ~default:1;
      })
    else
      engine_outcome
        (Placer.Engine.run ~weights ~groups ?workers ?chains ?validate
           ?estimator ~telemetry ~rng engine circuit hierarchy)
  in
  Telemetry.Sink.span_end telemetry "place.total" t_total;
  let seconds = Sys.time () -. t0 in
  let wall_s = Unix.gettimeofday () -. w0 in
  let placement = o.Placer.Placement.placement in
  let placed = placement.Placer.Placement.placed in
  (match Placer.Placement.validate placement with
  | Ok () -> ()
  | Error m ->
      Printf.eprintf "internal error: invalid placement: %s\n" m;
      exit 2);
  Printf.printf
    "%s: %d modules, %dx%d grid units, area %d (usage %.2f%%), HPWL %.0f, \
     %.2fs\n"
    b.Netlist.Benchmarks.label (Netlist.Circuit.size circuit)
    (Placer.Placement.width placement)
    (Placer.Placement.height placement)
    (Placer.Placement.area placement)
    (100.0
    *. float_of_int (Placer.Placement.area placement)
    /. float_of_int (max 1 (Netlist.Circuit.total_module_area circuit)))
    (Placer.Placement.hpwl placement)
    seconds;
  List.iter
    (fun g ->
      Printf.printf "symmetry %s: %s\n" g.Constraints.Symmetry_group.name
        (match
           Constraints.Placement_check.symmetry ~group:g placed
         with
        | Ok _ -> "exact"
        | Error _ -> "not enforced by this engine"))
    groups;
  (* The routed flow: negotiated-congestion routing over the final
     placement, mirrored across the symmetry axes, power comb first. *)
  let route_result =
    if not do_route then None
    else begin
      let r0 = Unix.gettimeofday () in
      let r = Route.Router.route_all ~symmetric:groups ~telemetry placement in
      let r_s = Unix.gettimeofday () -. r0 in
      Printf.printf
        "routed %d/%d nets: wirelength %d, overflow %d, %d iterations, %d \
         mirrored pairs, %.2fs\n"
        (List.length r.Route.Router.routed)
        (List.length r.Route.Router.routed
        + List.length r.Route.Router.failed)
        r.Route.Router.wirelength r.Route.Router.overflow
        r.Route.Router.iterations
        (List.length r.Route.Router.mirrored_pairs)
        r_s;
      List.iter
        (fun (f : Route.Router.failure) ->
          Printf.printf "  failed %s (%s)\n" f.Route.Router.failed_net
            (Route.Router.reason_to_string f.Route.Router.reason))
        r.Route.Router.failed;
      List.iter
        (fun (a, b) -> Printf.printf "  mirrored %s <-> %s\n" a b)
        r.Route.Router.mirrored_pairs;
      Some r
    end
  in
  if not quiet then
    print_string
      (Placer.Plot.ascii ~width:72
         ~labels:(Placer.Plot.device_labels placement)
         placement);
  (match svg with
  | Some path ->
      (match route_result with
      | None -> write_or_die path (Placer.Plot.svg placement)
      | Some r ->
          (* route_all ran on the default grid *)
          let layout_of =
            List.map
              (Route.Grid.to_layout ~pitch:Route.Grid.default_pitch
                 ~margin:Route.Grid.default_margin)
          in
          let wires =
            List.map
              (fun (rt : Route.Router.route) -> layout_of rt.Route.Router.points)
              r.Route.Router.routed
          in
          let power = List.map layout_of r.Route.Router.power in
          write_or_die path (Placer.Plot.svg_full ~power ~wires placement));
      Printf.printf "wrote %s\n" path
  | None -> ());
  (match trace with
  | Some path ->
      let json = Telemetry.Export.chrome_json telemetry in
      (* the emitter self-checks: a malformed trace is a bug, not data *)
      (match Telemetry.Json.parse json with
      | Ok _ -> ()
      | Error e ->
          Printf.eprintf "internal error: invalid trace JSON: %s\n" e;
          exit 2);
      write_or_die path json;
      Printf.printf "wrote %s (load in chrome://tracing or ui.perfetto.dev)\n"
        path
  | None -> ());
  (match conv with
  | Some path ->
      write_or_die path (Telemetry.Export.conv_csv telemetry);
      Printf.printf "wrote %s\n" path
  | None -> ());
  if metrics then print_string (Telemetry.Export.text telemetry);
  match ledger with
  | None -> ()
  | Some path -> (
      let routed f = Option.map f route_result in
      let entry =
        Placer.Engine.entry
          ?routed_wl:(routed (fun r -> r.Route.Router.wirelength))
          ?route_overflow:(routed (fun r -> r.Route.Router.overflow))
          ?route_failed:(routed (fun r -> List.length r.Route.Router.failed))
          ?route_iterations:(routed (fun r -> r.Route.Router.iterations))
          ~groups ~hierarchy ~telemetry ~label:b.Netlist.Benchmarks.label
          ~engine:
            (if portfolio then "portfolio" else Placer.Engine.name engine)
          ~seed ~wall_s o
      in
      match Telemetry.Ledger.append path entry with
      | Ok () -> Printf.printf "appended ledger entry to %s\n" path
      | Error msg ->
          Printf.eprintf "error: cannot write %s: %s\n" path msg;
          exit 2)

(* One argument spec serves both `place` (routing behind --route) and
   `route` (routing always on) — the commands differ only in how the
   leading [do_route] parameter of [run_place] is bound. *)
let place_term ~route =
  let netlist =
    netlist_arg "SPICE-like netlist to place (hierarchy is auto-recognized)."
  in
  let bench = bench_arg "Built-in benchmark: miller, fig2, or a Table-I circuit." in
  let engine =
    engine_arg Placer.Engine.Hbstar
      "Placement engine: sp (annealed symmetric-feasible sequence-pair), \
       bstar (flat B*-tree), tcg (transitive closure graph), hbstar \
       (hierarchical B*-tree with constraints), esf / rsf (deterministic \
       shape functions), slicing (baseline)."
  in
  let seed = seed_arg "RNG seed." in
  let svg =
    Arg.(
      value
      & opt (some string) None
      & info [ "svg" ] ~docv:"FILE" ~doc:"Write the placement as SVG.")
  in
  let quiet =
    Arg.(value & flag & info [ "quiet"; "q" ] ~doc:"No ASCII plot.")
  in
  let cluster =
    Arg.(
      value & flag
      & info [ "cluster" ]
          ~doc:
            "Replace the recognized hierarchy by connectivity-based virtual \
             clustering (useful when recognition finds no structure).")
  in
  let validate =
    Arg.(
      value
      & opt (some bool) None
      & info [ "validate" ] ~docv:"BOOL"
          ~doc:
            (Printf.sprintf
               "Run the invariant sanitizer after every SA move (%s \
                engines). Defaults to the ANALOG_VALIDATE environment \
                switch."
               annealed_engines))
  in
  let trace =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Write a Chrome trace_event JSON of the run (spans for packing, \
             cost evaluation and SA rounds, plus per-round convergence \
             counter events). Open in chrome://tracing or ui.perfetto.dev.")
  in
  let conv =
    Arg.(
      value
      & opt (some string) None
      & info [ "conv" ] ~docv:"FILE"
          ~doc:
            "Write the SA convergence curve as CSV \
             (chain,round,temperature,acceptance,best_cost).")
  in
  let metrics =
    Arg.(
      value & flag
      & info [ "metrics" ]
          ~doc:
            "Print a telemetry summary after placement: counters, latency \
             histograms and span statistics.")
  in
  let workers =
    workers_arg
      (Printf.sprintf
         "Worker domains for multi-start annealing (%s engines) and the \
          --portfolio race. Results are identical for any value; this only \
          chooses how much hardware the same computation uses."
         annealed_engines)
  in
  let chains =
    Arg.(
      value
      & opt (some int) None
      & info [ "chains" ] ~docv:"INT"
          ~doc:
            (Printf.sprintf
               "Independent annealing chains for multi-start (%s engines); \
                defaults to the worker count when --workers is given."
               annealed_engines))
  in
  let portfolio =
    Arg.(
      value & flag
      & info [ "portfolio" ]
          ~doc:
            "Race a heterogeneous portfolio instead of a single engine: \
             sequence-pair, B*-tree and TCG chains (plus the \
             deterministic shape-function enumerator on small \
             hierarchical circuits) advance in lock-step under one cost \
             scale and trade the best placement at every barrier; the \
             entrant holding the best placement wins. Overrides --engine; \
             --chains counts chains per representation.")
  in
  let ledger =
    Arg.(
      value
      & opt (some string) None
      & info [ "ledger" ] ~docv:"FILE"
          ~doc:
            "Append a QoR ledger entry (JSONL) for this run: cost \
             breakdown, constraint violations, move statistics, \
             per-chain records and the placed rectangles. Compare runs \
             with $(b,analog_place report).")
  in
  let infeasible_check =
    Arg.(
      value & flag
      & info [ "infeasible-check" ]
          ~doc:
            "Run the constraint feasibility prover before placing: total \
             area, per-module and symmetry-pair fit, cross-group pair \
             conflicts, and basic-set packing lower bounds against \
             $(b,--outline). A proven-infeasible input exits 1 with AL20x \
             diagnostics instead of annealing to a doomed layout.")
  in
  let outline =
    Arg.(
      value
      & opt (some outline_conv) None
      & info [ "outline" ] ~docv:"WxH"
          ~doc:
            "Fixed outline in grid units (e.g. 120x90) for the feasibility \
             prover's fit obligations. Without it, only outline-independent \
             checks run.")
  in
  let do_route =
    if route then Term.const true
    else
      route_arg
        "Route every net after placing: power comb first, then negotiated \
         rip-up-and-reroute with mirrored symmetric twins. Prints routed \
         wirelength / overflow / failures, records them in the ledger, and \
         layers the wiring into --svg output."
  in
  let route_weight =
    Arg.(
      value & opt float 0.0
      & info [ "route-weight" ] ~docv:"W"
          ~doc:
            (Printf.sprintf
               "Fold the probabilistic congestion estimate into the \
                annealing cost with this weight (%s and --portfolio \
                engines): the anneal becomes routability-driven. 0 keeps \
                the classic three-term cost."
               annealed_engines))
  in
  Term.(
    const run_place $ do_route $ netlist $ bench $ engine $ seed $ svg $ quiet
    $ cluster $ validate $ trace $ conv $ metrics $ workers $ chains
    $ portfolio $ ledger $ infeasible_check $ outline $ route_weight)

let place_cmd =
  Cmd.v (Cmd.info "place" ~doc:"Place an analog circuit") (place_term ~route:false)

let route_cmd =
  Cmd.v
    (Cmd.info "route"
       ~doc:
         "Place and route an analog circuit: placement as $(b,place), then \
          power distribution and negotiated-congestion routing with \
          mirrored symmetric nets. Same flags as $(b,place); --svg layers \
          the power comb and signal wiring over the floorplan.")
    (place_term ~route:true)

(* ---- report ------------------------------------------------------ *)

(* Rebuild a drawable placement from a ledger entry's embedded
   rectangles: one opaque block per cell, indices in rect order (which
   is cell order — Placer.Qor.rects emits them that way), so the
   violation member lists recorded at run time still index correctly. *)
let placement_of_entry (e : Telemetry.Ledger.entry) =
  if e.Telemetry.Ledger.placement = [] then None
  else
    let modules =
      List.map
        (fun (r : Telemetry.Ledger.rect) ->
          Netlist.Circuit.block ~name:r.Telemetry.Ledger.cell
            ~w:r.Telemetry.Ledger.w ~h:r.Telemetry.Ledger.h)
        e.Telemetry.Ledger.placement
    in
    let circuit =
      Netlist.Circuit.make ~name:e.Telemetry.Ledger.label ~modules ~nets:[]
    in
    let placed =
      List.mapi
        (fun i (r : Telemetry.Ledger.rect) ->
          Geometry.Transform.place ~cell:i ~x:r.Telemetry.Ledger.x
            ~y:r.Telemetry.Ledger.y ~w:r.Telemetry.Ledger.w
            ~h:r.Telemetry.Ledger.h ~orient:Geometry.Orientation.R0)
        e.Telemetry.Ledger.placement
    in
    Some (Placer.Placement.make circuit placed)

let annotated_svg (e : Telemetry.Ledger.entry) p =
  let rects = Array.of_list e.Telemetry.Ledger.placement in
  let member_rects ms =
    List.filter_map
      (fun i ->
        if i >= 0 && i < Array.length rects then
          let r = rects.(i) in
          Some
            (Geometry.Rect.make ~x:r.Telemetry.Ledger.x ~y:r.Telemetry.Ledger.y
               ~w:r.Telemetry.Ledger.w ~h:r.Telemetry.Ledger.h)
        else None)
      ms
  in
  (* every constraint group gets a hatched ring around its bounding
     box; violated groups additionally get a polyline threading their
     members so the offending cells stand out *)
  let rings =
    List.filter_map
      (fun (v : Telemetry.Qor.violation) ->
        match member_rects v.Telemetry.Qor.members with
        | [] -> None
        | rs -> Some (Geometry.Outline.bounding_box rs))
      e.Telemetry.Ledger.qor.Telemetry.Qor.violations
  in
  let wires =
    List.filter_map
      (fun (v : Telemetry.Qor.violation) ->
        if v.Telemetry.Qor.count = 0 then None
        else
          match member_rects v.Telemetry.Qor.members with
          | [] | [ _ ] -> None
          | rs ->
              Some
                (List.map
                   (fun (r : Geometry.Rect.t) ->
                     ( r.Geometry.Rect.x + (r.Geometry.Rect.w / 2),
                       r.Geometry.Rect.y + (r.Geometry.Rect.h / 2) ))
                   rs))
      e.Telemetry.Ledger.qor.Telemetry.Qor.violations
  in
  Placer.Plot.svg_full ~rings ~wires p

let sanitize_key k =
  String.map (function '/' | ' ' | '.' -> '_' | c -> c) k

let run_report ledger baseline last svg_dir cost_tol hpwl_tol area_tol json =
  let entries = trim_last last (read_ledger ledger) in
  let base_entries, cand_entries =
    match baseline with
    | Some bpath -> (read_ledger bpath, entries)
    | None ->
        (* trend mode on one ledger: each key's latest entry is the
           candidate, its earlier entries are the baseline *)
        let latest = Hashtbl.create 8 in
        List.iter
          (fun e -> Hashtbl.replace latest (Telemetry.Regress.key_of e) e)
          entries;
        let is_latest e =
          match Hashtbl.find_opt latest (Telemetry.Regress.key_of e) with
          | Some e' -> e' == e
          | None -> false
        in
        (List.filter (fun e -> not (is_latest e)) entries, entries)
  in
  let thresholds =
    {
      Telemetry.Regress.cost_pct = cost_tol;
      hpwl_pct = hpwl_tol;
      area_pct = area_tol;
    }
  in
  let verdict =
    Telemetry.Regress.compare_entries ~thresholds ~baseline:base_entries
      ~candidate:cand_entries ()
  in
  if json then begin
    (* machine-readable verdict, self-checked: the emitted document
       must parse back before anything downstream sees it *)
    let doc = Telemetry.Json.emit (Telemetry.Regress.to_json verdict) in
    (match Telemetry.Json.parse doc with
    | Ok _ -> ()
    | Error e ->
        Printf.eprintf "internal error: invalid report JSON: %s\n" e;
        exit 2);
    print_endline doc
  end
  else print_string (Telemetry.Regress.render verdict);
  (match svg_dir with
  | None -> ()
  | Some dir ->
      if not (Sys.file_exists dir) then
        (try Unix.mkdir dir 0o755
         with Unix.Unix_error (e, _, _) ->
           Printf.eprintf "error: cannot create %s: %s\n" dir
             (Unix.error_message e);
           exit 2);
      (* draw each key's candidate entry *)
      let latest = Hashtbl.create 8 in
      List.iter
        (fun e -> Hashtbl.replace latest (Telemetry.Regress.key_of e) e)
        cand_entries;
      Hashtbl.iter
        (fun key e ->
          match placement_of_entry e with
          | None -> ()
          | Some p ->
              let path =
                Filename.concat dir (sanitize_key key ^ ".svg")
              in
              write_or_die path (annotated_svg e p);
              Printf.printf "wrote %s\n" path)
        latest);
  exit (if Telemetry.Regress.ok verdict then 0 else 1)

let report_cmd =
  let ledger =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"LEDGER"
          ~doc:"QoR ledger (JSONL) holding the candidate runs.")
  in
  let baseline =
    Arg.(
      value
      & opt (some string) None
      & info [ "baseline" ] ~docv:"FILE"
          ~doc:
            "Compare the ledger's latest run per configuration against \
             this baseline ledger. Without it, each configuration's \
             latest entry is compared against its own earlier history \
             (trend mode).")
  in
  let last = last_arg "Consider only the last N entries of LEDGER." in
  let svg_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "svg-dir" ] ~docv:"DIR"
          ~doc:
            "Write one annotated SVG per compared configuration: the \
             recorded floorplan with hatched rings around every \
             constraint group and highlight polylines through violated \
             ones.")
  in
  let tol name default doc =
    Arg.(value & opt float default & info [ name ] ~docv:"PCT" ~doc)
  in
  let cost_tol = tol "cost-tol" 1.0 "Cost regression tolerance, percent." in
  let hpwl_tol = tol "hpwl-tol" 2.0 "HPWL regression tolerance, percent." in
  let area_tol = tol "area-tol" 2.0 "Area regression tolerance, percent." in
  let json =
    json_arg
      "Emit the verdict as one machine-readable JSON object (verdict, \
       per-configuration comparisons, per-metric baselines and deltas) \
       instead of the text table. The exit status gates the same way."
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:
         "Diff QoR ledgers and detect regressions (non-zero exit when a \
          gated metric regressed)")
    Term.(
      const run_report $ ledger $ baseline $ last $ svg_dir $ cost_tol
      $ hpwl_tol $ area_tol $ json)

(* ---- size -------------------------------------------------------- *)

let run_size mode seed =
  let mode =
    match mode with
    | "electrical" -> Sizing.Flow.Electrical_only
    | "aware" -> Sizing.Flow.Layout_aware
    | m ->
        Printf.eprintf "unknown mode %s (electrical|aware)\n" m;
        exit 1
  in
  let rng = Prelude.Rng.create seed in
  let o = Sizing.Flow.run ~rng mode in
  Format.printf "final sizing:@.%a@." Sizing.Design.pp o.Sizing.Flow.design;
  Printf.printf "layout %.1f x %.1f um (area %.0f um^2)\n"
    o.Sizing.Flow.layout.Sizing.Template.width_um
    o.Sizing.Flow.layout.Sizing.Template.height_um
    o.Sizing.Flow.layout.Sizing.Template.area_um2;
  List.iter
    (fun (name, nominal, met) ->
      let extracted =
        Option.value ~default:Float.nan
          (Sizing.Spec.value o.Sizing.Flow.perf_extracted name)
      in
      Printf.printf "  %-12s nominal %10.3f  extracted %10.3f %s\n" name
        nominal extracted
        (if met then "" else "FAIL"))
    (Sizing.Spec.report Sizing.Flow.default_specs o.Sizing.Flow.perf_nominal
    |> List.map (fun (n, v, _) ->
           ( n,
             v,
             Sizing.Spec.satisfied
               (List.find
                  (fun s -> s.Sizing.Spec.name = n)
                  Sizing.Flow.default_specs)
               o.Sizing.Flow.perf_extracted )));
  Printf.printf
    "specs met: nominal %b / extracted %b; %d evaluations, extraction %.0f%% \
     of %.2fs\n"
    o.Sizing.Flow.met_nominal o.Sizing.Flow.met_extracted
    o.Sizing.Flow.evaluations
    (100.0 *. Sizing.Flow.extraction_fraction o)
    o.Sizing.Flow.seconds

let size_cmd =
  let mode =
    Arg.(
      value & opt string "aware"
      & info [ "mode"; "m" ] ~docv:"MODE"
          ~doc:"Sizing mode: electrical (layout-blind) or aware.")
  in
  let seed = seed_arg "RNG seed." in
  Cmd.v
    (Cmd.info "size" ~doc:"Layout-aware sizing of the Miller op amp")
    Term.(const run_size $ mode $ seed)

(* ---- info -------------------------------------------------------- *)

let run_info netlist =
  let b = load_netlist netlist in
  let circuit = b.Netlist.Benchmarks.circuit in
  Format.printf "%a@." Netlist.Circuit.pp circuit;
  let { Netlist.Recognize.structures; hierarchy } =
    Netlist.Recognize.recognize circuit
  in
  List.iter
    (fun s -> Format.printf "  %a@." Netlist.Recognize.pp_structure s)
    structures;
  Format.printf "hierarchy: %a@." Netlist.Hierarchy.pp hierarchy;
  List.iter
    (fun g -> Format.printf "symmetry group %a@." Constraints.Symmetry_group.pp g)
    (Constraints.Symmetry_group.of_hierarchy hierarchy)

let info_cmd =
  let netlist =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"FILE" ~doc:"Netlist to inspect.")
  in
  Cmd.v
    (Cmd.info "info" ~doc:"Parse a netlist and report recognized structure")
    Term.(const run_info $ netlist)

(* ---- lint -------------------------------------------------------- *)

let run_lint netlist bench json sarif threshold =
  (* exit status: 0 clean, 1 lint findings, 2 the input never became a
     circuit (AL000) — so CI can tell "bad constraints" from "bad file" *)
  let loaded =
    match
      resolve_input ~usage:"need a netlist FILE or --bench NAME" netlist bench
    with
    | `Netlist path -> try_load_netlist path
    | `Bench b -> Ok b
  in
  let label, diags, status =
    match loaded with
    | Error d -> (Option.get netlist, [ d ], 2)
    | Ok b ->
        let diags =
          Analysis.Lint.all ~sf_threshold:threshold b.Netlist.Benchmarks.circuit
            b.Netlist.Benchmarks.hierarchy
        in
        ( b.Netlist.Benchmarks.label,
          diags,
          if Analysis.Diagnostic.has_errors diags then 1 else 0 )
  in
  if json then print_endline (Analysis.Diagnostic.list_to_json diags)
  else begin
    Format.printf "%s: " label;
    if diags = [] then Format.printf "clean@."
    else Format.printf "@.%a" Analysis.Diagnostic.pp_list diags
  end;
  (match sarif with
  | Some path -> write_sarif ?uri:netlist path diags
  | None -> ());
  exit status

let lint_cmd =
  let netlist =
    Arg.(
      value
      & pos 0 (some string) None
      & info [] ~docv:"FILE" ~doc:"Netlist to lint.")
  in
  let bench = bench_arg "Lint a built-in benchmark instead of a file." in
  let json = json_arg "Emit diagnostics as a JSON array." in
  let sarif = sarif_arg "Also write the diagnostics as a SARIF 2.1.0 report." in
  let threshold =
    Arg.(
      value & opt int 1000
      & info [ "sf-threshold" ] ~docv:"INT"
          ~doc:
            "Warn (AL010) when the symmetric-feasible count bound falls \
             below this value.")
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Static constraint/netlist diagnostics (non-zero exit on errors)")
    Term.(const run_lint $ netlist $ bench $ json $ sarif $ threshold)

(* ---- verify ------------------------------------------------------ *)

let run_verify ledger last all sarif outline =
  let entries = read_ledger ledger in
  let entries = if all then entries else trim_last (Some (max 1 last)) entries in
  let skipped = ref 0 in
  let all_diags =
    List.concat_map
      (fun (e : Telemetry.Ledger.entry) ->
        let tag =
          Printf.sprintf "%s/%s@%s" e.Telemetry.Ledger.label
            e.Telemetry.Ledger.engine e.Telemetry.Ledger.generated_at
        in
        match Analysis.Verify.entry ?outline e with
        | Error msg ->
            incr skipped;
            Printf.printf "%s: skipped (%s)\n" tag msg;
            []
        | Ok [] ->
            Printf.printf "%s: clean\n" tag;
            []
        | Ok diags ->
            Format.printf "%s:@.%a" tag Analysis.Diagnostic.pp_list diags;
            diags)
      entries
  in
  (match sarif with
  | Some path -> write_sarif ~uri:ledger path all_diags
  | None -> ());
  if !skipped = List.length entries then begin
    Printf.eprintf
      "error: no entry could be verified (none embeds placed rectangles)\n";
    exit 2
  end;
  exit (if Analysis.Diagnostic.has_errors all_diags then 1 else 0)

let verify_cmd =
  let ledger =
    Arg.(
      required
      & opt (some string) None
      & info [ "ledger" ] ~docv:"FILE"
          ~doc:
            "QoR ledger (JSONL) whose recorded placements to re-verify. \
             Each entry's rectangles and constraint obligations are \
             re-hydrated and checked from scratch.")
  in
  let last =
    Arg.(
      value & opt int 1
      & info [ "last" ] ~docv:"N"
          ~doc:"Verify the last N entries (default 1, the newest).")
  in
  let all =
    Arg.(
      value & flag
      & info [ "all" ] ~doc:"Verify every entry in the ledger.")
  in
  let sarif = sarif_arg "Write the findings as a SARIF 2.1.0 report." in
  let outline =
    Arg.(
      value
      & opt (some outline_conv) None
      & info [ "outline" ] ~docv:"WxH"
          ~doc:
            "Also check every placement against this fixed outline \
             (AL213); the ledger records no outline of its own.")
  in
  Cmd.v
    (Cmd.info "verify"
       ~doc:
         "Independently re-verify recorded placements, DRC style (exit 1 \
          on findings, 2 when nothing could be checked)")
    Term.(const run_verify $ ledger $ last $ all $ sarif $ outline)

(* ---- batch / serve: placement-as-a-service ----------------------- *)

(* Shared flags of the two service front ends. *)
let service_workers =
  workers_arg
    "Domains in the shared annealing/instantiation pool (default: \
     ANALOG_WORKERS or the available cores). The pool is spawned once and \
     reused by every request; responses do not depend on N."

let service_cache_size =
  Arg.(
    value & opt int 256
    & info [ "cache-size" ] ~docv:"N"
        ~doc:
          "Capacity of the memoizing multi-placement cache (LRU beyond \
           it).")

let service_prom =
  Arg.(
    value
    & opt (some string) None
    & info [ "prom" ] ~docv:"FILE"
        ~doc:
          "Write the service's Prometheus text exposition (hit/miss/\
           instantiation counters, latency summaries) to $(docv) on \
           exit; $(b,-) for stderr.")

let emit_prom metrics = function
  | None -> ()
  | Some "-" -> prerr_string metrics
  | Some path -> write_or_die path metrics

(* The requests of a JSONL file ("-" for stdin), blank lines skipped,
   each parsed or paired with its 1-based line number. *)
let read_requests path =
  List.concat
    (List.mapi
       (fun i line ->
         if String.trim line = "" then []
         else
           match Service.Request.of_line line with
           | Ok r -> [ Ok r ]
           | Error msg -> [ Error (i + 1, msg) ])
       (String.split_on_char '\n' (read_or_die path)))

let run_batch input output in_flight workers cache_size quiet prom =
  let lines = read_requests input in
  let bad =
    List.filter_map (function Error e -> Some e | Ok _ -> None) lines
  in
  List.iter
    (fun (n, msg) -> Printf.eprintf "line %d: bad request: %s\n%!" n msg)
    bad;
  let requests =
    List.filter_map (function Ok r -> Some r | Error _ -> None) lines
  in
  let responses, summary, metrics =
    Service.with_service ?workers ~cache_capacity:cache_size (fun svc ->
        let t0 = Unix.gettimeofday () in
        let responses = Service.run_batch ?in_flight svc requests in
        let t1 = Unix.gettimeofday () in
        let v = Service.counter_value svc in
        let summary =
          Printf.sprintf
            "served %d requests in %.2fs: %d hits, %d misses, %d evictions \
             (hit rate %.1f%%)\n"
            (v "service.requests") (t1 -. t0) (v "service.hits")
            (v "service.misses")
            (v "service.verify_evictions")
            (let total = v "service.hits" + v "service.misses" in
             if total = 0 then 0.0
             else
               100.0 *. float_of_int (v "service.hits") /. float_of_int total)
        in
        (responses, summary, Service.metrics svc))
  in
  let text =
    String.concat ""
      (List.map (fun r -> Service.Request.response_line r ^ "\n") responses)
  in
  (match output with
  | None | Some "-" -> print_string text
  | Some path -> write_or_die path text);
  if not quiet then prerr_string summary;
  emit_prom metrics prom;
  if bad <> [] then exit 1

let batch_cmd =
  let input =
    Arg.(
      value & pos 0 string "-"
      & info [] ~docv:"REQUESTS"
          ~doc:
            "JSONL request file, one JSON object per line; $(b,-) for \
             stdin. A request names a circuit — \
             {\"bench\":\"miller\"}, {\"netlist\":\"path.cir\"} or \
             {\"synthetic\":{\"n\":100,\"seed\":3}} — plus optional \
             \"outline\":[w,h], \"effort\" (quick|standard|thorough), \
             \"seed\" and \"id\".")
  in
  let output =
    Arg.(
      value
      & opt (some string) None
      & info [ "output"; "o" ] ~docv:"FILE"
          ~doc:"Write response JSONL to $(docv) instead of stdout.")
  in
  let in_flight =
    Arg.(
      value
      & opt (some int) None
      & info [ "in-flight" ] ~docv:"N"
          ~doc:
            "Process the batch in waves of $(docv) concurrent requests \
             (default: the whole batch as one wave). Within a wave, \
             misses anneal once per unique cache key and every hit \
             instantiates in parallel on the shared pool.")
  in
  let quiet =
    Arg.(value & flag & info [ "quiet"; "q" ] ~doc:"Suppress the summary.")
  in
  Cmd.v
    (Cmd.info "batch"
       ~doc:
         "Serve a JSONL request batch through the memoizing placement \
          service (responses in request order, byte-identical results \
          for identical requests)")
    Term.(
      const run_batch $ input $ output $ in_flight $ service_workers
      $ service_cache_size $ quiet $ service_prom)

let run_serve workers cache_size prom =
  let metrics =
    Service.with_service ?workers ~cache_capacity:cache_size (fun svc ->
        let rec loop () =
          match input_line stdin with
          | exception End_of_file -> ()
          | line when String.trim line = "" -> loop ()
          | line ->
              (match Service.Request.of_line line with
              | Error msg ->
                  print_string
                    (Telemetry.Json.emit
                       (Telemetry.Json.Obj
                          [ ("error", Telemetry.Json.Str msg) ]))
              | Ok req ->
                  print_string
                    (Service.Request.response_line (Service.submit svc req)));
              print_newline ();
              flush stdout;
              loop ()
        in
        loop ();
        Service.metrics svc)
  in
  emit_prom metrics prom

let serve_cmd =
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Long-lived placement service on stdin/stdout: one JSONL \
          request per line in, one response per line out (same wire \
          format as $(b,batch)). The annealing pool and the \
          multi-placement cache persist across requests, so repeated \
          or outline-varied requests are served in microseconds from \
          the cache.")
    Term.(const run_serve $ service_workers $ service_cache_size $ service_prom)

(* ---- dashboard: the flight recorder ------------------------------ *)

(* The trend panels come straight from the ledger; the convergence,
   negotiation and heatmap panels need live telemetry, so an optional
   instrumented run (--bench/--netlist, --route) feeds them; the
   service panel replays a request file through the real service,
   snapshotting the counters after every request. The rendered page is
   self-checked with the hand-rolled well-formedness checker before it
   touches disk — a malformed document is a bug here, not data. *)
let run_dashboard ledger out title last netlist bench engine seed do_route
    requests =
  let entries = trim_last last (read_ledger ledger) in
  let sink, route_iters, heatmaps =
    match (netlist, bench) with
    | None, None ->
        if do_route then begin
          prerr_endline "error: --route needs --bench NAME or --netlist FILE";
          exit 1
        end;
        (None, [], [])
    | _ ->
        let b = load_input netlist bench in
        let circuit = b.Netlist.Benchmarks.circuit in
        let hierarchy = b.Netlist.Benchmarks.hierarchy in
        let groups = Constraints.Symmetry_group.of_hierarchy hierarchy in
        let rng = Prelude.Rng.create seed in
        let telemetry = Telemetry.Sink.create () in
        let placement =
          (engine_outcome
             (Placer.Engine.run ~groups ~telemetry ~rng engine circuit
                hierarchy))
            .Placer.Placement.placement
        in
        let route_iters, heatmaps =
          if not do_route then ([], [])
          else begin
            let r =
              Route.Router.route_all ~symmetric:groups ~telemetry placement
            in
            let iters =
              List.map
                (fun (it : Route.Router.iteration) ->
                  {
                    Telemetry.Dashboard.ri_iter = it.Route.Router.it_index;
                    ri_pres_fac = it.Route.Router.it_pres_fac;
                    ri_overflow = it.Route.Router.it_overflow;
                    ri_overused = it.Route.Router.it_overused;
                    ri_ripped = it.Route.Router.it_ripped;
                    ri_pops = it.Route.Router.it_pops;
                  })
                r.Route.Router.negotiation
            in
            let s = r.Route.Router.occupancy in
            let hm =
              {
                Telemetry.Dashboard.hm_label = b.Netlist.Benchmarks.label;
                hm_cols = s.Route.Negotiate.Snapshot.cols;
                hm_rows = s.Route.Negotiate.Snapshot.rows;
                hm_capacity = s.Route.Negotiate.Snapshot.capacity;
                hm_present = s.Route.Negotiate.Snapshot.present;
                hm_history = s.Route.Negotiate.Snapshot.history;
              }
            in
            (iters, [ hm ])
          end
        in
        (Some telemetry, route_iters, heatmaps)
  in
  let service_points =
    match requests with
    | None -> []
    | Some path ->
        let lines = read_requests path in
        List.iter
          (function
            | Error (n, msg) ->
                Printf.eprintf "line %d: bad request: %s\n%!" n msg;
                exit 1
            | Ok _ -> ())
          lines;
        let requests =
          List.filter_map (function Ok r -> Some r | Error _ -> None) lines
        in
        Service.with_service (fun svc ->
            List.map
              (fun req ->
                ignore (Service.submit svc req);
                let v = Service.counter_value svc in
                {
                  Telemetry.Dashboard.sp_requests = v "service.requests";
                  sp_hits = v "service.hits";
                  sp_misses = v "service.misses";
                  sp_evictions = v "service.verify_evictions";
                  sp_neg_hits = v "service.neg_hits";
                  sp_infeasible = v "service.infeasible";
                })
              requests)
  in
  let html =
    Telemetry.Dashboard.render ?title ~entries ?sink ~route:route_iters
      ~heatmaps ~service:service_points ()
  in
  (match Telemetry.Html.check html with
  | Ok () -> ()
  | Error e ->
      Printf.eprintf "internal error: dashboard failed HTML check: %s\n" e;
      exit 2);
  write_or_die out html;
  Printf.printf "wrote %s (%d ledger entries%s%s%s)\n" out
    (List.length entries)
    (if sink <> None then ", live run" else "")
    (if heatmaps <> [] then ", routed" else "")
    (match service_points with
    | [] -> ""
    | l -> Printf.sprintf ", %d service requests" (List.length l))

let dashboard_cmd =
  let ledger =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"LEDGER"
          ~doc:
            "QoR ledger (JSONL) to render: every entry feeds the \
             per-configuration trend sparklines and the run table.")
  in
  let out =
    Arg.(
      value & opt string "dashboard.html"
      & info [ "out"; "o" ] ~docv:"FILE"
          ~doc:"Output path for the dashboard document.")
  in
  let title =
    Arg.(
      value
      & opt (some string) None
      & info [ "title" ] ~docv:"TEXT" ~doc:"Dashboard heading.")
  in
  let last = last_arg "Render only the last N entries of LEDGER." in
  let netlist =
    netlist_arg
      "Also run a live instrumented placement of this netlist: adds the SA \
       convergence, acceptance and counter panels."
  in
  let bench = bench_arg "Live-run a built-in benchmark instead of a netlist file." in
  let engine =
    engine_arg Placer.Engine.Sp
      "Engine for the live run (default sp, which carries full annealing \
       telemetry)."
  in
  let seed = seed_arg "RNG seed for the live run." in
  let route =
    route_arg
      "Route the live placement too: adds the negotiation convergence panel \
       and the occupancy / history congestion heatmaps."
  in
  let requests =
    Arg.(
      value
      & opt (some string) None
      & info [ "requests" ] ~docv:"FILE"
          ~doc:
            "Replay this JSONL request file (same wire format as \
             $(b,batch)) through the placement service and chart the \
             cache hit/miss/eviction trend per request; $(b,-) for \
             stdin.")
  in
  Cmd.v
    (Cmd.info "dashboard"
       ~doc:
         "Render the flight recorder: one self-contained HTML+SVG page \
          (no scripts, no external assets) with QoR trends from the \
          ledger, and optionally live SA convergence, route congestion \
          heatmaps and service cache telemetry. The page is checked \
          for well-formedness before it is written; a check failure \
          exits 2, so this doubles as a render gate in CI.")
    Term.(
      const run_dashboard $ ledger $ out $ title $ last $ netlist $ bench
      $ engine $ seed $ route $ requests)

let () =
  let doc = "Analog layout synthesis: topological placement and sizing" in
  exit
    (Cmd.eval
       (Cmd.group (Cmd.info "analog_place" ~version:"1.0" ~doc)
          [
            place_cmd; route_cmd; report_cmd; size_cmd; info_cmd; lint_cmd;
            verify_cmd; batch_cmd; serve_cmd; dashboard_cmd;
          ]))
