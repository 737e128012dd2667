(* Heterogeneous portfolio annealing: race the survey's topological
   representations on one problem under one cost scale.

   Every entrant — sequence-pair arena chains, flat-B*-tree arena
   chains, TCG chains, and optionally the deterministic shape-function
   enumerator — runs free on the persistent domain pool and trades
   solutions through an elite pool whose currency is the placed list:
   the one form every representation can both produce (materialize its
   best) and consume (re-encode as a warm state). All annealing
   entrants cost through Cost.compose with the same weights (the arena
   evaluators are bit-identical to the list path, tested), and the
   enumerator's output is costed with the same weights at publish
   time, so elite costs are comparable across representations.

   Donation: when a chain pulls an elite entry that beats its own
   best, it re-encodes the placement into its own representation,
   re-costs it with its own evaluator (re-encoding is lossy — packing
   a converted code moves cells), and adopts only on strict
   improvement. A finished (frozen) entrant's final publish stays in
   the pool, so losing engines donate restart seeds to the survivors
   for free.

   With ?bar, the first entrant to publish a cost <= bar wins and
   raises the stop flag; everyone else exits at its next slice
   boundary. The race is free-running only: outcomes depend on domain
   interleaving (use the engines' deterministic mode when CI needs
   bit-identical results). With workers:1 the pool degenerates to
   sequential execution in entrant order, which is deterministic — the
   property the tests pin down. *)

module G = Constraints.Symmetry_group

type engine = Sp | Bstar | Tcg | Esf

let engine_name = function
  | Sp -> "sp"
  | Bstar -> "bstar"
  | Tcg -> "tcg"
  | Esf -> "esf"

type entrant = {
  engine : engine;
  seed : int;
  cost : float;
  sa_rounds : int;
  evaluated : int;
}

type outcome = {
  placement : Placement.t;
  cost : float;
  winner : engine;
  entrants : entrant list;
  evaluated : int;
  workers : int;
}

(* ---- re-encoding converters ----------------------------------------

   placed list -> each representation, for elite adoption. Geometry
   drives the codes; centers are kept in doubled coordinates to stay
   in integers. *)

let rot_of_placed circuit placed =
  let n = Netlist.Circuit.size circuit in
  let rot = Array.make n false in
  List.iter
    (fun (p : Geometry.Transform.placed) ->
      let w, h = Netlist.Circuit.dims circuit p.cell in
      if p.rect.Geometry.Rect.w <> w || p.rect.Geometry.Rect.h <> h then
        rot.(p.cell) <- true)
    placed;
  rot

(* Symmetry pairs must rotate together; copy each cell's flag onto its
   partner so a donated rotation vector is pair-consistent. *)
let harmonize_rot groups rot =
  Array.iteri
    (fun c rc ->
      match List.find_opt (fun g -> G.mem g c) groups with
      | None -> ()
      | Some g -> (
          match G.sym g c with
          | Some partner when partner > c -> rot.(partner) <- rc
          | Some _ | None -> ()))
    rot;
  rot

(* Cells sorted along the two diagonals of the center grid: a before b
   in both sequences iff a is left of b, a after b in alpha but before
   in beta iff a is below b — exactly this repo's Sp convention. *)
let sp_of_placed n placed =
  let keys f =
    let a = Array.make n (0, 0) in
    List.iter
      (fun (p : Geometry.Transform.placed) ->
        let r = p.rect in
        let cx2 = (2 * r.Geometry.Rect.x) + r.Geometry.Rect.w in
        let cy2 = (2 * r.Geometry.Rect.y) + r.Geometry.Rect.h in
        a.(p.cell) <- (f cx2 cy2, p.cell))
      placed;
    Array.sort compare a;
    Seqpair.Perm.of_array (Array.map snd a)
  in
  let alpha = keys (fun cx cy -> cx - cy) in
  let beta = keys (fun cx cy -> cx + cy) in
  Seqpair.Sp.make ~alpha ~beta

(* Bottom-up rows of equal bottom edge. Each row is a left-skewed
   chain (cells side by side); the rows above hang off the row head's
   right child (stacked on top). Coarse, but a valid warm start whose
   packing roughly reproduces the donated geometry. *)
let tree_of_placed placed =
  let sorted =
    List.sort
      (fun (a : Geometry.Transform.placed) (b : Geometry.Transform.placed) ->
        compare
          (a.rect.Geometry.Rect.y, a.rect.Geometry.Rect.x, a.cell)
          (b.rect.Geometry.Rect.y, b.rect.Geometry.Rect.x, b.cell))
      placed
  in
  (* fold ascending (y, x) into rows; result lists the TOP row first,
     each row's cells rightmost-first *)
  let rows_top_first =
    List.fold_left
      (fun rows (p : Geometry.Transform.placed) ->
        match rows with
        | (y, cells) :: rest when y = p.rect.Geometry.Rect.y ->
            (y, p.cell :: cells) :: rest
        | _ -> (p.rect.Geometry.Rect.y, [ p.cell ]) :: rows)
      [] sorted
  in
  let rows_bottom_first =
    List.rev_map (fun (_, cells) -> List.rev cells) rows_top_first
  in
  (* Tree.row roots have no right child, so the record update never
     clobbers structure. *)
  let rec stack = function
    | [] -> invalid_arg "Portfolio: empty placement"
    | [ row ] -> Bstar.Tree.row row
    | row :: above ->
        { (Bstar.Tree.row row) with Bstar.Tree.right = Some (stack above) }
  in
  stack rows_bottom_first

(* ---- uniform entrant interface -------------------------------------

   Annealing chains and the one-shot enumerator behind one closure
   record the race loop can drive. *)

type runner = {
  r_step : int -> unit;  (* advance up to k rounds *)
  r_finished : unit -> bool;
  r_cost : unit -> float;
  r_placed : unit -> Geometry.Transform.placed list;
  r_adopt : Geometry.Transform.placed list -> unit;
  r_rounds : unit -> int;
  r_evaluated : unit -> int;
}

let steps ~finished ~step k =
  let budget = ref k in
  while !budget > 0 && not (finished ()) do
    step ();
    decr budget
  done

(* One annealing chain behind the runner record. [problem] is the
   chain's problem (already holding its initial state, drawn from
   [rng]); [materialise] turns a state into the placed list the elite
   pool trades in, and [of_placed] re-encodes a donated placement into
   a fresh state of the chain's own representation. *)
let chain_runner ~params ~materialise ~of_placed tel rng problem =
  let chain = Anneal.Sa.start ~telemetry:tel ~rng params problem in
  let finished () = Anneal.Sa.finished chain in
  let extra = ref 0 in
  {
    r_step =
      (fun k -> steps k ~finished ~step:(fun () -> Anneal.Sa.step_round chain));
    r_finished = finished;
    r_cost = (fun () -> Anneal.Sa.best_cost chain);
    r_placed = (fun () -> materialise (Anneal.Sa.best chain));
    r_adopt =
      (fun placed ->
        let st = of_placed placed in
        incr extra;
        Anneal.Sa.adopt chain ~state:st ~cost:(problem.Anneal.Sa.cost st));
    r_rounds = (fun () -> (Anneal.Sa.outcome_of_chain chain).Anneal.Sa.rounds);
    r_evaluated =
      (fun () ->
        (Anneal.Sa.outcome_of_chain chain).Anneal.Sa.evaluated + !extra);
  }

(* The deterministic enumerator: one shot, no adoption (it cannot
   restart), publishes its result under the shared cost scale. *)
let esf_runner ~weights circuit hierarchy tel =
  let result = ref None in
  let cost = ref infinity in
  {
    r_step =
      (fun _ ->
        if Option.is_none !result then begin
          let r =
            Telemetry.Sink.time tel "esf.place" (fun () ->
                Shapefn.Combine.place ~mode:Shapefn.Combine.Esf circuit
                  hierarchy)
          in
          cost :=
            Cost.evaluate weights
              (Placement.make circuit r.Shapefn.Combine.placed);
          result := Some r.Shapefn.Combine.placed
        end);
    r_finished = (fun () -> Option.is_some !result);
    r_cost = (fun () -> !cost);
    r_placed =
      (fun () -> match !result with Some p -> p | None -> []);
    r_adopt = (fun _ -> ());
    r_rounds = (fun () -> 0);
    r_evaluated = (fun () -> if Option.is_none !result then 0 else 1);
  }

(* ---- the race ------------------------------------------------------ *)

let default_engines ~n ~groups ~hierarchy =
  let sa =
    match groups with
    | [] -> Sp :: Bstar :: (if n <= 62 then [ Tcg ] else [])
    | _ ->
        (* only the sequence-pair arm explores the symmetric-feasible
           subspace; racing unconstrained engines against it would
           let a violating placement win *)
        [ Sp ]
  in
  sa @ (match hierarchy with Some _ when n <= 40 -> [ Esf ] | _ -> [])

let race ?(weights = Cost.default) ?params ?(groups = []) ?pool ?workers
    ?(chains = 1) ?engines ?hierarchy ?bar ?(exchange_every = 32) ?validate
    ?(feasibility_check = false) ?outline ?estimator
    ?(telemetry = Telemetry.Sink.null) ~rng circuit =
  let validate =
    match validate with
    | Some v -> v
    | None -> Analysis.Invariant.enabled_from_env ()
  in
  let n = Netlist.Circuit.size circuit in
  if n = 0 then invalid_arg "Portfolio.race: empty circuit";
  if feasibility_check then begin
    (* prove infeasibility before burning any annealing rounds; the
       prover's errors are engine-independent, so no entrant could
       have succeeded *)
    let proofs =
      Analysis.Feasibility.check ~groups ?hierarchy ?outline circuit
      |> List.filter (fun (d : Analysis.Diagnostic.t) ->
             d.Analysis.Diagnostic.severity = Analysis.Diagnostic.Error)
    in
    Analysis.Invariant.raise_if_any ~context:"Portfolio.race: infeasible input"
      proofs
  end;
  let params =
    match params with Some p -> p | None -> Anneal.Sa.default_params ~n
  in
  let engines =
    match engines with
    | Some [] -> invalid_arg "Portfolio.race: empty engine list"
    | Some es -> es
    | None -> default_engines ~n ~groups ~hierarchy
  in
  let chains = max 1 chains in
  let spec =
    Array.of_list
      (List.concat_map
         (function
           | Esf -> [ Esf ]  (* deterministic: one entrant is enough *)
           | e -> List.init chains (fun _ -> e))
         engines)
  in
  let k = Array.length spec in
  (* seeds drawn from the caller's rng in entrant order: deterministic
     for a fixed caller seed *)
  let seeds = Array.init k (fun _ -> Prelude.Rng.int rng 0x3FFFFFFF) in
  let workers =
    match pool with
    | Some p -> Anneal.Pool.workers p
    | None -> Anneal.Parallel.width ?workers k
  in
  let slice = if exchange_every <= 0 then max_int else exchange_every in
  let tels =
    Array.init k (fun i -> Telemetry.Sink.child telemetry ~tid:(i + 1))
  in
  let slice_us =
    Array.init k (fun i -> Telemetry.Sink.counter tels.(i) "chain.slice_us")
  in
  let publishes =
    Array.init k (fun i -> Telemetry.Sink.counter tels.(i) "chain.publishes")
  in
  let pulls =
    Array.init k (fun i -> Telemetry.Sink.counter tels.(i) "chain.pulls")
  in
  let bstar_dims = Sa_bstar.dims_table circuit in
  let runners =
    Array.init k (fun i ->
        let tel = tels.(i) and rng = Prelude.Rng.create seeds.(i) in
        let chain problem_of =
          chain_runner ~params tel rng (problem_of tel rng)
        in
        match spec.(i) with
        | Sp ->
            chain
              (Sa_seqpair.problem_of ~validate ?estimator ~weights ~groups
                 circuit)
              ~materialise:(fun st ->
                (Sa_seqpair.evaluate circuit groups !st).Placement.placed)
              ~of_placed:(fun placed ->
                let sp = sp_of_placed n placed in
                let sp =
                  match groups with
                  | [] -> sp
                  | _ -> Seqpair.Symmetry.make_feasible sp groups
                in
                let rot = harmonize_rot groups (rot_of_placed circuit placed) in
                ref { Sa_seqpair.sp; rot })
        | Bstar ->
            chain
              (Sa_bstar.problem_of ~validate ?estimator ~weights circuit)
              ~materialise:(fun st ->
                (Sa_bstar.evaluate circuit bstar_dims st).Placement.placed)
              ~of_placed:(fun placed ->
                {
                  Sa_bstar.flat = Bstar.Flat.of_tree (tree_of_placed placed);
                  rot = rot_of_placed circuit placed;
                  last = Sa_bstar.L_none;
                })
        | Tcg ->
            chain
              (Sa_tcg.problem_of ~validate ?estimator ~weights circuit)
              ~materialise:(fun st ->
                (Sa_tcg.evaluate circuit !st).Placement.placed)
              ~of_placed:(fun placed ->
                ref
                  {
                    Sa_tcg.tcg = Seqpair.Tcg.of_seqpair (sp_of_placed n placed);
                    rot = rot_of_placed circuit placed;
                  })
        | Esf -> (
            match hierarchy with
            | Some h -> esf_runner ~weights circuit h tel
            | None ->
                invalid_arg "Portfolio.race: Esf entrant needs ?hierarchy"))
  in
  let audit_published =
    if validate then fun placed ->
      Analysis.Invariant.raise_if_any ~context:"Portfolio publish"
        (Analysis.Invariant.audit_placed ~n placed)
    else fun _ -> ()
  in
  let elite = Anneal.Elite.create ~stripes:(min 8 k) () in
  let stop = Atomic.make false in
  let first_past = Atomic.make (-1) in
  (* reuse a caller-owned pool when given (the placement service keeps
     one across requests), else create and tear down a private one *)
  (match pool with
   | Some p -> fun f -> f p
   | None -> fun f -> Anneal.Pool.with_pool ~workers f)
    (fun pool ->
      let job i () =
        let r = runners.(i) in
        let last_published = ref infinity in
        let publish () =
          let c = r.r_cost () in
          if c < !last_published then begin
            last_published := c;
            let placed = r.r_placed () in
            audit_published placed;
            ignore (Anneal.Elite.publish elite ~origin:i ~cost:c placed);
            Telemetry.Counter.incr publishes.(i);
            match bar with
            | Some b when c <= b ->
                ignore (Atomic.compare_and_set first_past (-1) i);
                Atomic.set stop true
            | _ -> ()
          end
        in
        while
          (not (r.r_finished ()))
          && (not (Atomic.get stop))
          && not (Anneal.Pool.failed pool)
        do
          let t0 = Telemetry.Sink.span_begin tels.(i) in
          r.r_step slice;
          let t1 = Telemetry.Sink.lap tels.(i) "chain.slice" t0 in
          Telemetry.Counter.add slice_us.(i)
            (int_of_float ((t1 -. t0) *. 1e6));
          publish ();
          match Anneal.Elite.pull elite ~than:(r.r_cost ()) with
          | Some e ->
              r.r_adopt e.Anneal.Elite.state;
              Telemetry.Counter.incr pulls.(i)
          | None -> ()
        done;
        publish ()
      in
      for i = 0 to k - 1 do
        Anneal.Pool.submit pool (job i)
      done;
      Anneal.Pool.drain pool);
  let entrants =
    List.init k (fun i ->
        {
          engine = spec.(i);
          seed = seeds.(i);
          cost = runners.(i).r_cost ();
          sa_rounds = runners.(i).r_rounds ();
          evaluated = runners.(i).r_evaluated ();
        })
  in
  List.iteri
    (fun i (e : entrant) ->
      Anneal.Parallel.record_chain_qor tels.(i)
        ~engine:(engine_name e.engine) ~mode:"async" ~best_cost:e.cost
        ~rounds:e.sa_rounds ~evaluated:e.evaluated ())
    entrants;
  Array.iter (Telemetry.Sink.absorb telemetry) tels;
  match Anneal.Elite.best elite with
  | None ->
      (* every entrant was stopped before its first publish — cannot
         happen: the stop flag is only ever raised after a publish *)
      invalid_arg "Portfolio.race: no entrant published a solution"
  | Some best ->
      let widx =
        match Atomic.get first_past with
        | -1 -> best.Anneal.Elite.origin
        | i -> i
      in
      {
        placement = Placement.make circuit best.Anneal.Elite.state;
        cost = best.Anneal.Elite.cost;
        winner = spec.(widx);
        entrants;
        evaluated =
          List.fold_left (fun acc (e : entrant) -> acc + e.evaluated) 0 entrants;
        workers;
      }
