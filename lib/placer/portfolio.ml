(* Heterogeneous portfolio annealing: race the survey's topological
   representations on one problem under one cost scale.

   Every entrant — sequence-pair arena chains, flat-B*-tree arena
   chains, TCG chains, and optionally the deterministic shape-function
   enumerator — is an Anneal.Parallel.lockstep entrant whose exchange
   value is the placed list: the one form every representation can
   both produce (materialize its best) and consume (re-encode as a warm
   state). Every entrant costs through one Eval arena per chain with
   the same weights — the annealers through their packers, the
   enumerator's output through Eval.cost_placed — so best costs are
   comparable across representations. Under validate, every barrier's
   best is audited by Analysis.Verify with the race's groups.

   At each barrier the schedule materializes the globally best entrant
   and offers its placement to every entrant in order; an annealing
   entrant that is still running and strictly worse re-encodes it,
   re-costs it with its own evaluator and adopts only on strict
   improvement. A finished entrant — a frozen chain, the one-shot
   enumerator — keeps donating its best for as long as it leads. The
   schedule decides everything by slice count and entrant order, so
   the race is a pure function of the caller seed at any pool width. *)

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

   placed list -> each representation, for adoption. Geometry
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

(* ---- entrants ------------------------------------------------------

   Annealing chains and the one-shot enumerator as lockstep entrants
   whose exchange value is the placed list. *)

(* One annealing chain as an entrant. [problem] is the chain's problem
   (already holding its initial state, drawn from [rng]); [materialise]
   turns a state into a placed list, and [of_placed] re-encodes a
   donated placement into a fresh state of the chain's own
   representation. Re-encoding is lossy (packing a converted code moves
   cells), so a donation is re-costed by the chain's own evaluator and
   adopted only on strict improvement; a chain whose own best is not
   worse skips the re-encoding altogether (the schedule offers nothing
   to a finished chain). *)
let chain_entrant ~engine ~params ~materialise ~of_placed tel rng problem =
  let chain = Anneal.Sa.start ~telemetry:tel ~rng params problem in
  let extra = ref 0 in
  {
    Anneal.Parallel.tel;
    engine = Some (engine_name engine);
    step = (fun () -> Anneal.Sa.step_round chain);
    finished = (fun () -> Anneal.Sa.finished chain);
    best_cost = (fun () -> Anneal.Sa.best_cost chain);
    best = (fun () -> materialise (Anneal.Sa.best chain));
    offer =
      (fun placed cost ->
        if cost < Anneal.Sa.best_cost chain then begin
          let st = of_placed placed in
          incr extra;
          Anneal.Sa.adopt chain ~state:st ~cost:(problem.Anneal.Sa.cost st)
        end);
    effort =
      (fun () ->
        let o = Anneal.Sa.outcome_of_chain chain in
        (o.Anneal.Sa.rounds, o.Anneal.Sa.evaluated + !extra));
  }

(* The deterministic enumerator: one shot in the first slice, costed
   under the shared weights, never adopts (it cannot restart). Its
   placement is not guaranteed to mirror the race's symmetry groups
   exactly; one that does not costs infinity, so it can neither win
   nor donate. *)
let esf_entrant ~weights ~groups circuit hierarchy tel =
  let result = ref None in
  let cost = ref infinity in
  {
    Anneal.Parallel.tel;
    engine = Some (engine_name Esf);
    step =
      (fun () ->
        if Option.is_none !result then begin
          let r =
            Telemetry.Sink.time tel "esf.place" (fun () ->
                Shapefn.Combine.place ~mode:Shapefn.Combine.Esf circuit
                  hierarchy)
          in
          let placed = r.Shapefn.Combine.placed in
          let mirrored (group : G.t) =
            Result.is_ok (Constraints.Placement_check.symmetry ~group placed)
          in
          cost :=
            if List.for_all mirrored groups then
              Eval.cost_placed (Eval.create circuit) weights placed
            else infinity;
          result := Some placed
        end);
    finished = (fun () -> Option.is_some !result);
    best_cost = (fun () -> !cost);
    best = (fun () -> Option.value !result ~default:[]);
    offer = (fun _ _ -> ());
    effort = (fun () -> (0, if Option.is_none !result then 0 else 1));
  }

(* ---- the race ------------------------------------------------------ *)

let default_engines ~n ~groups ~hierarchy =
  let sa =
    match groups with
    | [] -> Sp :: Bstar :: (if n <= Seqpair.Tcg.max_cells then [ Tcg ] else [])
    | _ ->
        (* only the sequence-pair arm explores the symmetric-feasible
           subspace; racing unconstrained engines against it would
           let a violating placement win *)
        [ Sp ]
  in
  sa @ (match hierarchy with Some _ when n <= 40 -> [ Esf ] | _ -> [])

let race ?(weights = Cost.default) ?params ?(groups = []) ?pool ?workers
    ?(chains = 1) ?engines ?hierarchy ?validate ?estimator
    ?(telemetry = Telemetry.Sink.null) ~rng circuit =
  let validate =
    match validate with
    | Some v -> v
    | None -> Analysis.Invariant.enabled_from_env ()
  in
  let n = Netlist.Circuit.size circuit in
  if n = 0 then invalid_arg "Portfolio.race: empty circuit";
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
  let bstar_dims = Sa_bstar.dims_table circuit in
  let entrants =
    Array.init k (fun i ->
        let tel = Telemetry.Sink.child telemetry ~tid:(i + 1)
        and rng = Prelude.Rng.create seeds.(i) in
        let chain problem_of =
          chain_entrant ~engine:spec.(i) ~params tel rng (problem_of tel rng)
        in
        match spec.(i) with
        | Sp ->
            chain
              (Sa_seqpair.problem_of ~validate ?estimator ~weights ~groups
                 circuit)
              ~materialise:(fun st ->
                (Sa_seqpair.evaluate circuit groups st).Placement.placed)
              ~of_placed:(fun placed ->
                let sp = sp_of_placed n placed in
                let sp =
                  match groups with
                  | [] -> sp
                  | _ -> Seqpair.Symmetry.make_feasible sp groups
                in
                let rot = harmonize_rot groups (rot_of_placed circuit placed) in
                { Sa_seqpair.sp; rot })
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
            | Some h -> esf_entrant ~weights ~groups circuit h tel
            | None ->
                invalid_arg "Portfolio.race: Esf entrant needs ?hierarchy"))
  in
  (* under validate, the barrier's best placement is audited before any
     entrant may adopt it; the groups let Verify accept the symmetric
     packer's parity pad *)
  let check =
    if validate then fun placed ->
      Analysis.Invariant.raise_if_any ~context:"Portfolio exchange"
        (Analysis.Verify.placement ~groups circuit placed)
    else ignore
  in
  let w = Anneal.Parallel.lockstep ?pool ~workers ~check ~telemetry entrants in
  let results =
    List.init k (fun i ->
        let e = entrants.(i) in
        let sa_rounds, evaluated = e.Anneal.Parallel.effort () in
        {
          engine = spec.(i);
          seed = seeds.(i);
          cost = e.Anneal.Parallel.best_cost ();
          sa_rounds;
          evaluated;
        })
  in
  {
    placement = Placement.make circuit (entrants.(w).Anneal.Parallel.best ());
    cost = entrants.(w).Anneal.Parallel.best_cost ();
    winner = spec.(w);
    entrants = results;
    evaluated =
      List.fold_left (fun acc (e : entrant) -> acc + e.evaluated) 0 results;
    workers;
  }
