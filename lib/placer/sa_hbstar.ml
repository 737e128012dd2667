(* The HB*-tree annealer: Bstar.Hbstar's state, move and packer on the
   same chain scaffolding as Sa_tcg — one persistent problem per chain,
   costed by the chain's Eval arena over the packed placement, run on
   Anneal.Parallel.multi_start. The one HB*-specific term is the
   proximity penalty. *)

module H = Netlist.Hierarchy

type outcome = Placement.outcome = {
  placement : Placement.t;
  cost : float;
  sa_rounds : int;
  evaluated : int;
  workers : int;
  chains : int;
}

let proximity_penalty = 1e7

(* leaf members of every proximity node *)
let proximity_groups hierarchy =
  H.constraint_nodes hierarchy
  |> List.filter_map (fun (_, kind, leaves) ->
         match kind with
         | H.Proximity -> Some leaves
         | H.Free | H.Symmetry | H.Common_centroid -> None)

let disconnected groups placed =
  List.length
    (List.filter
       (fun members ->
         Result.is_error (Constraints.Placement_check.proximity ~members placed))
       groups)

(* Sanitizer for ?validate mode: the packer builds every level from
   its own tree, so the audit verifies the packed placement against
   the hierarchy's symmetry groups, as Sa_tcg.audit does. *)
let audit circuit groups st =
  Analysis.Invariant.raise_if_any ~context:"Sa_hbstar placement"
    (Analysis.Verify.placement ~groups circuit (Bstar.Hbstar.pack st))

(* One annealing problem per chain, as Sa_tcg.problem_of: private
   initial trees drawn from the chain's rng, private arena and
   telemetry sink. *)
let problem_of ?(validate = false) ?estimator ?halo ~weights circuit hierarchy
    telemetry rng =
  let arena =
    Eval.create ~telemetry ?estimator:(Option.map (fun f -> f ()) estimator)
      circuit
  in
  let mv = Telemetry.Sink.register_moves telemetry [| "tree" |] in
  let prox = proximity_groups hierarchy in
  let init = Bstar.Hbstar.initial ?halo rng circuit hierarchy in
  let neighbor rng st =
    Telemetry.Moves.set mv 0;
    Bstar.Hbstar.perturb rng st
  in
  let cost st =
    let placed = Bstar.Hbstar.pack st in
    Eval.cost_placed arena weights placed
    +. (proximity_penalty *. float_of_int (disconnected prox placed))
  in
  let neighbor =
    if not validate then neighbor
    else begin
      let groups = Constraints.Symmetry_group.of_hierarchy hierarchy in
      audit circuit groups init;
      fun rng st ->
        let st' = neighbor rng st in
        audit circuit groups st';
        st'
    end
  in
  Anneal.Sa.persistent ~init ~neighbor ~cost

let place ?(weights = Cost.default) ?params ?halo ?workers ?chains ?validate
    ?estimator ?telemetry ~rng circuit hierarchy =
  let validate =
    Option.value validate ~default:(Analysis.Invariant.enabled_from_env ())
  in
  let params =
    Option.value params
      ~default:(Anneal.Sa.default_params ~n:(Netlist.Circuit.size circuit))
  in
  let check =
    if validate then
      let groups = Constraints.Symmetry_group.of_hierarchy hierarchy in
      Some (fun st -> audit circuit groups !st)
    else None
  in
  let r =
    Anneal.Parallel.multi_start ?workers ?chains ?check ?telemetry
      ~engine:"hbstar" ~rng params
      (problem_of ~validate ?estimator ?halo ~weights circuit hierarchy)
  in
  Placement.outcome_of
    (Placement.make circuit (Bstar.Hbstar.pack !(r.Anneal.Parallel.state)))
    r
