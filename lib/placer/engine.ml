type t = Sp | Bstar | Tcg | Hbstar | Esf | Rsf | Slicing

let all = [ Sp; Bstar; Tcg; Hbstar; Esf; Rsf; Slicing ]

let name = function
  | Sp -> "sp"
  | Bstar -> "bstar"
  | Tcg -> "tcg"
  | Hbstar -> "hbstar"
  | Esf -> "esf"
  | Rsf -> "rsf"
  | Slicing -> "slicing"

let of_string = function
  | "seqpair" -> Some Sp
  | s -> List.find_opt (fun e -> String.equal (name e) s) all

let annealed = function
  | Sp | Bstar | Tcg | Hbstar -> true
  | Esf | Rsf | Slicing -> false

(* One-shot engines hand back placed cells; cost them on the common
   scale so every ledger entry carries a comparable figure. *)
let one_shot ~weights circuit placed =
  {
    Placement.placement = Placement.make circuit placed;
    cost = Eval.cost_placed (Eval.create circuit) weights placed;
    sa_rounds = 0;
    evaluated = 0;
    workers = 1;
    chains = 1;
  }

let run ?(weights = Cost.default) ?(groups = []) ?workers ?chains ?validate
    ?estimator ?telemetry ~rng engine circuit hierarchy =
  match engine with
  | Sp ->
      Sa_seqpair.place ~weights ~groups ?workers ?chains ?validate ?estimator
        ?telemetry ~rng circuit
  | Bstar ->
      Sa_bstar.place ~weights ?workers ?chains ?validate ?estimator ?telemetry
        ~rng circuit
  | Tcg ->
      Sa_tcg.place ~weights ?workers ?chains ?validate ?estimator ?telemetry
        ~rng circuit
  | Slicing -> Slicing.place ~weights ~rng circuit
  | Hbstar ->
      Sa_hbstar.place ~weights ?workers ?chains ?validate ?estimator
        ?telemetry ~rng circuit hierarchy
  | Esf ->
      one_shot ~weights circuit
        (Shapefn.Combine.place ~mode:Shapefn.Combine.Esf circuit hierarchy)
          .Shapefn.Combine.placed
  | Rsf ->
      one_shot ~weights circuit
        (Shapefn.Combine.place ~mode:Shapefn.Combine.Rsf circuit hierarchy)
          .Shapefn.Combine.placed

let entry ?routed_wl ?route_overflow ?route_failed ?route_iterations ~groups
    ~hierarchy ~telemetry ~label ~engine ~seed ~wall_s (o : Placement.outcome)
    =
  let move_rates =
    Telemetry.Qor.move_rates_of_counters (Telemetry.Sink.counters telemetry)
  in
  let qor =
    Qor.extract ~groups ~hierarchy ~move_rates ?routed_wl ?route_overflow
      ?route_failed ?route_iterations ~cost:o.cost ~wall_s
      ~sa_rounds:o.sa_rounds ~evaluated:o.evaluated o.placement
  in
  let chain_qors =
    List.filter
      (fun (q : Telemetry.Qor.t) -> String.equal q.Telemetry.Qor.kind "chain")
      (Telemetry.Sink.qors telemetry)
  in
  Telemetry.Ledger.make ~chain_qors ~placement:(Qor.rects o.placement) ~label
    ~netlist_hash:(Netlist.Circuit.digest o.placement.Placement.circuit)
    ~engine ~seed
    ~schedule:(Anneal.Schedule.to_string Anneal.Schedule.default)
    ~workers:o.workers ~chains:o.chains ~qor ()
