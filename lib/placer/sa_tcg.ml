type state = { tcg : Seqpair.Tcg.t; rot : bool array }

type outcome = Placement.outcome = {
  placement : Placement.t;
  cost : float;
  sa_rounds : int;
  evaluated : int;
  workers : int;
  chains : int;
}

let dims_of circuit rot c =
  let w, h = Netlist.Circuit.dims circuit c in
  if rot.(c) then (h, w) else (w, h)

let pack circuit st = Seqpair.Tcg.pack st.tcg (dims_of circuit st.rot)
let evaluate circuit st = Placement.make circuit (pack circuit st)

(* Sanitizer for ?validate mode: there is no structural TCG checker
   (closure is maintained by construction in Seqpair.Tcg), so the
   audit packs the graph and verifies the placement. *)
let audit circuit st =
  Analysis.Invariant.raise_if_any ~context:"Sa_tcg placement"
    (Analysis.Verify.placement circuit (pack circuit st))

(* One annealing problem per chain, as Sa_seqpair.problem_of: private
   initial graph drawn from the chain's rng, private arena and
   telemetry sink. The graph packs to a placed list, which the arena
   costs. *)
let problem_of ?(validate = false) ?estimator ~weights circuit telemetry rng =
  let n = Netlist.Circuit.size circuit in
  let arena =
    Eval.create ~telemetry ?estimator:(Option.map (fun f -> f ()) estimator)
      circuit
  in
  let mv = Telemetry.Sink.register_moves telemetry [| "tcg"; "rotation" |] in
  let init =
    {
      tcg = Seqpair.Tcg.of_seqpair (Seqpair.Sp.random rng n);
      rot = Array.make n false;
    }
  in
  let neighbor rng st =
    if Prelude.Rng.int rng 10 < 8 then begin
      Telemetry.Moves.set mv 0;
      { st with tcg = Seqpair.Tcg.random_neighbor rng st.tcg }
    end
    else begin
      Telemetry.Moves.set mv 1;
      let rot = Array.copy st.rot in
      let c = Prelude.Rng.int rng n in
      rot.(c) <- not rot.(c);
      { st with rot }
    end
  in
  let cost st = Eval.cost_placed arena weights (pack circuit st) in
  let neighbor =
    if not validate then neighbor
    else begin
      audit circuit init;
      fun rng st ->
        let st' = neighbor rng st in
        audit circuit st';
        st'
    end
  in
  Anneal.Sa.persistent ~init ~neighbor ~cost

let place ?(weights = Cost.default) ?params ?workers ?chains ?validate
    ?estimator ?telemetry ~rng circuit =
  let validate =
    Option.value validate ~default:(Analysis.Invariant.enabled_from_env ())
  in
  let params =
    Option.value params
      ~default:(Anneal.Sa.default_params ~n:(Netlist.Circuit.size circuit))
  in
  let check = if validate then Some (fun st -> audit circuit !st) else None in
  let r =
    Anneal.Parallel.multi_start ?workers ?chains ?check ?telemetry
      ~engine:"tcg" ~rng params
      (problem_of ~validate ?estimator ~weights circuit)
  in
  Placement.outcome_of (evaluate circuit !(r.Anneal.Parallel.state)) r
