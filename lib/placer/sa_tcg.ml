type state = { tcg : Seqpair.Tcg.t; rot : bool array }

type outcome = Placement.outcome = {
  placement : Placement.t;
  cost : float;
  sa_rounds : int;
  evaluated : int;
  workers : int;
  chains : int;
}

let evaluate circuit st =
  let dims c =
    let w, h = Netlist.Circuit.dims circuit c in
    if st.rot.(c) then (h, w) else (w, h)
  in
  Placement.make circuit (Seqpair.Tcg.pack st.tcg dims)

(* Sanitizer for ?validate mode: there is no structural TCG checker
   (closure is maintained by construction in Seqpair.Tcg), so the
   audit packs the graph and checks the placement. *)
let audit circuit st =
  let n = Netlist.Circuit.size circuit in
  let dims c =
    let w, h = Netlist.Circuit.dims circuit c in
    if st.rot.(c) then (h, w) else (w, h)
  in
  Analysis.Invariant.raise_if_any ~context:"Sa_tcg placement"
    (Analysis.Invariant.audit_placed ~n (Seqpair.Tcg.pack st.tcg dims))

(* One annealing problem per chain, as Sa_seqpair.problem_of: private
   initial graph drawn from the chain's rng, private telemetry sink.
   The TCG arm evaluates through the list path; a single enclosing
   span still puts its evaluation cost on the trace. *)
let problem_of ?(validate = false) ?estimator ~weights circuit telemetry rng =
  let n = Netlist.Circuit.size circuit in
  let mv = Telemetry.Sink.register_moves telemetry [| "tcg"; "rotation" |] in
  (* the TCG arm evaluates through the list path; with a routability
     weight the congestion estimate reads per-cell geometry copied
     from the materialized placement into per-chain arrays *)
  let route_term =
    match estimator with
    | Some f when weights.Cost.routability <> 0.0 ->
        let est = f () in
        let xs = Array.make (max 1 n) 0
        and ys = Array.make (max 1 n) 0
        and ws = Array.make (max 1 n) 0
        and hs = Array.make (max 1 n) 0 in
        fun (p : Placement.t) ->
          List.iter
            (fun (pl : Geometry.Transform.placed) ->
              let r = pl.Geometry.Transform.rect in
              let c = pl.Geometry.Transform.cell in
              xs.(c) <- r.Geometry.Rect.x;
              ys.(c) <- r.Geometry.Rect.y;
              ws.(c) <- r.Geometry.Rect.w;
              hs.(c) <- r.Geometry.Rect.h)
            p.Placement.placed;
          est ~x:xs ~y:ys ~w:ws ~h:hs
    | _ -> fun _ -> 0.0
  in
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
  let cost st =
    Telemetry.Sink.time telemetry "eval.cost" (fun () ->
        let p = evaluate circuit st in
        let route = route_term p in
        Cost.compose_routed weights ~route ~width:(Placement.width p)
          ~height:(Placement.height p) ~hpwl:(Placement.hpwl p))
  in
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
