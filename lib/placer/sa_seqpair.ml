module G = Constraints.Symmetry_group

type state = { sp : Seqpair.Sp.t; rot : bool array }

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

let flip_rotation rng groups rot =
  let n = Array.length rot in
  let c = Prelude.Rng.int rng n in
  let rot = Array.copy rot in
  let flip c = rot.(c) <- not rot.(c) in
  (match List.find_opt (fun g -> G.mem g c) groups with
  | Some g -> (
      match G.sym g c with
      | Some partner when partner <> c ->
          flip c;
          flip partner
      | Some _ | None -> flip c)
  | None -> flip c);
  rot

(* The exact packing of a state: the symmetric packer under groups. *)
let pack circuit groups st =
  let dims = dims_of circuit st.rot in
  match groups with
  | [] -> Ok (Seqpair.Pack.pack_fast st.sp dims)
  | _ -> Seqpair.Symmetry.pack_symmetric st.sp dims groups

(* Sanitizer for ?validate mode: representation invariants plus
   Analysis.Verify over the exactly packed placement. Runs on the state
   produced by every SA move and on the global best at Parallel
   exchanges, and raises Analysis.Invariant.Violation with the
   diagnostic dump. *)
let audit ~groups circuit st =
  let n = Netlist.Circuit.size circuit in
  let rot_len =
    if Array.length st.rot = n then []
    else
      [
        Analysis.Diagnostic.error ~code:"AL101" ~subject:"rot"
          (Printf.sprintf "rotation array has length %d, circuit %d"
             (Array.length st.rot) n);
      ]
  in
  Analysis.Invariant.raise_if_any ~context:"Sa_seqpair state"
    (rot_len
    @ Analysis.Invariant.check_sp ~n st.sp
    @ Analysis.Invariant.check_sf st.sp groups);
  match pack circuit groups st with
  | Ok placed ->
      Analysis.Invariant.raise_if_any ~context:"Sa_seqpair placement"
        (Analysis.Verify.placement ~groups circuit placed)
  | Error msg ->
      Analysis.Invariant.raise_if_any ~context:"Sa_seqpair pack"
        [ Analysis.Diagnostic.error ~code:"AL102" ~subject:"symmetric pack" msg ]

(* Materialization of a state (the final best, a portfolio donation, a
   cached service candidate), off the hot path. *)
let evaluate circuit groups st =
  match pack circuit groups st with
  | Ok placed -> Placement.make circuit placed
  | Error msg -> invalid_arg ("Sa_seqpair: " ^ msg)

(* One annealing problem per chain: its own initial code drawn from the
   chain's rng, its own evaluation arena (the arena is mutable and must
   never be shared across domains) and its own telemetry sink (ditto —
   Parallel hands each chain a private child). *)
let problem_of ?(validate = false) ?estimator ~weights ~groups circuit telemetry
    rng =
  let n = Netlist.Circuit.size circuit in
  (* the factory runs per chain: each arena gets a private estimator
     closure (they carry mutable scratch and chains cross domains) *)
  let arena = Eval.create ~telemetry ?estimator:(Option.map (fun f -> f ()) estimator) circuit in
  let mv = Telemetry.Sink.register_moves telemetry [| "seqpair"; "rotation" |] in
  let init_sp =
    match groups with
    | [] -> Seqpair.Sp.random rng n
    | _ -> Seqpair.Symmetry.random_feasible rng ~n groups
  in
  let init = { sp = init_sp; rot = Array.make n false } in
  let neighbor rng st =
    if Prelude.Rng.int rng 10 < 8 then begin
      (* labels only — Moves.set draws nothing, trajectories unchanged *)
      Telemetry.Moves.set mv 0;
      let sp =
        match groups with
        | [] -> Seqpair.Moves.random_neighbor rng st.sp
        | _ -> Seqpair.Moves.random_neighbor_sf rng st.sp groups
      in
      { st with sp }
    end
    else begin
      Telemetry.Moves.set mv 1;
      { st with rot = flip_rotation rng groups st.rot }
    end
  in
  let cost st = Eval.cost_seqpair arena weights ~groups st.sp ~rot:st.rot in
  let neighbor =
    if not validate then neighbor
    else begin
      (* Debug mode: audit the initial state and the result of every
         move. When off, the closures above run untouched. *)
      audit ~groups circuit init;
      fun rng st ->
        let st' = neighbor rng st in
        audit ~groups circuit st';
        st'
    end
  in
  Anneal.Sa.persistent ~init ~neighbor ~cost

let place ?(weights = Cost.default) ?params ?(groups = []) ?workers ?chains
    ?validate ?estimator ?telemetry ~rng circuit =
  let validate =
    Option.value validate ~default:(Analysis.Invariant.enabled_from_env ())
  in
  let params =
    Option.value params
      ~default:(Anneal.Sa.default_params ~n:(Netlist.Circuit.size circuit))
  in
  let check =
    if validate then Some (fun st -> audit ~groups circuit !st) else None
  in
  let r =
    Anneal.Parallel.multi_start ?workers ?chains ?check ?telemetry
      ~engine:"sp" ~rng params
      (problem_of ~validate ?estimator ~weights ~groups circuit)
  in
  Placement.outcome_of (evaluate circuit groups !(r.Anneal.Parallel.state)) r
