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

(* Flip cell [c]'s rotation, and its mirror partner's with it: pairs
   rotate together. Its own inverse. *)
let flip plan rot c =
  rot.(c) <- not rot.(c);
  let partner = Seqpair.Symmetry.counterpart plan c in
  if partner >= 0 && partner <> c then rot.(partner) <- not rot.(partner)

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
   Parallel hands each chain a private child). The working code is
   moved and reverted in place: companion exchanges and repair through
   the chain's own symmetry plan, rotations flipped back. The arena
   packs through that same plan. *)
let problem_of ?(validate = false) ?estimator ~weights ~groups circuit telemetry
    rng =
  let n = Netlist.Circuit.size circuit in
  (* the factory runs per chain: each arena gets a private estimator
     closure (they carry mutable scratch and chains cross domains) *)
  let arena = Eval.create ~telemetry ?estimator:(Option.map (fun f -> f ()) estimator) circuit in
  let mv = Telemetry.Sink.register_moves telemetry [| "seqpair"; "rotation" |] in
  let plan = Seqpair.Symmetry.plan ~n groups in
  let log = Seqpair.Moves.undo_log n in
  let sp = Seqpair.Sp.random rng n in
  Seqpair.Symmetry.repair plan sp;
  let state = { sp; rot = Array.make n false } in
  (* the rotated cell of the last move, -1 after a code move *)
  let flipped = ref (-1) in
  let propose rng st =
    if Prelude.Rng.int rng 10 < 8 then begin
      (* labels only — Moves.set draws nothing, trajectories unchanged *)
      Telemetry.Moves.set mv 0;
      flipped := -1;
      match groups with
      | [] -> Seqpair.Moves.propose rng st.sp log
      | _ -> Seqpair.Moves.propose_sf rng plan st.sp log
    end
    else begin
      Telemetry.Moves.set mv 1;
      let c = Prelude.Rng.int rng n in
      flip plan st.rot c;
      flipped := c
    end
  in
  let undo st =
    if !flipped >= 0 then flip plan st.rot !flipped
    else Seqpair.Moves.undo st.sp log;
    flipped := -1
  in
  let sym = match groups with [] -> None | _ -> Some plan in
  let cost st = Eval.cost_seqpair arena weights ?plan:sym st.sp ~rot:st.rot in
  let copy st = { sp = Seqpair.Sp.copy st.sp; rot = Array.copy st.rot } in
  let blit ~src ~dst =
    Seqpair.Sp.blit ~src:src.sp ~dst:dst.sp;
    Array.blit src.rot 0 dst.rot 0 n
  in
  if not validate then { Anneal.Sa.state; propose; undo; cost; copy; blit }
  else begin
    (* Debug mode: audit the initial state and the result of every
       move. When off, the closures above run untouched. *)
    audit ~groups circuit state;
    let propose rng st =
      propose rng st;
      audit ~groups circuit st
    in
    { Anneal.Sa.state; propose; undo; cost; copy; blit }
  end

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
    if validate then Some (audit ~groups circuit) else None
  in
  let r =
    Anneal.Parallel.multi_start ?workers ?chains ?check ?telemetry
      ~engine:"sp" ~rng params
      (problem_of ~validate ?estimator ~weights ~groups circuit)
  in
  Placement.outcome_of (evaluate circuit groups r.Anneal.Parallel.state) r
