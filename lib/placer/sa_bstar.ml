(* The B*-tree annealer on the in-place engine: one flat-array tree and
   rotation vector per chain, mutated by O(1) perturbations and
   reverted in O(1) on rejection ({!Anneal.Sa.problem}), with costs
   through the arena's contour packer ({!Eval.cost_bstar}). Nothing on
   the hot path allocates. The pointer {!Bstar.Tree} representation is
   only used to seed the initial state and to materialize the final
   best placement. *)

type state = {
  flat : Bstar.Flat.t;
  rot : bool array;
  mutable last : last_move;  (* what [propose] did, for [undo] *)
}

and last_move = L_none | L_tree of Bstar.Flat.undo | L_rot of int

type outcome = Placement.outcome = {
  placement : Placement.t;
  cost : float;
  sa_rounds : int;
  evaluated : int;
  workers : int;
  chains : int;
}

(* Per-cell dimensions for both orientations, read once from the
   circuit: row 0 unrotated, row 1 rotated. *)
let dims_table circuit =
  let n = Netlist.Circuit.size circuit in
  let tbl = Array.init 2 (fun _ -> Array.make (max 1 n) (0, 0)) in
  for c = 0 to n - 1 do
    let w, h = Netlist.Circuit.dims circuit c in
    tbl.(0).(c) <- (w, h);
    tbl.(1).(c) <- (h, w)
  done;
  tbl

let dims_of tbl rot c = tbl.(if rot.(c) then 1 else 0).(c)

let evaluate circuit tbl st =
  let tree = Bstar.Flat.to_tree st.flat in
  Placement.make circuit (Bstar.Tree.pack tree (dims_of tbl st.rot))

(* Sanitizer for ?validate mode: flat-tree well-formedness plus
   Analysis.Verify over the contour-packed placement; see
   Sa_seqpair.audit. *)
let audit circuit tbl st =
  let n = Netlist.Circuit.size circuit in
  let len_errs =
    (if Array.length st.rot = n then []
     else
       [
         Analysis.Diagnostic.error ~code:"AL101" ~subject:"rot"
           (Printf.sprintf "rotation array has length %d, circuit %d"
              (Array.length st.rot) n);
       ])
    @
    if Bstar.Flat.size st.flat = n then []
    else
      [
        Analysis.Diagnostic.error ~code:"AL103" ~subject:"flat b*-tree"
          (Printf.sprintf "tree has %d nodes, circuit %d"
             (Bstar.Flat.size st.flat) n);
      ]
  in
  Analysis.Invariant.raise_if_any ~context:"Sa_bstar state"
    (len_errs @ Analysis.Invariant.check_flat st.flat);
  let tree = Bstar.Flat.to_tree st.flat in
  Analysis.Invariant.raise_if_any ~context:"Sa_bstar placement"
    (Analysis.Verify.placement circuit
       (Bstar.Tree.pack tree (dims_of tbl st.rot)))

let problem_of ?(validate = false) ?estimator ~weights circuit telemetry rng =
  let n = Netlist.Circuit.size circuit in
  (* per-chain estimator closure, as Sa_seqpair.problem_of *)
  let arena = Eval.create ~telemetry ?estimator:(Option.map (fun f -> f ()) estimator) circuit in
  let mv = Telemetry.Sink.register_moves telemetry [| "tree"; "rotation" |] in
  let tbl = dims_table circuit in
  let state =
    {
      flat = Bstar.Flat.of_tree (Bstar.Tree.random rng (List.init n Fun.id));
      rot = Array.make n false;
      last = L_none;
    }
  in
  (* 70/30 structural/rotation mix, as the list-path annealer used *)
  let propose rng st =
    if Prelude.Rng.int rng 10 < 7 then begin
      Telemetry.Moves.set mv 0;
      st.last <- L_tree (Bstar.Flat.perturb rng st.flat)
    end
    else begin
      Telemetry.Moves.set mv 1;
      let c = Prelude.Rng.int rng n in
      st.rot.(c) <- not st.rot.(c);
      st.last <- L_rot c
    end
  in
  let undo st =
    (match st.last with
    | L_none -> ()
    | L_tree u -> Bstar.Flat.undo st.flat u
    | L_rot c -> st.rot.(c) <- not st.rot.(c));
    st.last <- L_none
  in
  let cost st = Eval.cost_bstar arena weights st.flat ~rot:st.rot in
  let copy st =
    { flat = Bstar.Flat.copy st.flat; rot = Array.copy st.rot; last = L_none }
  in
  let blit ~src ~dst =
    Bstar.Flat.blit ~src:src.flat ~dst:dst.flat;
    Array.blit src.rot 0 dst.rot 0 n;
    dst.last <- L_none
  in
  if not validate then { Anneal.Sa.state; propose; undo; cost; copy; blit }
  else begin
    audit circuit tbl state;
    let propose rng st =
      propose rng st;
      audit circuit tbl st
    in
    { Anneal.Sa.state; propose; undo; cost; copy; blit }
  end

let place ?(weights = Cost.default) ?params ?workers ?chains ?validate
    ?estimator ?telemetry ~rng circuit =
  let validate =
    Option.value validate ~default:(Analysis.Invariant.enabled_from_env ())
  in
  let params =
    Option.value params
      ~default:(Anneal.Sa.default_params ~n:(Netlist.Circuit.size circuit))
  in
  let tbl = dims_table circuit in
  let check = if validate then Some (audit circuit tbl) else None in
  let r =
    Anneal.Parallel.multi_start ?workers ?chains ?check ?telemetry
      ~engine:"bstar" ~rng params
      (problem_of ~validate ?estimator ~weights circuit)
  in
  Placement.outcome_of (evaluate circuit tbl r.Anneal.Parallel.state) r
