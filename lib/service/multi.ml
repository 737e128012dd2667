(* Compact multi-placement structures (Badaoui & Vemuri, PAPERS.md
   arXiv:0710.4717): once a topology is fixed, a whole family of
   packings is cheap to re-instantiate, so a cache entry stores the
   winning topology — a sequence pair derived from the winning
   placement — plus a Pareto family of candidate packings (rotation
   vectors packed once at build time, and the winner itself as a rigid
   shape-function point). A hit for a different outline selects the
   best-fit family member in O(k) and re-instantiates it with one
   sequence-pair pack (Placer.Sa_seqpair.evaluate) or
   [Shapefn.Shape_fn.instantiate] (the rigid fallback) — microseconds,
   not an anneal.

   Candidate order is fixed at build time (cost, then width, height),
   and selection is a deterministic fold, so repeated identical
   requests materialize byte-identical placements. *)

module G = Constraints.Symmetry_group

type topo =
  | Packing of bool array  (* rotation vector packed through [sp] *)
  | Rigid  (* realize the stored rigid curve point *)

type candidate = {
  topo : topo;
  width : int;
  height : int;
  hpwl : float;
  cost : float;
}

type t = {
  circuit : Netlist.Circuit.t;
  groups : G.t list;
  sp : Seqpair.Sp.t;
  rigid : Shapefn.Shape_fn.t;  (* the winner as a one-point RSF curve *)
  curves : Shapefn.Shape_fn.t array;  (* per-module shape alternatives *)
  candidates : candidate list;  (* Pareto front, (cost, w, h)-sorted *)
}

let candidates t = t.candidates
let curves t = t.curves

(* Pareto prune over (width, height, cost): a candidate survives iff
   no other one is at most as large in every axis (and smaller in
   one). Duplicated (w, h, cost) triples collapse to the first. *)
let pareto cands =
  let dominated a b =
    (* b dominates a *)
    b.width <= a.width && b.height <= a.height && b.cost <= a.cost
    && (b.width < a.width || b.height < a.height || b.cost < a.cost)
  in
  let sorted =
    List.sort
      (fun a b -> compare (a.cost, a.width, a.height) (b.cost, b.width, b.height))
      cands
  in
  let rec keep acc = function
    | [] -> List.rev acc
    | c :: rest ->
        if
          List.exists (fun o -> dominated c o) acc
          || List.exists (fun o -> dominated c o) rest
          || List.exists
               (fun o -> (o.width, o.height, o.cost) = (c.width, c.height, c.cost))
               acc
        then keep acc rest
        else keep (c :: acc) rest
  in
  keep [] sorted

(* Candidate rotation vectors: the winner's own rotations, the
   unrotated identity, all-landscape and all-portrait sweeps — each
   harmonized onto symmetry partners, deduplicated. *)
let rot_variants circuit groups base_rot =
  let n = Netlist.Circuit.size circuit in
  let orient pick =
    Array.init n (fun c ->
        let w, h = Netlist.Circuit.dims circuit c in
        pick w h)
  in
  [
    base_rot;
    Array.make n false;
    orient (fun w h -> h > w);  (* landscape: width >= height *)
    orient (fun w h -> w > h);  (* portrait *)
  ]
  |> List.map (fun r -> Placer.Portfolio.harmonize_rot groups (Array.copy r))
  |> List.fold_left
       (fun acc r -> if List.exists (fun s -> s = r) acc then acc else r :: acc)
       []
  |> List.rev

let build ?(weights = Placer.Cost.default) ~groups circuit placed =
  let n = Netlist.Circuit.size circuit in
  let arena = Placer.Eval.create circuit in
  let curves =
    Array.init n (fun c ->
        let w, h = Netlist.Circuit.dims circuit c in
        let shapes =
          Shapefn.Shape.of_module ~cell:c ~w ~h ~rotated:false
          :: (if w = h then []
              else [ Shapefn.Shape.of_module ~cell:c ~w ~h ~rotated:true ])
        in
        Shapefn.Shape_fn.of_shapes shapes)
  in
  let sp0 = Placer.Portfolio.sp_of_placed n placed in
  let sp =
    match groups with
    | [] -> sp0
    | _ -> Seqpair.Symmetry.make_feasible sp0 groups
  in
  let base_rot =
    Placer.Portfolio.harmonize_rot groups
      (Placer.Portfolio.rot_of_placed circuit placed)
  in
  let packed =
    rot_variants circuit groups base_rot
    |> List.filter_map (fun rot ->
           match Placer.Eval.cost_seqpair arena weights ~groups sp ~rot with
           | cost ->
               let width, height, hpwl = Placer.Eval.last_extents arena in
               Some { topo = Packing rot; width; height; hpwl; cost }
           | exception Invalid_argument _ ->
               (* a variant can break pair-dimension parity; skip it *)
               None)
  in
  let rigid_cand =
    let cost = Placer.Eval.cost_placed arena weights placed in
    let width, height, hpwl = Placer.Eval.last_extents arena in
    { topo = Rigid; width; height; hpwl; cost }
  in
  {
    circuit;
    groups;
    sp;
    rigid = Shapefn.Shape_fn.of_shapes [ Shapefn.Shape.of_rigid placed ];
    curves;
    candidates = pareto (rigid_cand :: packed);
  }

(* Provable lower bounds from the per-module curves: every module must
   fit the outline on its own, and the outline must hold the total
   module area. Cheaper than trying every candidate when the request
   is hopeless. *)
let outline_infeasible t (w, h) =
  Array.exists
    (fun fn ->
      Shapefn.Shape_fn.min_width fn > w || Shapefn.Shape_fn.min_height fn > h)
    t.curves
  || Netlist.Circuit.total_module_area t.circuit > w * h

let select ?outline t =
  match t.candidates with
  | [] -> invalid_arg "Multi.select: empty candidate family"
  | first :: _ -> (
      match outline with
      | None -> (first, true)
      | Some (mw, mh) when outline_infeasible t (mw, mh) -> (first, false)
      | Some (mw, mh) -> (
          match
            List.find_opt (fun c -> c.width <= mw && c.height <= mh)
              t.candidates
          with
          | Some c -> (c, true)
          | None -> (first, false)))

let materialize t cand =
  match cand.topo with
  | Packing rot ->
      Placer.Sa_seqpair.evaluate t.circuit t.groups { sp = t.sp; rot }
  | Rigid -> (
      match
        Shapefn.Shape_fn.instantiate ~max_w:cand.width ~max_h:cand.height
          t.rigid
      with
      | Some placed -> Placer.Placement.make t.circuit placed
      | None -> invalid_arg "Multi.materialize: rigid point vanished")
