open Geometry

type cell_state = { x : int; y : int; rot : bool }

type outcome = {
  placement : Placement.t;
  raw_overlap : int;
  cost : float;
  sa_rounds : int;
  evaluated : int;
}

let dims_of circuit st c =
  let w, h = Netlist.Circuit.dims circuit c in
  if st.(c).rot then (h, w) else (w, h)

let to_placed circuit st =
  List.init (Array.length st) (fun c ->
      let w, h = dims_of circuit st c in
      Transform.place ~cell:c ~x:st.(c).x ~y:st.(c).y ~w ~h
        ~orient:(if st.(c).rot then Orientation.R90 else Orientation.R0))

let total_overlap placed =
  let arr = Array.of_list placed in
  let n = Array.length arr in
  let acc = ref 0 in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      acc :=
        !acc
        + Rect.intersection_area arr.(i).Transform.rect arr.(j).Transform.rect
    done
  done;
  !acc

(* Greedy legalization: process by x, pushing overlapping cells right
   past the blocker; a compaction pass then reclaims the slack. *)
let legalize placement =
  let sorted =
    List.sort
      (fun (a : Transform.placed) b ->
        compare
          (a.Transform.rect.Rect.x, a.Transform.rect.Rect.y)
          (b.Transform.rect.Rect.x, b.Transform.rect.Rect.y))
      placement.Placement.placed
  in
  let fixed = ref [] in
  List.iter
    (fun (p : Transform.placed) ->
      let rec settle r =
        match
          List.find_opt
            (fun (q : Transform.placed) -> Rect.overlaps q.Transform.rect r)
            !fixed
        with
        | None -> r
        | Some q -> settle { r with Rect.x = Rect.x_max q.Transform.rect }
      in
      fixed := { p with Transform.rect = settle p.Transform.rect } :: !fixed)
    sorted;
  Compact.compact
    (Placement.make placement.Placement.circuit (List.rev !fixed))

let place ?(weights = Cost.default) ?(overlap_weight = 4.0) ?params ~rng
    circuit =
  let n = Netlist.Circuit.size circuit in
  let params =
    match params with Some p -> p | None -> Anneal.Sa.default_params ~n
  in
  let die =
    int_of_float
      (1.4 *. sqrt (float_of_int (Netlist.Circuit.total_module_area circuit)))
  in
  let init =
    Array.init n (fun _ ->
        { x = Prelude.Rng.int rng (max 1 die);
          y = Prelude.Rng.int rng (max 1 die);
          rot = false })
  in
  let neighbor rng st =
    let st' = Array.copy st in
    let c = Prelude.Rng.int rng n in
    (match Prelude.Rng.int rng 10 with
    | 0 | 1 | 2 ->
        (* global jump *)
        st'.(c) <-
          { (st'.(c)) with
            x = Prelude.Rng.int rng (max 1 die);
            y = Prelude.Rng.int rng (max 1 die) }
    | 3 | 4 | 5 | 6 | 7 ->
        (* local jiggle *)
        let step () = Prelude.Rng.int_in rng (-(die / 10)) (die / 10) in
        st'.(c) <-
          { (st'.(c)) with
            x = max 0 (st'.(c).x + step ());
            y = max 0 (st'.(c).y + step ()) }
    | 8 -> st'.(c) <- { (st'.(c)) with rot = not st'.(c).rot }
    | _ ->
        (* swap two cells' positions *)
        let d = Prelude.Rng.int rng n in
        let a = st'.(c) and b = st'.(d) in
        st'.(c) <- { a with x = b.x; y = b.y };
        st'.(d) <- { b with x = a.x; y = a.y });
    st'
  in
  let arena = Eval.create circuit in
  let cost st =
    let placed = to_placed circuit st in
    Eval.cost_placed arena weights placed
    +. (overlap_weight *. float_of_int (total_overlap placed))
  in
  let result =
    Anneal.Sa.run ~rng params (Anneal.Sa.persistent ~init ~neighbor ~cost)
  in
  let raw =
    Placement.make circuit (to_placed circuit !(result.Anneal.Sa.best))
  in
  let raw_overlap = total_overlap raw.Placement.placed in
  {
    placement = legalize raw;
    raw_overlap;
    cost = result.Anneal.Sa.best_cost;
    sa_rounds = result.Anneal.Sa.rounds;
    evaluated = result.Anneal.Sa.evaluated;
  }
