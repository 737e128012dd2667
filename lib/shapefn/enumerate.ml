open Geometry

let max_exhaustive = 6

(* Every B*-tree over [cells], as (shape, flat, perm): [shape] is a
   tree over local indices and [flat] its flat copy, and where [shape]
   holds index i the tree holds cell [cells.(perm.(i))]. The order is
   shape-major over [Count.enumerate_shapes] (pre-order node i holds
   index i), then [Count.permutations]; above [max_exhaustive] cells a
   seeded random sample of trees over the indices stands in, each with
   the identity permutation ([Tree.random] draws the same tree over
   any cell list of the same length). *)
let iter_trees cells f =
  let k = Array.length cells in
  if k <= max_exhaustive then begin
    let perms =
      List.map Array.of_list (Bstar.Count.permutations (List.init k Fun.id))
    in
    List.iter
      (fun shape ->
        let flat = Bstar.Flat.of_tree shape in
        List.iter (f shape flat) perms)
      (Bstar.Count.enumerate_shapes k)
  end
  else begin
    let rng = Prelude.Rng.create (17 * k) in
    let identity = Array.init k Fun.id in
    for _ = 1 to 20_000 do
      let shape = Bstar.Tree.random rng (List.init k Fun.id) in
      f shape (Bstar.Flat.of_tree shape) identity
    done
  end

let tree_of cells shape perm =
  Bstar.Tree.map_cells (fun i -> cells.(perm.(i))) shape

(* All rotation assignments for the cells: bitmask over the cells whose
   dimensions actually change under rotation. *)
let rotation_choices dims cells =
  let rotatable = List.filter (fun c -> let w, h = dims c in w <> h) cells in
  let k = List.length rotatable in
  let k = min k 12 (* cap the mask width; beyond this sets are sampled anyway *) in
  let rotatable = List.filteri (fun i _ -> i < k) rotatable in
  List.init (1 lsl k) (fun mask ->
      List.filteri (fun i _ -> mask land (1 lsl i) <> 0) rotatable)

let oriented_dims dims rotated c =
  let w, h = dims c in
  if List.mem c rotated then (h, w) else (w, h)

(* Free and proximity sets: every (tree, rotation mask) placement,
   packed on one flat arena and offered to [front] in tree order, then
   mask order. Mask bit b rotates the b-th cell (in [cells] order)
   whose dimensions change under rotation, as [rotation_choices]
   numbers them. A placement's box is read off the packed arrays; its
   payload (the labelled tree and the dims list) is built, and
   [connected] asked, only when the current front does not already
   dominate the box, so the front keeps exactly the first-generated
   shape at each of its points. *)
let stream ~dims ~connected cells front =
  let cells = Array.of_list cells in
  let k = Array.length cells in
  let base_w = Array.map (fun c -> fst (dims c)) cells
  and base_h = Array.map (fun c -> snd (dims c)) cells in
  let bit = Array.make k (-1) and masks = ref 0 in
  for j = 0 to k - 1 do
    if base_w.(j) <> base_h.(j) && !masks < 12 then begin
      bit.(j) <- !masks;
      incr masks
    end
  done;
  let rotated mask j = bit.(j) >= 0 && mask land (1 lsl bit.(j)) <> 0 in
  let contour = Contour.scratch ((2 * k) + 1) in
  let w = Array.make k 0 and h = Array.make k 0 in
  let x = Array.make k 0 and y = Array.make k 0 in
  iter_trees cells (fun shape flat perm ->
      for mask = 0 to (1 lsl !masks) - 1 do
        for i = 0 to k - 1 do
          let j = perm.(i) in
          if rotated mask j then begin
            w.(i) <- base_h.(j);
            h.(i) <- base_w.(j)
          end
          else begin
            w.(i) <- base_w.(j);
            h.(i) <- base_h.(j)
          end
        done;
        Bstar.Flat.pack_into flat contour ~w ~h ~x ~y;
        (* the extent of the non-degenerate cells, as [Rect.bbox]
           reads it; the last cell in pre-order when all are *)
        let bw = ref 0 and bh = ref 0 and solid = ref false in
        for i = 0 to k - 1 do
          if w.(i) > 0 && h.(i) > 0 then begin
            solid := true;
            bw := Int.max !bw (x.(i) + w.(i));
            bh := Int.max !bh (y.(i) + h.(i))
          end
        done;
        if not !solid then begin
          let last = Bstar.Flat.cell_at flat (k - 1) in
          bw := x.(last) + w.(last);
          bh := y.(last) + h.(last)
        end;
        if
          (not (Shape_fn.dominated front ~w:!bw ~h:!bh))
          && ((not connected)
             || Outline.connected
                  (List.init k (fun i ->
                       Rect.make ~x:x.(i) ~y:y.(i) ~w:w.(i) ~h:h.(i))))
        then
          let oriented j =
            if rotated mask j then (base_h.(j), base_w.(j))
            else (base_w.(j), base_h.(j))
          in
          Shape_fn.add front
            {
              Shape.w = !bw;
              h = !bh;
              payload =
                Shape.Btree
                  {
                    tree = tree_of cells shape perm;
                    dims = List.init k (fun j -> (cells.(j), oriented j));
                    rigid = [];
                  };
            }
      done)

let free_set ?cap ~dims cells =
  let front = Shape_fn.builder () in
  stream ~dims ~connected:false cells front;
  Shape_fn.of_builder ?cap front

let proximity_set ?cap ~dims cells =
  let front = Shape_fn.builder () in
  stream ~dims ~connected:true cells front;
  if Shape_fn.is_empty front then free_set ?cap ~dims cells
  else Shape_fn.of_builder ?cap front

(* Symmetry islands: enumerate half-trees over representatives + selfs,
   keeping those where every self lies on the root's right chain, and
   mirror. Rotations apply to representatives and selfs alike. *)
let symmetric_set ?cap ~dims (grp : Constraints.Symmetry_group.t) =
  let reps = List.map snd grp.Constraints.Symmetry_group.pairs in
  let selfs = grp.Constraints.Symmetry_group.selfs in
  let half_cells = reps @ selfs in
  let rotations = rotation_choices dims half_cells in
  let cells = Array.of_list half_cells in
  let front = Shape_fn.builder () in
  iter_trees cells (fun shape _flat perm ->
      match Bstar.Asf.of_tree grp (tree_of cells shape perm) with
      | exception Invalid_argument _ -> ()
      | asf ->
          List.iter
            (fun rotated ->
              let d c =
                (* a pair's left cell inherits the representative's
                   chosen orientation *)
                let rep =
                  List.find_map
                    (fun (l, r) -> if l = c then Some r else None)
                    grp.Constraints.Symmetry_group.pairs
                in
                oriented_dims dims rotated (Option.value rep ~default:c)
              in
              let island = Bstar.Asf.pack asf d in
              Shape_fn.add front (Shape.of_rigid island.Bstar.Asf.placed))
            rotations);
  Shape_fn.of_builder ?cap front

let centroid_set ?cap ~dims cells =
  match Bstar.Centroid.place ~cells dims with
  | Error _ -> None
  | Ok horizontal ->
      let transpose placed =
        List.map
          (fun (p : Transform.placed) ->
            let r = p.Transform.rect in
            {
              p with
              Transform.rect =
                Rect.make ~x:r.Rect.y ~y:r.Rect.x ~w:r.Rect.h ~h:r.Rect.w;
            })
          placed
      in
      Some
        (Shape_fn.of_shapes ?cap
           [ Shape.of_rigid horizontal; Shape.of_rigid (transpose horizontal) ])

let rec pair_up = function
  | a :: b :: rest ->
      let ps, ss = pair_up rest in
      ((a, b) :: ps, ss)
  | [ a ] -> ([], [ a ])
  | [] -> ([], [])

let of_basic_set ?cap ~dims ~kind cells =
  match kind with
  | Netlist.Hierarchy.Free -> free_set ?cap ~dims cells
  | Netlist.Hierarchy.Proximity -> proximity_set ?cap ~dims cells
  | Netlist.Hierarchy.Common_centroid -> (
      match centroid_set ?cap ~dims cells with
      | Some fn -> fn
      | None -> free_set ?cap ~dims cells)
  | Netlist.Hierarchy.Symmetry -> (
      let pairs, selfs = pair_up cells in
      let matched =
        List.for_all (fun (a, b) -> dims a = dims b) pairs
      in
      if not matched then free_set ?cap ~dims cells
      else
        match
          Constraints.Symmetry_group.make ~name:"basic" ~pairs ~selfs ()
        with
        | exception Invalid_argument _ -> free_set ?cap ~dims cells
        | grp -> symmetric_set ?cap ~dims grp)
