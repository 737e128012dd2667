open Geometry

type t = { cell : int; left : t option; right : t option }

let leaf cell = { cell; left = None; right = None }

let row = function
  | [] -> invalid_arg "Tree.row: empty"
  | first :: rest ->
      let rec build c = function
        | [] -> leaf c
        | next :: more -> { cell = c; left = Some (build next more); right = None }
      in
      build first rest

let column = function
  | [] -> invalid_arg "Tree.column: empty"
  | first :: rest ->
      let rec build c = function
        | [] -> leaf c
        | next :: more -> { cell = c; left = None; right = Some (build next more) }
      in
      build first rest

(* Random shape: root takes the first cell, the rest split randomly
   between the subtrees. Randomizing the cell order first makes the
   root uniform as well. *)
let random rng cells =
  if cells = [] then invalid_arg "Tree.random: empty";
  let arr = Array.of_list cells in
  Prelude.Rng.shuffle rng arr;
  let rec build lo hi =
    (* cells arr.(lo..hi-1), non-empty *)
    let c = arr.(lo) in
    let rest = hi - lo - 1 in
    if rest = 0 then leaf c
    else
      let split = Prelude.Rng.int rng (rest + 1) in
      let left = if split > 0 then Some (build (lo + 1) (lo + 1 + split)) else None in
      let right = if rest - split > 0 then Some (build (lo + 1 + split) hi) else None in
      { cell = c; left; right }
  in
  build 0 (Array.length arr)

(* Pre-order, with an accumulator: the right subtree is consed first so
   a single [List.rev] restores the order. O(n), no appends. *)
let cells t =
  let rec go acc t =
    let acc = t.cell :: acc in
    let acc = match t.left with Some l -> go acc l | None -> acc in
    match t.right with Some r -> go acc r | None -> acc
  in
  List.rev (go [] t)

let rec size t =
  1
  + (match t.left with Some l -> size l | None -> 0)
  + (match t.right with Some r -> size r | None -> 0)

let rec mem t c =
  t.cell = c
  || (match t.left with Some l -> mem l c | None -> false)
  || (match t.right with Some r -> mem r c | None -> false)

let nth_cell t i =
  (* i-th cell of [cells t] without materializing the list *)
  let k = ref i in
  let rec go t =
    if !k = 0 then Some t.cell
    else begin
      decr k;
      let l = match t.left with Some l -> go l | None -> None in
      match l with
      | Some _ -> l
      | None -> ( match t.right with Some r -> go r | None -> None)
    end
  in
  match go t with
  | Some c -> c
  | None -> invalid_arg "Tree.nth_cell: out of range"

let rec map_cells f t =
  {
    cell = f t.cell;
    left = Option.map (map_cells f) t.left;
    right = Option.map (map_cells f) t.right;
  }

(* Pre-order walk dropping each item onto one skyline scratch. An item
   with a top profile rests flat but raises only its material steps,
   so later items settle into its valleys. The scratch is per call:
   [lookup] may pack a nested macro while this walk is mid-flight. *)
let pack_with_profiles t lookup =
  let out = ref [] in
  let contour = Contour.scratch ((2 * size t) + 1) in
  let rec go node x =
    let w, h, top = lookup node.cell in
    let y =
      match top with
      | None -> Contour.drop_into contour ~x ~w ~h
      | Some segs ->
          let y = Contour.max_height_into contour ~x0:x ~x1:(x + w) in
          List.iter
            (fun (s : Contour.segment) ->
              Contour.raise_into contour ~x0:(x + s.x0) ~x1:(x + s.x1)
                ~y:(y + s.y))
            segs;
          y
    in
    out := (node.cell, Rect.make ~x ~y ~w ~h) :: !out;
    Option.iter (fun l -> go l (x + w)) node.left;
    Option.iter (fun r -> go r x) node.right
  in
  go t 0;
  List.rev !out

let pack_rects t dims =
  pack_with_profiles t (fun c ->
      let w, h = dims c in
      (w, h, None))

let pack t dims =
  List.map
    (fun (cell, rect) -> { Transform.cell; rect; orient = Orientation.R0 })
    (pack_rects t dims)

let rec swap_cells t a b =
  let cell = if t.cell = a then b else if t.cell = b then a else t.cell in
  {
    cell;
    left = Option.map (fun l -> swap_cells l a b) t.left;
    right = Option.map (fun r -> swap_cells r a b) t.right;
  }

(* Splice out a node: promote the left child; its own rightmost
   right-descendant adopts the removed node's right subtree. With no
   left child the right child is promoted directly. *)
let rec attach_right t sub =
  match t.right with
  | None -> { t with right = Some sub }
  | Some r -> { t with right = Some (attach_right r sub) }

let splice node =
  match (node.left, node.right) with
  | None, None -> None
  | Some l, None -> Some l
  | None, Some r -> Some r
  | Some l, Some r -> Some (attach_right l r)

(* One traversal: each subtree reports whether it held the target, so no
   per-level [mem] rescans. Untouched subtrees are shared, not rebuilt. *)
let delete t target =
  let rec go t =
    if t.cell = target then (splice t, true)
    else
      match t.left with
      | Some l -> (
          let l', found = go l in
          if found then (Some { t with left = l' }, true) else go_right t)
      | None -> go_right t
  and go_right t =
    match t.right with
    | Some r ->
        let r', found = go r in
        if found then (Some { t with right = r' }, true) else (Some t, false)
    | None -> (Some t, false)
  in
  fst (go t)

let rec insert_at t ~cell ~target ~side =
  if t.cell = target then
    match side with
    | `Left -> { t with left = Some { cell; left = t.left; right = None } }
    | `Right -> { t with right = Some { cell; left = None; right = t.right } }
  else
    {
      t with
      left = Option.map (fun l -> insert_at l ~cell ~target ~side) t.left;
      right = Option.map (fun r -> insert_at r ~cell ~target ~side) t.right;
    }

let rec equal a b =
  a.cell = b.cell
  && Option.equal equal a.left b.left
  && Option.equal equal a.right b.right

let rec pp ppf t =
  match (t.left, t.right) with
  | None, None -> Format.fprintf ppf "%d" t.cell
  | _ ->
      Format.fprintf ppf "@[%d(%a,%a)@]" t.cell
        (Format.pp_print_option
           ~none:(fun ppf () -> Format.pp_print_string ppf "-")
           pp)
        t.left
        (Format.pp_print_option
           ~none:(fun ppf () -> Format.pp_print_string ppf "-")
           pp)
        t.right
