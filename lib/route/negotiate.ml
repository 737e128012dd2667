(* Negotiated-congestion routing state (PathFinder).

   Cells carry a capacity (how many nets may legally use them — 1 for
   routable track, 0 for power rails and obstacles), a present-usage
   count (how many nets use them right now) and a history cost (how
   often they have been over-used in past iterations). A net's path is
   found by Dijkstra expansion where entering cell [i] costs

     (base + history_i) * (1 + pres_fac * overuse_if_entered)

   so early iterations route through congestion cheaply (small
   [pres_fac]) and later iterations price shared cells out, while
   history keeps chronically contested cells expensive even when
   momentarily free — the classic negotiation that converges where
   one-shot sequential routing deadlocks on net ordering.

   Everything is deterministic: the heap breaks distance ties on cell
   index, terminals are expanded in caller order, and no randomness
   enters anywhere. *)

type t = {
  cols : int;
  rows : int;
  capacity : int array;
  present : int array;
  history : float array;
  (* Dijkstra scratch, epoch-stamped so searches never clear arrays *)
  dist : float array;
  parent : int array;
  seen : int array;
  handle : int array;  (* cell -> heap slot, -1 when not queued *)
  mutable epoch : int;
  (* binary min-heap of cell indices keyed by (dist, index) *)
  heap : int array;
  mutable heap_len : int;
  (* current net's tree cells, epoch-stamped *)
  tree_mark : int array;
  mutable tree_epoch : int;
  (* cumulative Dijkstra heap pops: a plain integer so counting it
     costs one increment, stays deterministic, and leaves this module
     free of any telemetry dependency — Router snapshots deltas into
     its sink *)
  mutable pops : int;
}

let base_cost = 1.0

let create ~cols ~rows =
  if cols <= 0 || rows <= 0 then
    invalid_arg "Negotiate.create: non-positive size";
  let n = cols * rows in
  {
    cols;
    rows;
    capacity = Array.make n 1;
    present = Array.make n 0;
    history = Array.make n 0.0;
    dist = Array.make n infinity;
    parent = Array.make n (-1);
    seen = Array.make n 0;
    handle = Array.make n (-1);
    epoch = 0;
    heap = Array.make n 0;
    heap_len = 0;
    tree_mark = Array.make n 0;
    tree_epoch = 0;
    pops = 0;
  }

let of_grid ?(capacity = 1) grid =
  let t = create ~cols:(Grid.cols grid) ~rows:(Grid.rows grid) in
  for r = 0 to t.rows - 1 do
    for c = 0 to t.cols - 1 do
      t.capacity.((r * t.cols) + c) <-
        (if Grid.blocked grid (c, r) then 0 else max 0 capacity)
    done
  done;
  t

let idx t (c, r) = (r * t.cols) + c
let in_bounds t (c, r) = c >= 0 && c < t.cols && r >= 0 && r < t.rows

let set_capacity t p cap =
  if in_bounds t p then t.capacity.(idx t p) <- max 0 cap

let claim t points = List.iter (fun p -> if in_bounds t p then
    t.present.(idx t p) <- t.present.(idx t p) + 1) points

let release t points = List.iter (fun p -> if in_bounds t p then
    t.present.(idx t p) <- max 0 (t.present.(idx t p) - 1)) points

let overflow t =
  let acc = ref 0 in
  for i = 0 to Array.length t.present - 1 do
    let over = t.present.(i) - t.capacity.(i) in
    if over > 0 then acc := !acc + over
  done;
  !acc

let overused_cells t =
  let acc = ref 0 in
  for i = 0 to Array.length t.present - 1 do
    if t.present.(i) > t.capacity.(i) then incr acc
  done;
  !acc

let cell_overuse t p =
  if in_bounds t p then max 0 (t.present.(idx t p) - t.capacity.(idx t p))
  else 0

let add_history t ~hfac =
  for i = 0 to Array.length t.present - 1 do
    let over = t.present.(i) - t.capacity.(i) in
    if over > 0 then t.history.(i) <- t.history.(i) +. (hfac *. float_of_int over)
  done

let search_pops t = t.pops

module Snapshot = struct
  type t = {
    cols : int;
    rows : int;
    capacity : int array;
    present : int array;
    history : float array;
  }
end

let snapshot t =
  {
    Snapshot.cols = t.cols;
    rows = t.rows;
    capacity = Array.copy t.capacity;
    present = Array.copy t.present;
    history = Array.copy t.history;
  }

(* ---- heap ---------------------------------------------------------- *)

let less t a b = t.dist.(a) < t.dist.(b) || (t.dist.(a) = t.dist.(b) && a < b)

let swap t i j =
  let a = t.heap.(i) and b = t.heap.(j) in
  t.heap.(i) <- b;
  t.heap.(j) <- a;
  t.handle.(b) <- i;
  t.handle.(a) <- j

let rec sift_up t i =
  if i > 0 then begin
    let p = (i - 1) / 2 in
    if less t t.heap.(i) t.heap.(p) then begin
      swap t i p;
      sift_up t p
    end
  end

let rec sift_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let m = if l < t.heap_len && less t t.heap.(l) t.heap.(i) then l else i in
  let m = if r < t.heap_len && less t t.heap.(r) t.heap.(m) then r else m in
  if m <> i then begin
    swap t i m;
    sift_down t m
  end

let heap_push t cell =
  t.heap.(t.heap_len) <- cell;
  t.handle.(cell) <- t.heap_len;
  t.heap_len <- t.heap_len + 1;
  sift_up t (t.heap_len - 1)

let heap_decrease t cell = sift_up t t.handle.(cell)

let heap_pop t =
  t.pops <- t.pops + 1;
  let top = t.heap.(0) in
  t.heap_len <- t.heap_len - 1;
  t.handle.(top) <- -1;
  if t.heap_len > 0 then begin
    t.heap.(0) <- t.heap.(t.heap_len);
    t.handle.(t.heap.(0)) <- 0;
    sift_down t 0
  end;
  top

(* ---- search -------------------------------------------------------- *)

(* Cost of one net entering cell [i] right now: the overuse is what
   the cell would carry *after* this entry (present + 1), so sharing a
   full cell is priced from the very first offender. [extra] is any
   additional use beyond that one (1 when a mirrored twin pair crosses
   the symmetry axis and both images land on the same cell). *)
let enter_cost t ~pres_fac ~extra i =
  let over = t.present.(i) + 1 + extra - t.capacity.(i) in
  let congestion =
    if over > 0 then 1.0 +. (pres_fac *. float_of_int over) else 1.0
  in
  (base_cost +. t.history.(i)) *. congestion

let impassable t i = t.capacity.(i) = 0

let clamp t (c, r) =
  (max 0 (min (t.cols - 1) c), max 0 (min (t.rows - 1) r))

(* Mirror image of a cell index under column reflection c -> axis - c,
   or -1 when the image falls off the grid. *)
let mirror_idx t ~axis i =
  let c = i mod t.cols and r = i / t.cols in
  let mc = axis - c in
  if mc < 0 || mc >= t.cols then -1 else (r * t.cols) + mc

(* One Dijkstra wave from the current tree to [target]. [mirror]
   prices (and gates) the reflected cell as well, so the path found
   for the reference net is simultaneously legal and equally costed
   for its twin. Terminal cells of this net are always enterable, even
   when impassable. Returns the target's parent chain or None. *)
let search t ~pres_fac ~mirror ~terminals ~tree ~target =
  t.epoch <- t.epoch + 1;
  let ep = t.epoch in
  t.heap_len <- 0;
  let is_terminal i =
    List.exists (fun p -> in_bounds t p && idx t p = i) terminals
  in
  List.iter
    (fun i ->
      if t.seen.(i) <> ep then begin
        t.seen.(i) <- ep;
        t.dist.(i) <- 0.0;
        t.parent.(i) <- -1;
        heap_push t i
      end)
    tree;
  let ti = idx t target in
  let found = ref false in
  while (not !found) && t.heap_len > 0 do
    let u = heap_pop t in
    if u = ti then found := true
    else begin
      let uc = u mod t.cols and ur = u / t.cols in
      let visit v =
        let blocked_v =
          impassable t v && not (is_terminal v)
        in
        let blocked_m =
          match mirror with
          | None -> false
          | Some axis -> (
              match mirror_idx t ~axis v with
              | -1 -> true
              | m -> impassable t m && not (is_terminal v))
        in
        if not (blocked_v || blocked_m) then begin
          let extra_self =
            (* a twin pair entering its own axis column uses the cell
               twice (reference + image) *)
            match mirror with
            | Some axis when mirror_idx t ~axis v = v -> 1
            | _ -> 0
          in
          let step = enter_cost t ~pres_fac ~extra:extra_self v in
          let step =
            match mirror with
            | None -> step
            | Some axis -> (
                match mirror_idx t ~axis v with
                | m when m = v -> step  (* same cell: already priced *)
                | -1 -> step
                | m -> step +. enter_cost t ~pres_fac ~extra:0 m)
          in
          let nd = t.dist.(u) +. step in
          if t.seen.(v) <> ep then begin
            t.seen.(v) <- ep;
            t.dist.(v) <- nd;
            t.parent.(v) <- u;
            heap_push t v
          end
          else if
            t.handle.(v) >= 0 && nd < t.dist.(v)
          then begin
            t.dist.(v) <- nd;
            t.parent.(v) <- u;
            heap_decrease t v
          end
        end
      in
      if uc + 1 < t.cols then visit (u + 1);
      if uc > 0 then visit (u - 1);
      if ur + 1 < t.rows then visit (u + t.cols);
      if ur > 0 then visit (u - t.cols)
    end
  done;
  if !found then begin
    let rec walk acc i = if i = -1 then acc else walk (i :: acc) t.parent.(i) in
    Some (walk [] ti)
  end
  else None

let route_tree t ?mirror ~pres_fac ~terminals () =
  match List.map (clamp t) terminals with
  | [] -> Some []
  | first :: rest ->
      t.tree_epoch <- t.tree_epoch + 1;
      let te = t.tree_epoch in
      let tree_rev = ref [ idx t first ] in
      t.tree_mark.(idx t first) <- te;
      let ok =
        List.for_all
          (fun terminal ->
            t.tree_mark.(idx t terminal) = te
            ||
            match
              search t ~pres_fac ~mirror ~terminals:(first :: rest)
                ~tree:(List.rev !tree_rev) ~target:terminal
            with
            | None -> false
            | Some path ->
                List.iter
                  (fun i ->
                    if t.tree_mark.(i) <> te then begin
                      t.tree_mark.(i) <- te;
                      tree_rev := i :: !tree_rev
                    end)
                  path;
                true)
          rest
      in
      if not ok then None
      else
        Some
          (List.rev_map
             (fun i -> (i mod t.cols, i / t.cols))
             !tree_rev)
