(* Negotiated-congestion routing state (PathFinder).

   Cells, addressed by row-major index [r * cols + c], carry a
   capacity (how many nets may legally use them — the gcell's track
   count for routable cells, 0 for power rails), a present-usage
   count (how many nets use them right now) and a history cost (how
   often they have been over-used in past iterations). A net's path is
   found by A* expansion where entering cell [i] costs

     (base + history_i) * (1 + pres_fac * overuse_if_entered)

   so early iterations route through congestion cheaply (small
   [pres_fac]) and later iterations price shared cells out, while
   history keeps chronically contested cells expensive even when
   momentarily free — the classic negotiation that converges where
   one-shot sequential routing deadlocks on net ordering.

   The A* bound is [base * Manhattan(v, target)]. History is >= 0 and
   the congestion factor is >= 1, so every entered cell costs at least
   [base]; a mirrored step costs at least that too (a distinct image
   adds a second such term, a twin on its own axis column only raises
   the overuse), so no larger bound is sound for both kinds of search.
   One step changes the Manhattan distance by exactly 1, so the bound
   is consistent as well as admissible: a popped cell is final, the
   "decrease only while queued" rule loses nothing, and each search
   returns a path of the same cost Dijkstra would. Equal-cost paths
   may differ from Dijkstra's, since the heap visits cells in another
   order.

   Everything is deterministic: the heap breaks key ties on cell
   index, terminals are expanded in caller order, and no randomness
   enters anywhere. *)

type t = {
  cols : int;
  rows : int;
  capacity : int array;
  present : int array;
  history : float array;
  (* A* scratch, epoch-stamped so searches never clear arrays: [dist]
     is the cost so far, [key] that plus the bound to the target *)
  dist : float array;
  key : float array;
  parent : int array;
  seen : int array;
  handle : int array;  (* cell -> heap slot, -1 when not queued *)
  mutable epoch : int;
  (* binary min-heap of cell indices keyed by (key, index) *)
  heap : int array;
  mutable heap_len : int;
  (* current net's tree cells and terminals, stamped with one epoch
     per tree *)
  tree_mark : int array;
  term_mark : int array;
  mutable tree_epoch : int;
  (* the running search's parameters, held here so its relax step
     takes only ints: present-sharing factor, mirror axis (-1 for a
     plain search) and target cell *)
  mutable pres_fac : float;
  mutable axis : int;
  mutable target_col : int;
  mutable target_row : int;
  (* cumulative search heap pops: a plain integer so counting it
     costs one increment, stays deterministic, and leaves this module
     free of any telemetry dependency — Router snapshots deltas into
     its sink *)
  mutable pops : int;
}

let base_cost = 1.0

let create ~cols ~rows ~capacity =
  if cols <= 0 || rows <= 0 then
    invalid_arg "Negotiate.create: non-positive size";
  let n = cols * rows in
  {
    cols;
    rows;
    capacity = Array.make n (Int.max 0 capacity);
    present = Array.make n 0;
    history = Array.make n 0.0;
    dist = Array.make n infinity;
    key = Array.make n infinity;
    parent = Array.make n (-1);
    seen = Array.make n 0;
    handle = Array.make n (-1);
    epoch = 0;
    heap = Array.make n 0;
    heap_len = 0;
    tree_mark = Array.make n 0;
    term_mark = Array.make n 0;
    tree_epoch = 0;
    pres_fac = 0.0;
    axis = -1;
    target_col = 0;
    target_row = 0;
    pops = 0;
  }

let set_capacity t i cap = t.capacity.(i) <- Int.max 0 cap

let claim t cells =
  List.iter (fun i -> t.present.(i) <- t.present.(i) + 1) cells

let release t cells =
  List.iter (fun i -> t.present.(i) <- Int.max 0 (t.present.(i) - 1)) cells

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

let cell_overuse t i = Int.max 0 (t.present.(i) - t.capacity.(i))

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

let less t a b = t.key.(a) < t.key.(b) || (t.key.(a) = t.key.(b) && a < b)

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
   the symmetry axis and both images land on the same cell). Inlined
   into [visit], so the float never leaves a register. *)
let[@inline] enter_cost t ~extra i =
  let over = t.present.(i) + 1 + extra - t.capacity.(i) in
  let congestion =
    if over > 0 then 1.0 +. (t.pres_fac *. float_of_int over) else 1.0
  in
  (base_cost +. t.history.(i)) *. congestion

let reflect t ~axis i =
  let c = i mod t.cols and r = i / t.cols in
  let mc = axis - c in
  if mc < 0 || mc >= t.cols then -1 else (r * t.cols) + mc

(* The A* bound from [v] to the current search's target. *)
let[@inline] bound t v =
  base_cost
  *. float_of_int
       (abs ((v mod t.cols) - t.target_col) + abs ((v / t.cols) - t.target_row))

(* One relax step of the current search: price entering [v] from the
   popped cell [u] and, when that improves a queued or unseen [v],
   record it. Capacity-0 cells are closed except as this net's
   terminals; a mirrored step needs the cell and its image both open,
   prices both, and a twin pair entering its own axis column uses the
   cell twice (reference + image). Ints in, unit out: a pop allocates
   nothing. *)
let visit t u v =
  let axis = t.axis in
  let m = if axis < 0 then v else reflect t ~axis v in
  if
    m >= 0
    && (t.term_mark.(v) = t.tree_epoch
       || (t.capacity.(v) > 0 && t.capacity.(m) > 0))
  then begin
    let step =
      if axis < 0 then enter_cost t ~extra:0 v
      else if m = v then enter_cost t ~extra:1 v
      else enter_cost t ~extra:0 v +. enter_cost t ~extra:0 m
    in
    let nd = t.dist.(u) +. step in
    if t.seen.(v) <> t.epoch then begin
      t.seen.(v) <- t.epoch;
      t.dist.(v) <- nd;
      t.key.(v) <- nd +. bound t v;
      t.parent.(v) <- u;
      heap_push t v
    end
    else if t.handle.(v) >= 0 && nd < t.dist.(v) then begin
      t.dist.(v) <- nd;
      t.key.(v) <- nd +. bound t v;
      t.parent.(v) <- u;
      heap_decrease t v
    end
  end

(* One A* wave from the current tree to [target]. [mirror] prices (and
   gates) the reflected cell as well, so the path found for the
   reference net is simultaneously legal and equally costed for its
   twin. Terminal cells of this net ([term_mark] at the tree's epoch)
   are always enterable, even when impassable. Returns the target's
   parent chain or None. *)
let search t ~pres_fac ~mirror ~tree ~target =
  t.epoch <- t.epoch + 1;
  t.pres_fac <- pres_fac;
  t.axis <- (match mirror with Some axis -> axis | None -> -1);
  t.target_col <- target mod t.cols;
  t.target_row <- target / t.cols;
  t.heap_len <- 0;
  List.iter
    (fun i ->
      if t.seen.(i) <> t.epoch then begin
        t.seen.(i) <- t.epoch;
        t.dist.(i) <- 0.0;
        t.key.(i) <- bound t i;
        t.parent.(i) <- -1;
        heap_push t i
      end)
    tree;
  let found = ref false in
  while (not !found) && t.heap_len > 0 do
    let u = heap_pop t in
    if u = target then found := true
    else begin
      let uc = u mod t.cols and ur = u / t.cols in
      if uc + 1 < t.cols then visit t u (u + 1);
      if uc > 0 then visit t u (u - 1);
      if ur + 1 < t.rows then visit t u (u + t.cols);
      if ur > 0 then visit t u (u - t.cols)
    end
  done;
  if !found then begin
    let rec walk acc i = if i = -1 then acc else walk (i :: acc) t.parent.(i) in
    Some (walk [] target)
  end
  else None

let route_tree t ?mirror ~pres_fac ~terminals () =
  match terminals with
  | [] -> Some []
  | first :: rest ->
      t.tree_epoch <- t.tree_epoch + 1;
      let te = t.tree_epoch in
      List.iter (fun i -> t.term_mark.(i) <- te) terminals;
      let tree_rev = ref [ first ] in
      t.tree_mark.(first) <- te;
      (* searches gate every cell they enter, but not the seed: a twin
         tree must map its seed onto the grid as well *)
      let seed_ok =
        match mirror with
        | Some axis -> reflect t ~axis first >= 0
        | None -> true
      in
      let ok =
        seed_ok
        && List.for_all
             (fun terminal ->
               t.tree_mark.(terminal) = te
               ||
               match
                 search t ~pres_fac ~mirror ~tree:(List.rev !tree_rev)
                   ~target:terminal
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
      if ok then Some (List.rev !tree_rev) else None
