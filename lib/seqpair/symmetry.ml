open Geometry

type group = Constraints.Symmetry_group.t

module G = Constraints.Symmetry_group

(* ------------------------------------------------------------------ *)
(* The plan: a group list compiled once into flat arrays, with every
   scratch buffer the S-F check, the repair and the packer need. Pairs
   and selfs sit group after group; group [g]'s pairs are indices
   [pair_off.(g) .. pair_off.(g + 1) - 1], likewise its selfs, and its
   members [2 * pair_off.(g) + self_off.(g)] onwards in [want]. *)

type plan = {
  n : int;
  ng : int;
  sym : int array;  (* counterpart: partner, the cell itself, -1 if free *)
  group_of : int array;  (* -1 for a free cell *)
  pa : int array;  (* every pair as listed *)
  pb : int array;
  pair_off : int array;
  selfs : int array;
  self_off : int array;
  (* per-call scratch *)
  last : int array;  (* S-F sweep: beta position last seen, per group *)
  slot : int array;  (* repair: next member slot, per group *)
  want : int array;  (* repair: members in the beta order (1) dictates *)
  self_w : int array;  (* self widths before parity padding *)
  axis2 : int array;  (* doubled axis, per group *)
  bit : Bit.t;  (* prefix maxima over beta positions *)
  alpha_order : int array;
  bpos : int array;
  cells : int array;  (* one group's members in alpha order *)
  cidx : int array;  (* position of a cell among the cells packed *)
  node : int array;  (* contracted vertical node: a pair's left cell *)
  mate : int array;  (* a pair node's right cell, else -1: the pair
                        oriented (left, right) in the code *)
  index : int array;  (* Tarjan visit order, -1 unvisited *)
  low : int array;
  on_stack : bool array;
  stack : int array;
  mutable top : int;
  mutable visits : int;
  (* the segregated fallback's reduced code: the cells plus one item
     [n + g] per group *)
  rbpos : int array;
  rw : int array;
  rh : int array;
  rx : int array;
  ry : int array;
  seen : bool array;
  order : int array;
}

let plan ~n groups =
  let ng = List.length groups in
  let count f = List.fold_left (fun acc (g : group) -> acc + f g) 0 groups in
  let np = count (fun g -> List.length g.G.pairs)
  and ns = count (fun g -> List.length g.G.selfs) in
  let sym = Array.make n (-1) and group_of = Array.make n (-1) in
  let pa = Array.make np 0 and pb = Array.make np 0 in
  let selfs = Array.make ns 0 in
  let pair_off = Array.make (ng + 1) 0 and self_off = Array.make (ng + 1) 0 in
  List.iteri
    (fun gi (g : group) ->
      let k = ref pair_off.(gi) in
      List.iter
        (fun (a, b) ->
          pa.(!k) <- a;
          pb.(!k) <- b;
          sym.(a) <- b;
          sym.(b) <- a;
          group_of.(a) <- gi;
          group_of.(b) <- gi;
          incr k)
        g.G.pairs;
      pair_off.(gi + 1) <- !k;
      let k = ref self_off.(gi) in
      List.iter
        (fun f ->
          selfs.(!k) <- f;
          sym.(f) <- f;
          group_of.(f) <- gi;
          incr k)
        g.G.selfs;
      self_off.(gi + 1) <- !k)
    groups;
  let cells () = Array.make n 0 and items () = Array.make (n + ng) 0 in
  {
    n;
    ng;
    sym;
    group_of;
    pa;
    pb;
    pair_off;
    selfs;
    self_off;
    last = Array.make ng 0;
    slot = Array.make ng 0;
    want = Array.make ((2 * np) + ns) 0;
    self_w = Array.make ns 0;
    axis2 = Array.make ng 0;
    bit = Bit.create n;
    alpha_order = cells ();
    bpos = cells ();
    cells = cells ();
    cidx = cells ();
    node = cells ();
    mate = cells ();
    index = cells ();
    low = cells ();
    on_stack = Array.make n false;
    stack = cells ();
    top = 0;
    visits = 0;
    rbpos = items ();
    rw = items ();
    rh = items ();
    rx = items ();
    ry = items ();
    seen = Array.make (n + ng) false;
    order = items ();
  }

let counterpart p c = p.sym.(c)

(* Property (1) for every group in one alpha sweep: a group's members,
   read in alpha order, must meet their counterparts in strictly
   decreasing beta position. *)
let feasible p sp =
  Array.fill p.last 0 p.ng max_int;
  let ok = ref true and pos = ref 0 in
  while !ok && !pos < p.n do
    let c = Perm.cell_at sp.Sp.alpha !pos in
    let g = p.group_of.(c) in
    if g >= 0 then begin
      let b = Perm.pos_of sp.Sp.beta p.sym.(c) in
      if b > p.last.(g) then ok := false else p.last.(g) <- b
    end;
    incr pos
  done;
  !ok

let is_feasible_all sp groups = feasible (plan ~n:(Sp.size sp) groups) sp
let is_feasible sp g = is_feasible_all sp [ g ]

(* Property (1) says: in beta, the group members appear exactly in
   decreasing alpha-position of their symmetric counterparts. Collect
   that order per group from one reverse alpha sweep, then refill each
   group's beta positions with it, front to back, by exchanges. *)
let first_slots p =
  for g = 0 to p.ng - 1 do
    p.slot.(g) <- (2 * p.pair_off.(g)) + p.self_off.(g)
  done

let repair p sp =
  first_slots p;
  for pos = p.n - 1 downto 0 do
    let s = Perm.cell_at sp.Sp.alpha pos in
    let g = p.group_of.(s) in
    if g >= 0 then begin
      p.want.(p.slot.(g)) <- p.sym.(s);
      p.slot.(g) <- p.slot.(g) + 1
    end
  done;
  first_slots p;
  for pos = 0 to p.n - 1 do
    let c = Perm.cell_at sp.Sp.beta pos in
    let g = p.group_of.(c) in
    if g >= 0 then begin
      let d = p.want.(p.slot.(g)) in
      p.slot.(g) <- p.slot.(g) + 1;
      (* [d] sits at a later slot of its group: the earlier ones
         already hold their cells *)
      if d <> c then Perm.exchange sp.Sp.beta c d
    end
  done
let factorial n =
  let rec go acc k =
    if k <= 1 then acc
    else begin
      if acc > max_int / k then
        invalid_arg "Symmetry.count_upper_bound: overflow";
      go (acc * k) (k - 1)
    end
  in
  go 1 n

let checked_mul a b =
  if a <> 0 && b <> 0 && a > max_int / b then
    invalid_arg "Symmetry.count_upper_bound: overflow"
  else a * b

let count_upper_bound ~n groups =
  let num = factorial n in
  let den =
    List.fold_left
      (fun acc g -> checked_mul acc (factorial (G.cardinal g)))
      1 groups
  in
  (* (n!)^2 / prod: n! is divisible by the m! product of disjoint
     groups (multinomial coefficient), so dividing first is exact and
     delays overflow; the final multiply is checked so the bound
     raises instead of wrapping. *)
  checked_mul (num / den) num

(* Enumerate permutations of 0..n-1 as arrays. *)
let all_perms n =
  let rec go acc prefix remaining =
    match remaining with
    | [] -> Array.of_list (List.rev prefix) :: acc
    | _ ->
        List.fold_left
          (fun acc c ->
            go acc (c :: prefix) (List.filter (fun d -> d <> c) remaining))
          acc remaining
  in
  go [] [] (List.init n Fun.id)

let count_exhaustive ~n groups =
  let perms = all_perms n |> List.map Perm.of_array |> Array.of_list in
  let p = plan ~n groups in
  let count = ref 0 in
  Array.iter
    (fun alpha ->
      Array.iter
        (fun beta ->
          let sp = Sp.make ~alpha ~beta in
          if feasible p sp then incr count)
        perms)
    perms;
  !count

let make_feasible sp groups =
  let sp = Sp.copy sp in
  repair (plan ~n:(Sp.size sp) groups) sp;
  sp

let random_feasible rng ~n groups =
  make_feasible (Sp.random rng n) groups

(* ------------------------------------------------------------------ *)
(* Symmetric packing: an exact vertical pass, a coupled horizontal    *)
(* fixpoint, and segregation when either has no solution.             *)

let axis2_of placed (g : group) =
  let rect c =
    List.find_map
      (fun (p : Transform.placed) -> if p.cell = c then Some p.rect else None)
      placed
  in
  let pair_axes =
    List.map
      (fun (a, b) ->
        match (rect a, rect b) with
        | Some ra, Some rb
          when ra.Rect.w = rb.Rect.w && ra.Rect.h = rb.Rect.h
               && ra.Rect.y = rb.Rect.y ->
            Some (ra.Rect.x + rb.Rect.x + ra.Rect.w)
        | _ -> None)
      g.G.pairs
  in
  let self_axes =
    List.map
      (fun f ->
        Option.map (fun (r : Rect.t) -> (2 * r.Rect.x) + r.Rect.w) (rect f))
      g.G.selfs
  in
  match pair_axes @ self_axes with
  | Some a :: rest when List.for_all (fun x -> x = Some a) rest -> Some a
  | [] | Some _ :: _ | None :: _ -> None

exception Diverged

(* One longest-path pass over [order.(0 .. m - 1)], front to back or
   ([rev]) back to front: every [a] before [b] in that order with [a]
   before [b] in beta pushes [b] past [a]'s far edge. In alpha order
   that closes the left-of graph, in reverse alpha order the below
   graph. The predecessors of [b] are the items already swept with a
   smaller beta position, so its bound is a prefix maximum over beta
   positions, O(m log n) (FAST-SP's recurrence, survey ref [26]);
   [bpos] must hold distinct positions in [0, n). The tree starts and
   ends empty: each item's path is reset after the pass. True if any
   coordinate rose. *)
let propagate p bpos coord extent order m rev =
  let changed = ref false in
  for i = 0 to m - 1 do
    let b = order.(if rev then m - 1 - i else i) in
    let bp = bpos.(b) in
    let need = Bit.prefix_max p.bit (bp - 1) in
    if coord.(b) < need then begin
      coord.(b) <- need;
      changed := true
    end;
    Bit.update p.bit bp (coord.(b) + extent.(b))
  done;
  for i = 0 to m - 1 do
    Bit.reset p.bit bpos.(order.(i))
  done;
  !changed

(* The vertical system: below-edges [y_b >= y_a + h_a] plus one
   equality per mirrored pair. Contracting each pair into one node (its
   left cell, [mate] its right) leaves a graph whose longest paths are
   the least solution, if it has no positive cycle. [visit] is Tarjan's
   strongly-connected-component walk over it, pulling from
   predecessors: a member [b] of node [v] has below it exactly the
   cells after [b] in alpha order and before it in beta. A node's
   longest path is final once its component is complete, and a
   predecessor still on the stack belongs to [v]'s own component, so
   only finished predecessors count. A component of several nodes is a
   cycle: positive, and so [Diverged], unless every cell on it has
   height 0, when its nodes share the largest value pulled in from
   outside. *)
let rec visit p cells m ~y ~h v =
  let idx = p.visits in
  p.visits <- idx + 1;
  p.index.(v) <- idx;
  p.low.(v) <- idx;
  let at = p.top in
  p.stack.(at) <- v;
  p.top <- at + 1;
  p.on_stack.(v) <- true;
  let acc = ref 0 and b = ref v and members = ref true in
  while !members do
    let bp = p.bpos.(!b) in
    for j = p.cidx.(!b) + 1 to m - 1 do
      let a = cells.(j) in
      if p.bpos.(a) < bp then begin
        let u = p.node.(a) in
        if p.index.(u) < 0 then begin
          visit p cells m ~y ~h u;
          if p.low.(u) < p.low.(v) then p.low.(v) <- p.low.(u)
        end
        else if p.on_stack.(u) && p.index.(u) < p.low.(v) then
          p.low.(v) <- p.index.(u);
        if not p.on_stack.(u) then begin
          let need = y.(u) + h.(a) in
          if need > !acc then acc := need
        end
      end
    done;
    let r = p.mate.(v) in
    if !b = v && r >= 0 then b := r else members := false
  done;
  y.(v) <- !acc;
  if p.low.(v) = p.index.(v) then begin
    (* [v] roots a component: everything above it on the stack *)
    let cyclic = p.top > at + 1 and top = ref 0 in
    for k = at to p.top - 1 do
      let u = p.stack.(k) in
      if cyclic && h.(u) > 0 then raise Diverged;
      if y.(u) > !top then top := y.(u)
    done;
    for k = at to p.top - 1 do
      let u = p.stack.(k) in
      p.on_stack.(u) <- false;
      y.(u) <- !top;
      let r = p.mate.(u) in
      if r >= 0 then y.(r) <- !top
    done;
    p.top <- at
  end

let vertical p cells m ~y ~h =
  for j = 0 to m - 1 do
    let c = cells.(j) in
    p.cidx.(c) <- j;
    p.index.(c) <- -1;
    p.on_stack.(c) <- false
  done;
  p.top <- 0;
  p.visits <- 0;
  for j = 0 to m - 1 do
    let v = p.node.(cells.(j)) in
    if p.index.(v) < 0 then visit p cells m ~y ~h v
  done

(* Lift every group in [g0 .. g1 - 1] onto one shared axis: the
   smallest doubled axis no pair or self needs to cross, never below
   the last one; right cells and selfs move onto it. True if any [x]
   moved. *)
let lift_x p ~x ~w g0 g1 =
  let changed = ref false in
  for g = g0 to g1 - 1 do
    let need = ref p.axis2.(g) in
    for k = p.pair_off.(g) to p.pair_off.(g + 1) - 1 do
      let l = p.node.(p.pa.(k)) in
      let v = x.(l) + x.(p.mate.(l)) + w.(l) in
      if v > !need then need := v
    done;
    let s0 = p.self_off.(g) and s1 = p.self_off.(g + 1) in
    for k = s0 to s1 - 1 do
      let f = p.selfs.(k) in
      let v = (2 * x.(f)) + w.(f) in
      if v > !need then need := v
    done;
    (* selfs share one width parity: the axis must match it *)
    if s1 > s0 && !need land 1 <> w.(p.selfs.(s0)) land 1 then incr need;
    if !need > p.axis2.(g) then p.axis2.(g) <- !need;
    let a2 = p.axis2.(g) in
    for k = p.pair_off.(g) to p.pair_off.(g + 1) - 1 do
      let l = p.node.(p.pa.(k)) in
      let r = p.mate.(l) in
      let v = a2 - x.(l) - w.(l) in
      if v <> x.(r) then begin
        (* v >= x.(r) by construction of a2 *)
        x.(r) <- v;
        changed := true
      end
    done;
    for k = s0 to s1 - 1 do
      let f = p.selfs.(k) in
      let v = (a2 - w.(f)) / 2 in
      if v <> x.(f) then begin
        x.(f) <- v;
        changed := true
      end
    done
  done;
  !changed

(* Coupled packing of [cells.(0 .. m - 1)] (alpha-ordered: every cell
   or one group's members; a sub-code keeps every relation between its
   cells) under groups [g0 .. g1 - 1], pairs oriented. Writes [x]/[y]
   of the cells; reads [w]/[h].

   Vertical: exact, one {!vertical} walk; [Diverged] on a positive
   cycle -- below-edges that, joined through pair equalities, climb
   from a cell back above itself, as when [b] is below [a'] and [a]
   below [b'] for pairs [(a, a')] and [(b, b')].

   Horizontal: a group's shared axis couples all its pairs, so
   longest-path passes alternate with {!lift_x} under the generous cap
   [10(m + G) + 20] passes. One pass in alpha order closes the left-of
   graph, so a lift that moves nothing ends the fixpoint: the next
   pass could not change anything either. The cap counts that pass as
   if it ran, as a loop that waited for a quiet pass would. The two
   systems are independent (the vertical one reads only [h]; the
   horizontal one writes only [x]), so the cheap-to-refute vertical
   one runs first. *)
let pack_coupled p ~x ~y ~w ~h cells m g0 g1 =
  vertical p cells m ~y ~h;
  for j = 0 to m - 1 do
    x.(cells.(j)) <- 0
  done;
  Array.fill p.axis2 g0 (g1 - g0) 0;
  let cap = (10 * (m + g1 - g0)) + 20 in
  let passes = ref 0 and quiet = ref false in
  while not !quiet do
    let moved = propagate p p.bpos x w cells m false in
    let lifted = lift_x p ~x ~w g0 g1 in
    if moved || lifted then begin
      incr passes;
      if !passes > cap then raise Diverged
    end;
    quiet := not lifted
  done

(* Terminal fallback for group [g]: rows of mirrored pairs around a
   column of self-symmetric cells, selfs padded to even widths --
   always symmetric and overlap-free, never minimal. Writes all four
   buffers of the group's cells. *)
let stacked_island p ~x ~y ~w ~h g =
  let pad w = w + (w land 1) in
  let max_self_w = ref 0 and max_pair_w = ref 0 in
  for k = p.self_off.(g) to p.self_off.(g + 1) - 1 do
    max_self_w := Int.max !max_self_w (pad p.self_w.(k))
  done;
  for k = p.pair_off.(g) to p.pair_off.(g + 1) - 1 do
    max_pair_w := Int.max !max_pair_w w.(p.pa.(k))
  done;
  (* axis2 is even: selfs are padded to even widths *)
  let axis = Int.max ((!max_self_w + 1) / 2) !max_pair_w in
  let row = ref 0 in
  for k = p.pair_off.(g) to p.pair_off.(g + 1) - 1 do
    let l = p.pa.(k) and r = p.pb.(k) in
    let cw = w.(l) and ch = h.(l) in
    x.(l) <- axis - cw;
    y.(l) <- !row;
    x.(r) <- axis;
    y.(r) <- !row;
    w.(r) <- cw;
    h.(r) <- ch;
    row := !row + ch
  done;
  for k = p.self_off.(g) to p.self_off.(g + 1) - 1 do
    let f = p.selfs.(k) in
    let cw = pad p.self_w.(k) in
    x.(f) <- axis - (cw / 2);
    y.(f) <- !row;
    w.(f) <- cw;
    row := !row + h.(f)
  done

let item p c = if p.group_of.(c) < 0 then c else p.n + p.group_of.(c)

(* Segregated fallback: each group becomes a symmetry island -- the
   coupled core on its members, or the stacked island if that diverges
   too -- shifted to the origin of its bounding box. The reduced code
   holds the free cells plus one item [n + g] per group, at the group's
   first occurrence in each sequence, and one {!propagate} per axis
   packs it. Loses free-cell interleaving inside island bounding boxes,
   keeps everything else. *)
let pack_segregated p ~x ~y ~w ~h =
  let n = p.n in
  for i = 0 to n + p.ng - 1 do
    p.rbpos.(i) <- max_int;
    p.rw.(i) <- (if i < n then w.(i) else 0);
    p.rh.(i) <- (if i < n then h.(i) else 0);
    p.rx.(i) <- 0;
    p.ry.(i) <- 0;
    p.seen.(i) <- false
  done;
  for c = 0 to n - 1 do
    let i = item p c in
    if p.bpos.(c) < p.rbpos.(i) then p.rbpos.(i) <- p.bpos.(c)
  done;
  for g = 0 to p.ng - 1 do
    let m = ref 0 in
    for pos = 0 to n - 1 do
      let c = p.alpha_order.(pos) in
      if p.group_of.(c) = g then begin
        p.cells.(!m) <- c;
        incr m
      end
    done;
    let m = !m in
    (match pack_coupled p ~x ~y ~w ~h p.cells m g (g + 1) with
    | () -> ()
    | exception Diverged -> stacked_island p ~x ~y ~w ~h g);
    let x0 = ref max_int and y0 = ref max_int in
    for j = 0 to m - 1 do
      let c = p.cells.(j) in
      x0 := Int.min !x0 x.(c);
      y0 := Int.min !y0 y.(c)
    done;
    let i = n + g in
    for j = 0 to m - 1 do
      let c = p.cells.(j) in
      x.(c) <- x.(c) - !x0;
      y.(c) <- y.(c) - !y0;
      p.rw.(i) <- Int.max p.rw.(i) (x.(c) + w.(c));
      p.rh.(i) <- Int.max p.rh.(i) (y.(c) + h.(c))
    done
  done;
  let items = ref 0 in
  for pos = 0 to n - 1 do
    let i = item p p.alpha_order.(pos) in
    if not p.seen.(i) then begin
      p.seen.(i) <- true;
      p.order.(!items) <- i;
      incr items
    end
  done;
  ignore (propagate p p.rbpos p.rx p.rw p.order !items false : bool);
  ignore (propagate p p.rbpos p.ry p.rh p.order !items true : bool);
  for c = 0 to n - 1 do
    let i = item p c in
    if i = c then begin
      x.(c) <- p.rx.(c);
      y.(c) <- p.ry.(c)
    end
    else begin
      x.(c) <- x.(c) + p.rx.(i);
      y.(c) <- y.(c) + p.ry.(i)
    end
  done

(* Orient pair [k] onward as (left, right) in the code and contract
   each into its vertical node; the first pair whose cells differ in
   size or are related vertically is the error. *)
let rec orient p sp ~w ~h k =
  if k = Array.length p.pa then None
  else begin
    let a = p.pa.(k) and b = p.pb.(k) in
    if w.(a) <> w.(b) || h.(a) <> h.(b) then
      Some (Printf.sprintf "pair (%d,%d) dimension mismatch" a b)
    else begin
      let first_alpha = Perm.pos_of sp.Sp.alpha a < Perm.pos_of sp.Sp.alpha b
      and first_beta = Perm.pos_of sp.Sp.beta a < Perm.pos_of sp.Sp.beta b in
      if first_alpha <> first_beta then
        Some (Printf.sprintf "pair (%d,%d) vertically related; not S-F" a b)
      else begin
        let l = if first_alpha then a else b
        and r = if first_alpha then b else a in
        p.node.(r) <- l;
        p.mate.(l) <- r;
        orient p sp ~w ~h (k + 1)
      end
    end
  end

let pack_into ~tally p ~x ~y ~w ~h sp =
  if not (feasible p sp) then Error "sequence-pair is not symmetric-feasible"
  else begin
    for c = 0 to p.n - 1 do
      p.node.(c) <- c;
      p.mate.(c) <- -1
    done;
    match orient p sp ~w ~h 0 with
    | Some msg -> Error msg
    | None ->
        (* Pad self-symmetric widths to a common parity per group so an
           exact integer axis exists. *)
        for g = 0 to p.ng - 1 do
          let s0 = p.self_off.(g) in
          for k = s0 to p.self_off.(g + 1) - 1 do
            let f = p.selfs.(k) in
            p.self_w.(k) <- w.(f);
            if w.(f) land 1 <> w.(p.selfs.(s0)) land 1 then w.(f) <- w.(f) + 1
          done
        done;
        for pos = 0 to p.n - 1 do
          let c = Perm.cell_at sp.Sp.alpha pos in
          p.alpha_order.(pos) <- c;
          p.bpos.(c) <- Perm.pos_of sp.Sp.beta c
        done;
        (match pack_coupled p ~x ~y ~w ~h p.alpha_order p.n 0 p.ng with
        | () -> ()
        | exception Diverged ->
            Telemetry.Counter.incr tally;
            pack_segregated p ~x ~y ~w ~h);
        Ok ()
  end

let pack_symmetric_into ?(tally = Telemetry.Counter.null) ~x ~y ~w ~h sp dims
    groups =
  let n = Sp.size sp in
  for c = 0 to n - 1 do
    let cw, ch = dims c in
    w.(c) <- cw;
    h.(c) <- ch
  done;
  pack_into ~tally (plan ~n groups) ~x ~y ~w ~h sp

(* The list form: the buffer core on fresh arrays. The right cell of
   every mirrored pair is placed [MY]. *)
let pack_symmetric sp dims groups =
  let n = Sp.size sp in
  let x = Array.make n 0 and y = Array.make n 0 in
  let w = Array.make n 0 and h = Array.make n 0 in
  Result.map
    (fun () ->
      let mirrored = Array.make n false in
      List.iter
        (fun (g : group) ->
          List.iter
            (fun (a, b) -> mirrored.(if x.(a) < x.(b) then b else a) <- true)
            g.G.pairs)
        groups;
      List.init n (fun c ->
          {
            Transform.cell = c;
            rect = Rect.make ~x:x.(c) ~y:y.(c) ~w:w.(c) ~h:h.(c);
            orient = (if mirrored.(c) then Orientation.MY else Orientation.R0);
          }))
    (pack_symmetric_into ~x ~y ~w ~h sp dims groups)
