(* Flat-array B*-trees.

   The pointer representation in {!Tree} is the right tool for
   construction and analysis, but the annealing hot path wants three
   things it cannot give: O(1) structural moves, O(1) reversal of a
   rejected move, and packing that touches no allocator. This module
   stores one tree as six int arrays. Nodes are dense indices
   [0, n); [cell]/[node] are mutually inverse relabelings, so swapping
   the cells of two nodes never touches the structure arrays, and the
   structure arrays ([left]/[right]/[parent], [-1] = absent, the root
   carrying the free parent slot) support detaching and re-attaching a
   leaf in constant time. A side array of current leaves makes the
   random leaf of the classic B*-tree move set an O(1) draw. *)

type t = {
  n : int;
  cell : int array;  (* node -> cell label *)
  node : int array;  (* cell -> node holding it (inverse of [cell]) *)
  left : int array;  (* node -> left-child node, -1 when absent *)
  right : int array;
  parent : int array;  (* node -> parent node; -1 marks the root *)
  mutable root : int;
  (* current leaves, for O(1) uniform selection: [leaves.(0 ..
     n_leaves-1)] are the leaf nodes, [leaf_pos] the inverse index
     (-1 for internal nodes) *)
  leaves : int array;
  leaf_pos : int array;
  mutable n_leaves : int;
  stack : int array;  (* pre-order traversal scratch for [pack_into] *)
  slot : int array;  (* node -> its top's contour segment, per pack *)
}

type side = L | R

type undo =
  | U_nothing
  | U_swap of int * int  (* the two cells that exchanged nodes *)
  | U_move of {
      leaf : int;  (* the node that moved *)
      src : int;  (* its original parent *)
      src_side : side;  (* the slot it left *)
    }

let nil = -1
let size t = t.n
let root t = t.root
let cell_at t m = t.cell.(m)
let node_of t c = t.node.(c)
let left_of t m = t.left.(m)
let right_of t m = t.right.(m)
let parent_of t m = t.parent.(m)
let is_leaf t m = t.left.(m) = nil && t.right.(m) = nil
let leaf_count t = t.n_leaves

let leaf_nodes t = Array.to_list (Array.sub t.leaves 0 t.n_leaves)

(* ---- leaf-set bookkeeping ----------------------------------------- *)

let leaf_add t m =
  if t.leaf_pos.(m) = nil then begin
    t.leaves.(t.n_leaves) <- m;
    t.leaf_pos.(m) <- t.n_leaves;
    t.n_leaves <- t.n_leaves + 1
  end

let leaf_remove t m =
  let p = t.leaf_pos.(m) in
  if p <> nil then begin
    let last = t.leaves.(t.n_leaves - 1) in
    t.leaves.(p) <- last;
    t.leaf_pos.(last) <- p;
    t.leaf_pos.(m) <- nil;
    t.n_leaves <- t.n_leaves - 1
  end

let rebuild_leaves t =
  t.n_leaves <- 0;
  Array.fill t.leaf_pos 0 t.n nil;
  for m = 0 to t.n - 1 do
    if is_leaf t m then leaf_add t m
  done

(* ---- conversions -------------------------------------------------- *)

let of_tree tree =
  let n = Tree.size tree in
  let t =
    {
      n;
      cell = Array.make n nil;
      node = Array.make n nil;
      left = Array.make n nil;
      right = Array.make n nil;
      parent = Array.make n nil;
      root = 0;
      leaves = Array.make n nil;
      leaf_pos = Array.make n nil;
      n_leaves = 0;
      stack = Array.make n 0;
      slot = Array.make n 0;
    }
  in
  (* pre-order node numbering; cells must be a permutation of [0, n) *)
  let next = ref 0 in
  let rec go (node : Tree.t) p =
    let m = !next in
    incr next;
    let c = node.Tree.cell in
    if c < 0 || c >= n || t.node.(c) <> nil then
      invalid_arg "Flat.of_tree: cells are not a permutation of 0..n-1";
    t.cell.(m) <- c;
    t.node.(c) <- m;
    t.parent.(m) <- p;
    (match node.Tree.left with Some l -> t.left.(m) <- go l m | None -> ());
    (match node.Tree.right with Some r -> t.right.(m) <- go r m | None -> ());
    m
  in
  t.root <- go tree nil;
  rebuild_leaves t;
  t

let to_tree t =
  let rec go m =
    {
      Tree.cell = t.cell.(m);
      left = (if t.left.(m) = nil then None else Some (go t.left.(m)));
      right = (if t.right.(m) = nil then None else Some (go t.right.(m)));
    }
  in
  go t.root

let copy t =
  {
    n = t.n;
    cell = Array.copy t.cell;
    node = Array.copy t.node;
    left = Array.copy t.left;
    right = Array.copy t.right;
    parent = Array.copy t.parent;
    root = t.root;
    leaves = Array.copy t.leaves;
    leaf_pos = Array.copy t.leaf_pos;
    n_leaves = t.n_leaves;
    stack = Array.make t.n 0;
    slot = Array.make t.n 0;
  }

let blit ~src ~dst =
  if src.n <> dst.n then invalid_arg "Flat.blit: size mismatch";
  Array.blit src.cell 0 dst.cell 0 src.n;
  Array.blit src.node 0 dst.node 0 src.n;
  Array.blit src.left 0 dst.left 0 src.n;
  Array.blit src.right 0 dst.right 0 src.n;
  Array.blit src.parent 0 dst.parent 0 src.n;
  Array.blit src.leaves 0 dst.leaves 0 src.n;
  Array.blit src.leaf_pos 0 dst.leaf_pos 0 src.n;
  dst.root <- src.root;
  dst.n_leaves <- src.n_leaves

let equal a b =
  (* exact structural equality, node numbering included; the leaf-set
     array order is bookkeeping, not structure *)
  a.n = b.n && a.root = b.root && a.cell = b.cell && a.node = b.node
  && a.left = b.left && a.right = b.right && a.parent = b.parent

(* ---- O(1) perturbations ------------------------------------------- *)

let swap_cells t a b =
  let na = t.node.(a) and nb = t.node.(b) in
  t.cell.(na) <- b;
  t.cell.(nb) <- a;
  t.node.(a) <- nb;
  t.node.(b) <- na;
  U_swap (a, b)

let child t m = function L -> t.left.(m) | R -> t.right.(m)

let set_child t m side v =
  match side with L -> t.left.(m) <- v | R -> t.right.(m) <- v

let side_of t m =
  let p = t.parent.(m) in
  if t.left.(p) = m then L else R

(* Detach leaf [l] from its parent; [l] keeps its leaf-set slot, the
   parent may gain one. *)
let detach_leaf t l =
  let p = t.parent.(l) in
  let s = side_of t l in
  set_child t p s nil;
  t.parent.(l) <- nil;
  if is_leaf t p then leaf_add t p;
  (p, s)

(* Attach the detached leaf [l] under [dst] at [side] (must be free). *)
let attach_leaf t l dst side =
  if child t dst side <> nil then invalid_arg "Flat.attach_leaf: occupied";
  leaf_remove t dst;
  set_child t dst side l;
  t.parent.(l) <- dst

let undo t = function
  | U_nothing -> ()
  | U_swap (a, b) -> ignore (swap_cells t a b)
  | U_move { leaf; src; src_side } ->
      let _ = detach_leaf t leaf in
      attach_leaf t leaf src src_side

(* Random structural move, mirroring the classic B*-tree move set: a
   cell swap or a leaf relocation, uniformly. Single-node trees have
   no structural moves. *)
let perturb rng t =
  if t.n < 2 then U_nothing
  else if Prelude.Rng.bool rng then begin
    let i = Prelude.Rng.int rng t.n in
    let j = (i + 1 + Prelude.Rng.int rng (t.n - 1)) mod t.n in
    swap_cells t i j
  end
  else begin
    let leaf = t.leaves.(Prelude.Rng.int rng t.n_leaves) in
    let src, src_side = detach_leaf t leaf in
    (* uniform (node, side) over the remaining n-1 nodes; at least half
       of the 2(n-1) slots are free, so rejection terminates fast *)
    let dst = ref nil and dst_side = ref L in
    while !dst = nil do
      let r = Prelude.Rng.int rng (t.n - 1) in
      let m = if r >= leaf then r + 1 else r in
      let s = if Prelude.Rng.bool rng then L else R in
      if child t m s = nil then begin
        dst := m;
        dst_side := s
      end
    done;
    attach_leaf t leaf !dst !dst_side;
    U_move { leaf; src; src_side }
  end

(* ---- allocation-free packing -------------------------------------- *)

(* Iterative pre-order over the explicit stack — the exact recursion
   order of [Tree.pack] (node, left subtree, right subtree), so the
   contour sees identical drops and the coordinates match the pointer
   path bit for bit (tested). [w]/[h] are read and [x]/[y] written per
   cell. Each drop scans from its parent's top segment instead of the
   contour's head: a left child lands at that segment's right edge,
   the node right after its parent; a right child lands at its left
   edge, after the parent's left subtree, which lies right of the
   parent and never touches it. A scan then only walks segments the
   drop covers, so a pack is amortised O(n) instead of O(n^2). *)
let pack_into ?(tally = Telemetry.Counter.null) t contour ~w ~h ~x ~y =
  Telemetry.Counter.incr tally;
  Geometry.Contour.clear contour;
  let stack = t.stack in
  let top = ref 0 in
  stack.(0) <- t.root;
  incr top;
  while !top > 0 do
    decr top;
    let m = stack.(!top) in
    let c = t.cell.(m) in
    let p = t.parent.(m) in
    let cx =
      if p = nil then 0
      else
        let pc = t.cell.(p) in
        if t.left.(p) = m then x.(pc) + w.(pc) else x.(pc)
    and from = if p = nil then Geometry.Contour.head else t.slot.(p) in
    x.(c) <- cx;
    y.(c) <- Geometry.Contour.drop_from contour ~from ~x:cx ~w:w.(c) ~h:h.(c);
    t.slot.(m) <- Geometry.Contour.last_slot contour;
    (* push right first so the left subtree is packed first *)
    if t.right.(m) <> nil then begin
      stack.(!top) <- t.right.(m);
      incr top
    end;
    if t.left.(m) <> nil then begin
      stack.(!top) <- t.left.(m);
      incr top
    end
  done

let pp ppf t = Tree.pp ppf (to_tree t)
