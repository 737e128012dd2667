open Geometry

type group = Constraints.Symmetry_group.t

module G = Constraints.Symmetry_group

let is_feasible sp (g : group) =
  let members = G.members g in
  let apos c = Perm.pos_of sp.Sp.alpha c in
  let bpos c = Perm.pos_of sp.Sp.beta c in
  let sym c = Option.get (G.sym g c) in
  List.for_all
    (fun x ->
      List.for_all
        (fun y ->
          x = y || Bool.equal (apos x < apos y) (bpos (sym y) < bpos (sym x)))
        members)
    members

let is_feasible_all sp groups = List.for_all (is_feasible sp) groups

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
  let count = ref 0 in
  Array.iter
    (fun alpha ->
      Array.iter
        (fun beta ->
          let sp = Sp.make ~alpha ~beta in
          if is_feasible_all sp groups then incr count)
        perms)
    perms;
  !count

(* Property (1) says: in beta, the group members appear exactly in
   decreasing alpha-position of their symmetric counterparts. *)
let make_feasible sp groups =
  let beta =
    List.fold_left
      (fun beta (g : group) ->
        let members = G.members g in
        let order =
          List.sort
            (fun u v ->
              Int.compare
                (Perm.pos_of sp.Sp.alpha (Option.get (G.sym g v)))
                (Perm.pos_of sp.Sp.alpha (Option.get (G.sym g u))))
            members
        in
        Perm.reorder_cells beta ~cells:members ~order)
      sp.Sp.beta groups
  in
  Sp.make ~alpha:sp.Sp.alpha ~beta

let random_feasible rng ~n groups =
  make_feasible (Sp.random rng n) groups

(* ------------------------------------------------------------------ *)
(* Symmetric packing: coupled constraint-graph fixpoint.               *)

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

exception Infeasible of string
exception Diverged

(* One longest-path pass over [order]: every [a] before [b] in [order]
   with [a] before [b] in beta pushes [b] past [a]'s far edge. In
   alpha order that closes the left-of graph, in reverse alpha order
   the below graph. True if any coordinate rose. *)
let propagate (bpos : int array) coord extent order =
  let changed = ref false in
  for pos = 0 to Array.length order - 1 do
    let b = order.(pos) in
    let bp = bpos.(b) in
    for pos_a = 0 to pos - 1 do
      let a = order.(pos_a) in
      if bpos.(a) < bp then begin
        let need = coord.(a) + extent.(a) in
        if coord.(b) < need then begin
          coord.(b) <- need;
          changed := true
        end
      end
    done
  done;
  !changed

let reversed order =
  let n = Array.length order in
  Array.init n (fun i -> order.(n - 1 - i))

let self_parity w (g : group) =
  match g.G.selfs with [] -> None | f :: _ -> Some (w.(f) land 1)

(* Coupled packing of [cells] (alpha-ordered: every cell or one group's
   members; a sub-code keeps every relation between its cells) under
   [oriented], each group with its pairs as (left, right): longest-path
   lower bounds alternating with per-group axis lifting, one fixpoint
   per axis. Writes [x]/[y] of [cells]; reads [w]/[h].

   Vertical: "below" edges [y_b >= y_a + h_a] form a DAG that one
   [propagate] sweep in reverse-alpha order closes; each mirrored pair
   adds a zero-weight equality, and one [lift_y] closes one hop of each
   (pairs are disjoint). The least solution is a longest path. Without
   a positive cycle that path can be taken simple, so it crosses each
   of the [P] pairs at most once: pass [P] is the last that can change
   anything and pass [P + 1] reports no change. A positive cycle --
   below-edges that, joined through pair equalities, climb from a cell
   back above itself, as when [b] is below [a'] and [a] below [b'] for
   pairs [(a, a')] and [(b, b')] -- never settles, so the cap [P + 1]
   raises [Diverged] on exactly those codes.

   Horizontal: a group's shared axis couples all its pairs, so no exact
   bound is claimed and the generous cap [10(n + G) + 20] stays, [n]
   the cells packed. The two fixpoints are independent (the vertical
   one reads only [h]; the horizontal one writes only [x]), so the
   cheap-to-refute vertical one runs first. *)
let pack_coupled_into ~x ~y ~w ~h bpos cells oriented =
  Array.iter
    (fun c ->
      x.(c) <- 0;
      y.(c) <- 0)
    cells;
  let axis2 = Array.make (List.length oriented) 0 in
  let lift_x () =
    let changed = ref false in
    List.iteri
      (fun gi ((g : group), pairs) ->
        let need = ref axis2.(gi) in
        List.iter
          (fun (l, r) -> need := max !need (x.(l) + x.(r) + w.(l)))
          pairs;
        List.iter (fun f -> need := max !need ((2 * x.(f)) + w.(f))) g.G.selfs;
        (match self_parity w g with
        | Some p when !need land 1 <> p -> incr need
        | Some _ | None -> ());
        if !need > axis2.(gi) then axis2.(gi) <- !need;
        let a2 = axis2.(gi) in
        List.iter
          (fun (l, r) ->
            let v = a2 - x.(l) - w.(l) in
            if v <> x.(r) then begin
              (* v >= x.(r) by construction of a2 *)
              x.(r) <- v;
              changed := true
            end)
          pairs;
        List.iter
          (fun f ->
            let v = (a2 - w.(f)) / 2 in
            if v <> x.(f) then begin
              x.(f) <- v;
              changed := true
            end)
          g.G.selfs)
      oriented;
    !changed
  in
  let lift_y () =
    let changed = ref false in
    List.iter
      (fun ((_ : group), pairs) ->
        List.iter
          (fun (l, r) ->
            let m = max y.(l) y.(r) in
            if y.(l) <> m || y.(r) <> m then begin
              y.(l) <- m;
              y.(r) <- m;
              changed := true
            end)
          pairs)
      oriented;
    !changed
  in
  let rec fix ~cap pass iter =
    if iter > cap then raise Diverged
    else if pass () then fix ~cap pass (iter + 1)
  in
  let n_pairs =
    List.fold_left (fun acc (_, pairs) -> acc + List.length pairs) 0 oriented
  in
  let rev_cells = reversed cells in
  fix ~cap:(n_pairs + 1)
    (fun () ->
      let a = propagate bpos y h rev_cells in
      let b = lift_y () in
      a || b)
    0;
  fix
    ~cap:((10 * (Array.length cells + List.length oriented)) + 20)
    (fun () ->
      let a = propagate bpos x w cells in
      let b = lift_x () in
      a || b)
    0

(* Terminal fallback for one group: rows of mirrored pairs around a
   column of self-symmetric cells, selfs padded to even widths --
   always symmetric and overlap-free, never minimal. Writes all four
   buffers of the group's cells. *)
let stacked_island ~x ~y ~w ~h dims (g : group) =
  let pad w = w + (w land 1) in
  let max_self_w =
    List.fold_left (fun acc f -> max acc (pad (fst (dims f)))) 0 g.G.selfs
  in
  let max_pair_w =
    List.fold_left (fun acc (a, _) -> max acc (fst (dims a))) 0 g.G.pairs
  in
  (* axis2 is even: selfs are padded to even widths *)
  let axis = max ((max_self_w + 1) / 2) max_pair_w in
  let row = ref 0 in
  let put c ~x:cx ~w:cw ~h:ch =
    x.(c) <- cx;
    y.(c) <- !row;
    w.(c) <- cw;
    h.(c) <- ch
  in
  List.iter
    (fun (l, r) ->
      let cw, ch = dims l in
      put l ~x:(axis - cw) ~w:cw ~h:ch;
      put r ~x:axis ~w:cw ~h:ch;
      row := !row + ch)
    g.G.pairs;
  List.iter
    (fun f ->
      let cw, ch = dims f in
      let cw = pad cw in
      put f ~x:(axis - (cw / 2)) ~w:cw ~h:ch;
      row := !row + ch)
    g.G.selfs

(* Segregated fallback: each group becomes a symmetry island -- the
   coupled core on its members, or the stacked island if that diverges
   too -- shifted to the origin of its bounding box. The reduced code
   holds the free cells plus one item [n + gi] per group, at the
   group's first occurrence in each sequence, and one [propagate] per
   axis packs it. Loses free-cell interleaving inside island bounding
   boxes, keeps everything else. *)
let pack_segregated ~x ~y ~w ~h dims bpos alpha_order oriented =
  let n = Array.length alpha_order in
  let items = n + List.length oriented in
  let group_of = Array.make n (-1) in
  List.iteri
    (fun gi ((g : group), _) ->
      List.iter (fun m -> group_of.(m) <- gi) (G.members g))
    oriented;
  let item c = if group_of.(c) < 0 then c else n + group_of.(c) in
  let rbpos = Array.make items max_int in
  Array.iteri (fun c p -> rbpos.(item c) <- min rbpos.(item c) p) bpos;
  let rw = Array.init items (fun i -> if i < n then w.(i) else 0) in
  let rh = Array.init items (fun i -> if i < n then h.(i) else 0) in
  List.iteri
    (fun gi (((g : group), _) as og) ->
      let cells =
        Array.of_list
          (List.filter (fun c -> group_of.(c) = gi) (Array.to_list alpha_order))
      in
      (match pack_coupled_into ~x ~y ~w ~h bpos cells [ og ] with
      | () -> ()
      | exception Diverged -> stacked_island ~x ~y ~w ~h dims g);
      let x0 = Array.fold_left (fun m c -> min m x.(c)) max_int cells in
      let y0 = Array.fold_left (fun m c -> min m y.(c)) max_int cells in
      Array.iter
        (fun c ->
          x.(c) <- x.(c) - x0;
          y.(c) <- y.(c) - y0;
          rw.(n + gi) <- max rw.(n + gi) (x.(c) + w.(c));
          rh.(n + gi) <- max rh.(n + gi) (y.(c) + h.(c)))
        cells)
    oriented;
  let seen = Array.make items false in
  let order =
    Array.to_list alpha_order
    |> List.filter_map (fun c ->
           let i = item c in
           if seen.(i) then None
           else begin
             seen.(i) <- true;
             Some i
           end)
    |> Array.of_list
  in
  let rx = Array.make items 0 and ry = Array.make items 0 in
  ignore (propagate rbpos rx rw order : bool);
  ignore (propagate rbpos ry rh (reversed order) : bool);
  for c = 0 to n - 1 do
    let i = item c in
    if i = c then begin
      x.(c) <- rx.(c);
      y.(c) <- ry.(c)
    end
    else begin
      x.(c) <- x.(c) + rx.(i);
      y.(c) <- y.(c) + ry.(i)
    end
  done

(* Each group with its pairs as (left, right) in the code; raises
   [Infeasible] on a pair whose cells differ in size or are related
   vertically. *)
let orient sp ~w ~h groups =
  List.map
    (fun (g : group) ->
      ( g,
        List.map
          (fun (a, b) ->
            if w.(a) <> w.(b) || h.(a) <> h.(b) then
              raise
                (Infeasible
                   (Printf.sprintf "pair (%d,%d) dimension mismatch" a b));
            match Sp.relation sp a b with
            | Sp.Left_of -> (a, b)
            | Sp.Right_of -> (b, a)
            | Sp.Below | Sp.Above ->
                raise
                  (Infeasible
                     (Printf.sprintf "pair (%d,%d) vertically related; not S-F"
                        a b)))
          g.G.pairs ))
    groups

let pack_symmetric_into ?(tally = Telemetry.Counter.null) ~x ~y ~w ~h sp dims
    groups =
  if not (is_feasible_all sp groups) then
    Error "sequence-pair is not symmetric-feasible"
  else begin
    let n = Sp.size sp in
    for c = 0 to n - 1 do
      let cw, ch = dims c in
      w.(c) <- cw;
      h.(c) <- ch
    done;
    match orient sp ~w ~h groups with
    | exception Infeasible msg -> Error msg
    | oriented ->
        (* Pad self-symmetric widths to a common parity per group so an
           exact integer axis exists. *)
        List.iter
          (fun (g : group) ->
            match self_parity w g with
            | None -> ()
            | Some parity ->
                List.iter
                  (fun f -> if w.(f) land 1 <> parity then w.(f) <- w.(f) + 1)
                  g.G.selfs)
          groups;
        let alpha_order = Array.init n (Perm.cell_at sp.Sp.alpha) in
        let bpos = Array.init n (Perm.pos_of sp.Sp.beta) in
        (match pack_coupled_into ~x ~y ~w ~h bpos alpha_order oriented with
        | () -> ()
        | exception Diverged ->
            Telemetry.Counter.incr tally;
            pack_segregated ~x ~y ~w ~h dims bpos alpha_order oriented);
        Ok ()
  end

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
