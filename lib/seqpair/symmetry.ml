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

(* Minimal coupled packing: longest-path lower bounds alternating with
   per-group axis lifting, one fixpoint per axis.

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
   bound is claimed and the generous cap stays. The two fixpoints are
   independent (the vertical one reads only [h]; the horizontal one
   writes only [x] and padded [w]), so the cheap-to-refute vertical one
   runs first. On [Diverged] the caller falls back to symmetry-island
   segregation.

   The [_into] core writes coordinates (and possibly parity-padded
   widths) into caller buffers and returns the cells placed on the
   right-hand side of their axis, so the annealing arena can evaluate
   symmetric packings without materializing placement lists. *)
let pack_coupled_into ~x ~y ~w ~h sp dims groups =
  let n = Sp.size sp in
  begin
    if not (is_feasible_all sp groups) then
      raise (Infeasible "sequence-pair is not symmetric-feasible");
    for c = 0 to n - 1 do
      let cw, ch = dims c in
      w.(c) <- cw;
      h.(c) <- ch
    done;
    Array.fill x 0 n 0;
    Array.fill y 0 n 0;
    (* Validate matched pair dimensions and orient pairs left/right. *)
    let oriented_pairs =
      List.map
        (fun (g : group) ->
          let pairs =
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
                         (Printf.sprintf
                            "pair (%d,%d) vertically related; not S-F" a b)))
              g.G.pairs
          in
          (g, pairs))
        groups
    in
    (* Pad self-symmetric widths to a common parity per group so an
       exact integer axis exists. *)
    List.iter
      (fun (g : group) ->
        match g.G.selfs with
        | [] -> ()
        | first :: rest ->
            let parity = w.(first) land 1 in
            List.iter
              (fun f -> if w.(f) land 1 <> parity then w.(f) <- w.(f) + 1)
              rest)
      groups;
    let self_parity (g : group) =
      match g.G.selfs with [] -> None | f :: _ -> Some (w.(f) land 1)
    in
    (* Precompute the left-of and below predecessor lists. *)
    let alpha_order = Array.init n (Perm.cell_at sp.Sp.alpha) in
    let bpos c = Perm.pos_of sp.Sp.beta c in
    (* Longest-path pass respecting current values; true if anything
       rose. *)
    let propagate coord extent order =
      let changed = ref false in
      let len = Array.length order in
      for pos = 0 to len - 1 do
        let b = order.(pos) in
        for pos_a = 0 to pos - 1 do
          let a = order.(pos_a) in
          if bpos a < bpos b then begin
            let need = coord.(a) + extent.(a) in
            if coord.(b) < need then begin
              coord.(b) <- need;
              changed := true
            end
          end
        done
      done;
      !changed
    in
    let rev_alpha_order = Array.init n (fun i -> alpha_order.(n - 1 - i)) in
    let axis2 = Array.make (List.length groups) 0 in
    let lift_x () =
      let changed = ref false in
      List.iteri
        (fun gi ((g : group), pairs) ->
          let need = ref axis2.(gi) in
          List.iter
            (fun (l, r) -> need := max !need (x.(l) + x.(r) + w.(l)))
            pairs;
          List.iter
            (fun f -> need := max !need ((2 * x.(f)) + w.(f)))
            g.G.selfs;
          (match self_parity g with
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
        oriented_pairs;
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
        oriented_pairs;
      !changed
    in
    let rec fix ~cap pass iter =
      if iter > cap then raise Diverged
      else if pass () then fix ~cap pass (iter + 1)
    in
    let n_pairs =
      List.fold_left (fun acc (_, pairs) -> acc + List.length pairs) 0
        oriented_pairs
    in
    fix ~cap:(n_pairs + 1)
      (fun () ->
        let a = propagate y h rev_alpha_order in
        let b = lift_y () in
        a || b)
      0;
    fix
      ~cap:((10 * (n + List.length groups)) + 20)
      (fun () ->
        let a = propagate x w alpha_order in
        let b = lift_x () in
        a || b)
      0;
    List.concat_map (fun (_, pairs) -> List.map snd pairs) oriented_pairs
  end

let pack_coupled sp dims groups =
  let n = Sp.size sp in
  let x = Array.make n 0 and y = Array.make n 0 in
  let w = Array.make n 0 and h = Array.make n 0 in
  let right_cells = pack_coupled_into ~x ~y ~w ~h sp dims groups in
  List.init n (fun c ->
      let orient =
        if List.mem c right_cells then Orientation.MY else Orientation.R0
      in
      (* widths may have been padded; place with the padded size *)
      {
        Transform.cell = c;
        rect = Rect.make ~x:x.(c) ~y:y.(c) ~w:w.(c) ~h:h.(c);
        orient;
      })

(* Terminal fallback for one group: rows of mirrored pairs around a
   column of self-symmetric cells — always symmetric and overlap-free,
   never minimal. *)
let stacked_island dims (g : group) =
  let pad w = w + (w land 1) in
  let max_self_w =
    List.fold_left (fun acc f -> max acc (pad (fst (dims f)))) 0 g.G.selfs
  in
  let max_pair_w =
    List.fold_left (fun acc (a, _) -> max acc (fst (dims a))) 0 g.G.pairs
  in
  (* axis2 is even: selfs are padded to even widths *)
  let axis = max ((max_self_w + 1) / 2) max_pair_w in
  let y = ref 0 in
  let pairs =
    List.concat_map
      (fun (l, r) ->
        let w, h = dims l in
        let row_y = !y in
        y := !y + h;
        [
          {
            Transform.cell = l;
            rect = Rect.make ~x:(axis - w) ~y:row_y ~w ~h;
            orient = Orientation.MY;
          };
          {
            Transform.cell = r;
            rect = Rect.make ~x:axis ~y:row_y ~w ~h;
            orient = Orientation.R0;
          };
        ])
      g.G.pairs
  in
  let selfs =
    List.map
      (fun f ->
        let w, h = dims f in
        let w = pad w in
        let row_y = !y in
        y := !y + h;
        {
          Transform.cell = f;
          rect = Rect.make ~x:(axis - (w / 2)) ~y:row_y ~w ~h;
          orient = Orientation.R0;
        })
      g.G.selfs
  in
  pairs @ selfs

(* Segregated fallback: each group packed as a symmetry island from its
   own sub-sequence-pair, then the reduced sequence-pair (islands as
   super-cells) packed normally. Loses free-cell interleaving inside
   island bounding boxes, keeps everything else. *)
let pack_segregated sp dims groups =
  let n = Sp.size sp in
  let group_of = Array.make n None in
  List.iteri
    (fun gi g -> List.iter (fun m -> group_of.(m) <- Some gi) (G.members g))
    groups;
  (* 1. per-group islands from the restricted sequence-pair *)
  let islands =
    List.map
      (fun (g : group) ->
        let members =
          List.filter (fun c -> G.mem g c) (Perm.to_list sp.Sp.alpha)
        in
        let local_of = Hashtbl.create 8 in
        List.iteri (fun i c -> Hashtbl.replace local_of c i) members;
        let local c = Hashtbl.find local_of c in
        let to_perm order =
          Perm.of_array
            (Array.of_list (List.map local (List.filter (G.mem g) order)))
        in
        let mini_sp =
          Sp.make
            ~alpha:(to_perm (Perm.to_list sp.Sp.alpha))
            ~beta:(to_perm (Perm.to_list sp.Sp.beta))
        in
        let members_arr = Array.of_list members in
        let mini_dims i = dims members_arr.(i) in
        let mini_g =
          G.make ~name:g.G.name
            ~pairs:(List.map (fun (a, b) -> (local a, local b)) g.G.pairs)
            ~selfs:(List.map local g.G.selfs) ()
        in
        let local_placed =
          match pack_coupled mini_sp mini_dims [ mini_g ] with
          | placed -> placed
          | exception Diverged -> stacked_island mini_dims mini_g
        in
        (* back to global cell ids, normalized to the origin *)
        let placed =
          List.map
            (fun (p : Transform.placed) ->
              { p with Transform.cell = members_arr.(p.Transform.cell) })
            local_placed
        in
        let bbox =
          Rect.bbox_of_list (List.map (fun p -> p.Transform.rect) placed)
        in
        let placed =
          List.map
            (fun p ->
              Transform.translate p ~dx:(-bbox.Rect.x) ~dy:(-bbox.Rect.y))
            placed
        in
        (placed,
         (Rect.x_max bbox - bbox.Rect.x, Rect.y_max bbox - bbox.Rect.y)))
      groups
  in
  (* 2. reduced sequence-pair: free cells + one super-cell per group,
     positioned at the group's first occurrence in each sequence *)
  let pseudo gi = n + gi in
  let reduce order =
    let seen = Array.make (List.length groups) false in
    List.filter_map
      (fun c ->
        match group_of.(c) with
        | None -> Some c
        | Some gi ->
            if seen.(gi) then None
            else begin
              seen.(gi) <- true;
              Some (pseudo gi)
            end)
      order
  in
  let ids = reduce (Perm.to_list sp.Sp.alpha) in
  let compact = Hashtbl.create 16 in
  List.iteri (fun i c -> Hashtbl.replace compact c i) ids;
  let to_perm order =
    Perm.of_array
      (Array.of_list (List.map (Hashtbl.find compact) (reduce order)))
  in
  let reduced_sp =
    Sp.make
      ~alpha:(to_perm (Perm.to_list sp.Sp.alpha))
      ~beta:(to_perm (Perm.to_list sp.Sp.beta))
  in
  let ids_arr = Array.of_list ids in
  let reduced_dims i =
    let c = ids_arr.(i) in
    if c < n then dims c else snd (List.nth islands (c - n))
  in
  let packed = Pack.pack_fast reduced_sp reduced_dims in
  List.concat_map
    (fun (p : Transform.placed) ->
      let c = ids_arr.(p.Transform.cell) in
      if c < n then [ { p with Transform.cell = c } ]
      else
        let island_placed, _ = List.nth islands (c - n) in
        List.map
          (fun q ->
            Transform.translate q ~dx:p.Transform.rect.Rect.x
              ~dy:p.Transform.rect.Rect.y)
          island_placed)
    packed

let pack_symmetric sp dims groups =
  match pack_coupled sp dims groups with
  | placed -> Ok placed
  | exception Infeasible msg -> Error msg
  | exception Diverged -> (
      match pack_segregated sp dims groups with
      | placed -> Ok placed
      | exception Infeasible msg -> Error msg)

(* Buffer variant for the annealing arena: identical coordinates to
   {!pack_symmetric} (tested), but written into caller arrays. The
   coupled core writes in place; only the [Diverged] fallback still
   materializes a list, whose coordinates are then copied, and bumps
   [tally]. *)
let pack_symmetric_into ?(tally = Telemetry.Counter.null) ~x ~y ~w ~h sp dims
    groups =
  match pack_coupled_into ~x ~y ~w ~h sp dims groups with
  | (_ : int list) -> Ok ()
  | exception Infeasible msg -> Error msg
  | exception Diverged -> (
      Telemetry.Counter.incr tally;
      match pack_segregated sp dims groups with
      | placed ->
          List.iter
            (fun (p : Transform.placed) ->
              x.(p.Transform.cell) <- p.Transform.rect.Rect.x;
              y.(p.Transform.cell) <- p.Transform.rect.Rect.y;
              w.(p.Transform.cell) <- p.Transform.rect.Rect.w;
              h.(p.Transform.cell) <- p.Transform.rect.Rect.h)
            placed;
          Ok ()
      | exception Infeasible msg -> Error msg)
