open Geometry

type kind = Hor | Ver

(* Adjacency bitsets: bit b of hor.(a) set iff the edge a->b with kind
   Hor exists (a left of b); similarly ver (a below b). *)
type t = { n : int; hor : int array; ver : int array }

let size t = t.n
let bit b = 1 lsl b
let mem row b = row land bit b <> 0

let relation t a b =
  if a = b then None
  else if mem t.hor.(a) b then Some (Hor, `Forward)
  else if mem t.ver.(a) b then Some (Ver, `Forward)
  else if mem t.hor.(b) a then Some (Hor, `Backward)
  else Some (Ver, `Backward)

let max_cells = 62

let of_seqpair sp =
  let n = Sp.size sp in
  if n > max_cells then invalid_arg "Tcg.of_seqpair: more than 62 cells";
  let hor = Array.make n 0 and ver = Array.make n 0 in
  for a = 0 to n - 1 do
    for b = 0 to n - 1 do
      if a <> b then
        match Sp.relation sp a b with
        | Sp.Left_of -> hor.(a) <- hor.(a) lor bit b
        | Sp.Below -> ver.(a) <- ver.(a) lor bit b
        | Sp.Right_of | Sp.Above -> ()
    done
  done;
  { n; hor; ver }

(* The alpha order: a precedes b iff a is left of b or a is above b
   (i.e. the Ver edge runs b->a). The beta order: a precedes b iff a is
   left of b or below b. Both are tournaments; validity makes them
   acyclic, hence unique total orders. *)
let alpha_edges t a =
  let above = ref 0 in
  for b = 0 to t.n - 1 do
    if b <> a && mem t.ver.(b) a then above := !above lor bit b
  done;
  t.hor.(a) lor !above

let beta_edges t a = t.hor.(a) lor t.ver.(a)

(* Kahn topological sort of a tournament given successor bitsets;
   returns None on a cycle. *)
let topo_order n succ =
  let indegree = Array.make n 0 in
  for a = 0 to n - 1 do
    for b = 0 to n - 1 do
      if mem (succ a) b then indegree.(b) <- indegree.(b) + 1
    done
  done;
  let order = ref [] and count = ref 0 in
  let ready = ref [] in
  Array.iteri (fun v d -> if d = 0 then ready := v :: !ready) indegree;
  let rec go () =
    match !ready with
    | [] -> ()
    | v :: rest ->
        ready := rest;
        order := v :: !order;
        incr count;
        for b = 0 to n - 1 do
          if mem (succ v) b then begin
            indegree.(b) <- indegree.(b) - 1;
            if indegree.(b) = 0 then ready := b :: !ready
          end
        done;
        go ()
  in
  go ();
  if !count = n then Some (Array.of_list (List.rev !order)) else None

let validate t =
  let ( let* ) = Result.bind in
  let* () =
    (* completeness: exactly one relation per unordered pair *)
    let rec pairs a b =
      if a >= t.n then Ok ()
      else if b >= t.n then pairs (a + 1) (a + 2)
      else
        let count =
          (if mem t.hor.(a) b then 1 else 0)
          + (if mem t.ver.(a) b then 1 else 0)
          + (if mem t.hor.(b) a then 1 else 0)
          + if mem t.ver.(b) a then 1 else 0
        in
        if count <> 1 then
          Error (Printf.sprintf "pair (%d,%d) has %d relations" a b count)
        else pairs a (b + 1)
    in
    pairs 0 1
  in
  let* () =
    (* transitive closure of each digraph: successors of a successor
       are successors *)
    let closed name rows =
      let rec go a =
        if a >= t.n then Ok ()
        else
          let rec through b =
            if b >= t.n then go (a + 1)
            else if mem rows.(a) b && rows.(b) land lnot rows.(a) <> 0 then
              Error
                (Printf.sprintf "%s not transitively closed at %d->%d" name a b)
            else through (b + 1)
          in
          through 0
      in
      go 0
    in
    let* () = closed "Ch" t.hor in
    closed "Cv" t.ver
  in
  let* () =
    match topo_order t.n (alpha_edges t) with
    | Some _ -> Ok ()
    | None -> Error "alpha order cyclic"
  in
  match topo_order t.n (beta_edges t) with
  | Some _ -> Ok ()
  | None -> Error "beta order cyclic"

let to_seqpair t =
  let order_exn label succ =
    match topo_order t.n succ with
    | Some o -> o
    | None -> invalid_arg ("Tcg.to_seqpair: invalid TCG (" ^ label ^ ")")
  in
  let alpha = order_exn "alpha" (alpha_edges t) in
  let beta = order_exn "beta" (beta_edges t) in
  Sp.make ~alpha:(Perm.of_array alpha) ~beta:(Perm.of_array beta)

let copy t = { t with hor = Array.copy t.hor; ver = Array.copy t.ver }

let clear_pair t a b =
  t.hor.(a) <- t.hor.(a) land lnot (bit b);
  t.ver.(a) <- t.ver.(a) land lnot (bit b);
  t.hor.(b) <- t.hor.(b) land lnot (bit a);
  t.ver.(b) <- t.ver.(b) land lnot (bit a)

let checked t' = match validate t' with Ok () -> Some t' | Error _ -> None

let flip t a b =
  match relation t a b with
  | None -> None
  | Some (k, dir) ->
      let src, dst = match dir with `Forward -> (a, b) | `Backward -> (b, a) in
      let t' = copy t in
      clear_pair t' a b;
      (match k with
      | Hor -> t'.ver.(src) <- t'.ver.(src) lor bit dst
      | Ver -> t'.hor.(src) <- t'.hor.(src) lor bit dst);
      checked t'

let reverse t a b =
  match relation t a b with
  | None -> None
  | Some (k, dir) ->
      let src, dst = match dir with `Forward -> (a, b) | `Backward -> (b, a) in
      let t' = copy t in
      clear_pair t' a b;
      (match k with
      | Hor -> t'.hor.(dst) <- t'.hor.(dst) lor bit src
      | Ver -> t'.ver.(dst) <- t'.ver.(dst) lor bit src);
      checked t'

let swap_bits row a b =
  let ba = if mem row a then 1 else 0 and bb = if mem row b then 1 else 0 in
  let row = row land lnot (bit a) land lnot (bit b) in
  let row = if bb = 1 then row lor bit a else row in
  if ba = 1 then row lor bit b else row

let swap_cells t a b =
  if a = b then t
  else begin
    let t' = copy t in
    let swap rows =
      let tmp = rows.(a) in
      rows.(a) <- rows.(b);
      rows.(b) <- tmp;
      for r = 0 to t.n - 1 do
        rows.(r) <- swap_bits rows.(r) a b
      done
    in
    swap t'.hor;
    swap t'.ver;
    t'
  end

let random_neighbor rng t =
  if t.n < 2 then t
  else
    let rec attempt k =
      if k = 0 then t
      else
        let a = Prelude.Rng.int rng t.n in
        let b = (a + 1 + Prelude.Rng.int rng (t.n - 1)) mod t.n in
        match Prelude.Rng.int rng 3 with
        | 0 -> swap_cells t a b
        | 1 -> ( match flip t a b with Some t' -> t' | None -> attempt (k - 1))
        | _ -> (
            match reverse t a b with
            | Some t' -> t'
            | None -> attempt (k - 1))
    in
    attempt 8

let pack t dims =
  let w = Array.init t.n (fun c -> fst (dims c)) in
  let h = Array.init t.n (fun c -> snd (dims c)) in
  let x = Array.make t.n 0 and y = Array.make t.n 0 in
  let beta =
    match topo_order t.n (beta_edges t) with
    | Some o -> o
    | None -> invalid_arg "Tcg.pack: invalid TCG"
  in
  (* x: longest path over Ch in beta order (left-of respects it) *)
  Array.iter
    (fun b ->
      for a = 0 to t.n - 1 do
        if a <> b && mem t.hor.(a) b then x.(b) <- max x.(b) (x.(a) + w.(a))
      done)
    beta;
  (* y: longest path over Cv, also in beta order (below respects it) *)
  Array.iter
    (fun b ->
      for a = 0 to t.n - 1 do
        if a <> b && mem t.ver.(a) b then y.(b) <- max y.(b) (y.(a) + h.(a))
      done)
    beta;
  List.init t.n (fun c ->
      Transform.place ~cell:c ~x:x.(c) ~y:y.(c) ~w:w.(c) ~h:h.(c)
        ~orient:Orientation.R0)
