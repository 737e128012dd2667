type t = Sp.t

(* What the last in-place move did: the cells it exchanged in each
   sequence (-1: none) and, when it was repaired, beta as it stood
   before the repair. *)
type undo = {
  mutable a1 : int;
  mutable a2 : int;
  mutable b1 : int;
  mutable b2 : int;
  mutable repaired : bool;
  beta : Perm.t;
}

let undo_log n =
  { a1 = -1; a2 = -1; b1 = -1; b2 = -1; repaired = false; beta = Perm.identity n }

let exchange sp u ~a1 ~a2 ~b1 ~b2 =
  if a1 >= 0 then Perm.exchange sp.Sp.alpha a1 a2;
  if b1 >= 0 then Perm.exchange sp.Sp.beta b1 b2;
  u.a1 <- a1;
  u.a2 <- a2;
  u.b1 <- b1;
  u.b2 <- b2;
  u.repaired <- false

let undo sp u =
  if u.repaired then Perm.blit ~src:u.beta ~dst:sp.Sp.beta;
  if u.b1 >= 0 then Perm.exchange sp.Sp.beta u.b1 u.b2;
  if u.a1 >= 0 then Perm.exchange sp.Sp.alpha u.a1 u.a2;
  exchange sp u ~a1:(-1) ~a2:(-1) ~b1:(-1) ~b2:(-1)

(* the second of two distinct cells, [a] drawn first *)
let[@inline] other rng n a = (a + 1 + Prelude.Rng.int rng (n - 1)) mod n

(* Swap two cells in alpha, in beta, or in both, uniformly. *)
let propose rng sp u =
  let n = Sp.size sp in
  let k = Prelude.Rng.int rng 3 in
  let a = Prelude.Rng.int rng n in
  let b = other rng n a in
  match k with
  | 0 -> exchange sp u ~a1:a ~a2:b ~b1:(-1) ~b2:(-1)
  | 1 -> exchange sp u ~a1:(-1) ~a2:(-1) ~b1:a ~b2:b
  | _ -> exchange sp u ~a1:a ~a2:b ~b1:a ~b2:b

(* Companion swaps: interchanging x and y in alpha requires
   interchanging sym(x) and sym(y) in beta (and vice versa) whenever
   both cells belong to symmetry groups. Mixed group/free swaps are
   proposed in both-sequence form; whatever a proposal breaks is caught
   by the feasibility check and repaired. *)
let propose_sf rng plan sp u =
  let n = Sp.size sp in
  let a = Prelude.Rng.int rng n in
  let b = other rng n a in
  let sa = Symmetry.counterpart plan a and sb = Symmetry.counterpart plan b in
  let grouped = sa >= 0 && sb >= 0 and free = sa < 0 && sb < 0 in
  (match Prelude.Rng.int rng 3 with
  | 0 when grouped -> exchange sp u ~a1:a ~a2:b ~b1:sa ~b2:sb
  | 0 when free -> exchange sp u ~a1:a ~a2:b ~b1:(-1) ~b2:(-1)
  | 1 when grouped -> exchange sp u ~a1:sa ~a2:sb ~b1:a ~b2:b
  | 1 when free -> exchange sp u ~a1:(-1) ~a2:(-1) ~b1:a ~b2:b
  | _ -> exchange sp u ~a1:a ~a2:b ~b1:a ~b2:b);
  if not (Symmetry.feasible plan sp) then begin
    Perm.blit ~src:sp.Sp.beta ~dst:u.beta;
    u.repaired <- true;
    Symmetry.repair plan sp;
    if not (Symmetry.feasible plan sp) then undo sp u
  end

(* [propose] never repairs, so a log with no room for beta does *)
let random_neighbor rng sp =
  let sp = Sp.copy sp in
  propose rng sp (undo_log 0);
  sp

let random_neighbor_sf rng sp groups =
  let n = Sp.size sp in
  let sp = Sp.copy sp in
  propose_sf rng (Symmetry.plan ~n groups) sp (undo_log n);
  sp
