(* Classic Fenwick layout over 1-based internal indices; the max monoid
   only supports monotone (increase-only) updates, which is all the
   packing algorithm needs. *)
type t = { tree : int array; n : int }

let create n = { tree = Array.make (n + 1) 0; n }
let clear t = Array.fill t.tree 0 (t.n + 1) 0

(* Both traversals are the annealing hot path (2n of each per pack), so
   they run as plain loops over indices that stay within [1, n] by
   construction -- up by lowbit from i+1 >= 1, down by lowbit from
   min (i+1) n -- which justifies the unchecked accesses. *)
let update t i v =
  let tree = t.tree and n = t.n in
  let i = ref (i + 1) in
  while !i <= n do
    if Array.unsafe_get tree !i < v then Array.unsafe_set tree !i v;
    i := !i + (!i land - !i)
  done

let reset t i =
  let tree = t.tree and n = t.n in
  let i = ref (i + 1) in
  while !i <= n do
    Array.unsafe_set tree !i 0;
    i := !i + (!i land - !i)
  done

let prefix_max t i =
  if i < 0 then 0
  else begin
    let tree = t.tree in
    let i = ref (Int.min (i + 1) t.n) and acc = ref 0 in
    while !i > 0 do
      let v = Array.unsafe_get tree !i in
      if v > !acc then acc := v;
      i := !i - (!i land - !i)
    done;
    !acc
  end
