type segment = { x0 : int; x1 : int; y : int }

(* A doubly-linked segment arena. Segments tile [0, +inf) (zero
   heights included), ordered by x, linked through [snext]/[sprev]
   with slot 0 as the head sentinel. Freed slots chain through
   [snext]; the arrays double when the free list runs dry, so one
   scratch serves any packing size and steady-state queries allocate
   nothing. *)

type scratch = {
  mutable sx0 : int array;
  mutable sx1 : int array;
  mutable sy : int array;
  mutable snext : int array;
  mutable sprev : int array;
  mutable free : int;  (* head of the free-slot chain, -1 when empty *)
}

let nil = -1
let head = 0

(* Thread slots [lo, hi) onto the free chain. *)
let chain_free s lo hi tail =
  for i = lo to hi - 1 do
    s.snext.(i) <- (if i + 1 < hi then i + 1 else tail)
  done;
  if hi > lo then s.free <- lo

let clear s =
  (* slot 1 becomes the single base segment [0, +inf) at height 0 *)
  s.sx0.(1) <- 0;
  s.sx1.(1) <- max_int;
  s.sy.(1) <- 0;
  s.snext.(head) <- 1;
  s.sprev.(1) <- head;
  s.snext.(1) <- nil;
  s.free <- nil;
  chain_free s 2 (Array.length s.sx0) nil

let scratch capacity =
  let cap = max 4 (capacity + 2) in
  let s =
    {
      sx0 = Array.make cap 0;
      sx1 = Array.make cap 0;
      sy = Array.make cap 0;
      snext = Array.make cap nil;
      sprev = Array.make cap nil;
      free = nil;
    }
  in
  clear s;
  s

let grow s =
  let old = Array.length s.sx0 in
  let cap = 2 * old in
  let extend a = Array.append a (Array.make old 0) in
  s.sx0 <- extend s.sx0;
  s.sx1 <- extend s.sx1;
  s.sy <- extend s.sy;
  s.snext <- extend s.snext;
  s.sprev <- extend s.sprev;
  chain_free s old cap s.free

let alloc s =
  if s.free = nil then grow s;
  let i = s.free in
  s.free <- s.snext.(i);
  i

let release s i =
  s.snext.(i) <- s.free;
  s.free <- i

(* Insert a fresh segment [x0, x1)@y right after slot [after]. *)
let insert_after s after ~x0 ~x1 ~y =
  let i = alloc s in
  s.sx0.(i) <- x0;
  s.sx1.(i) <- x1;
  s.sy.(i) <- y;
  let nxt = s.snext.(after) in
  s.snext.(after) <- i;
  s.sprev.(i) <- after;
  s.snext.(i) <- nxt;
  if nxt <> nil then s.sprev.(nxt) <- i;
  i

let max_height_into s ~x0 ~x1 =
  if x1 <= x0 then 0
  else begin
    let best = ref 0 in
    let i = ref s.snext.(head) in
    while !i <> nil && s.sx0.(!i) < x1 do
      if s.sx1.(!i) > x0 && s.sy.(!i) > !best then best := s.sy.(!i);
      i := s.snext.(!i)
    done;
    !best
  end

let raise_into s ~x0 ~x1 ~y =
  if x1 > x0 then begin
    (* first segment overlapping [x0, x1) *)
    let i = ref s.snext.(head) in
    while s.sx1.(!i) <= x0 do
      i := s.snext.(!i)
    done;
    (* split off the uncovered left part of the first overlap *)
    if s.sx0.(!i) < x0 then begin
      let right = insert_after s !i ~x0 ~x1:s.sx1.(!i) ~y:s.sy.(!i) in
      s.sx1.(!i) <- x0;
      i := right
    end;
    (* consume segments fully inside [x0, x1); trim the last partial *)
    let before = s.sprev.(!i) in
    while !i <> nil && s.sx0.(!i) < x1 do
      if s.sx1.(!i) <= x1 then begin
        let nxt = s.snext.(!i) in
        s.snext.(s.sprev.(!i)) <- nxt;
        if nxt <> nil then s.sprev.(nxt) <- s.sprev.(!i);
        release s !i;
        i := nxt
      end
      else begin
        s.sx0.(!i) <- x1;
        i := nil (* stop: the rest lies beyond the range *)
      end
    done;
    ignore (insert_after s before ~x0 ~x1 ~y)
  end

let drop_into s ~x ~w ~h =
  let y = max_height_into s ~x0:x ~x1:(x + w) in
  raise_into s ~x0:x ~x1:(x + w) ~y:(y + h);
  y

let scratch_segments s =
  (* finite positive-height steps, maximally merged *)
  let out = ref [] in
  let i = ref s.snext.(head) in
  while !i <> nil do
    if s.sy.(!i) > 0 && s.sx1.(!i) < max_int then
      out := { x0 = s.sx0.(!i); x1 = s.sx1.(!i); y = s.sy.(!i) } :: !out;
    i := s.snext.(!i)
  done;
  let rec merge = function
    | a :: b :: rest when a.x1 = b.x0 && a.y = b.y ->
        merge ({ x0 = a.x0; x1 = b.x1; y = a.y } :: rest)
    | a :: rest -> a :: merge rest
    | [] -> []
  in
  merge (List.rev !out)
