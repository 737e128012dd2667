type segment = { x0 : int; x1 : int; y : int }

(* A doubly-linked segment arena. Segments tile [0, +inf) (zero
   heights included), ordered by x, linked through [snext]/[sprev]
   with slot 0 as the head sentinel, whose span ends at [min_int] so
   every scan skips it. Freed slots chain through [snext]; the arrays
   double when the free list runs dry, so one scratch serves any
   packing size and steady-state queries allocate nothing. *)

type scratch = {
  mutable sx0 : int array;
  mutable sx1 : int array;
  mutable sy : int array;
  mutable snext : int array;
  mutable sprev : int array;
  mutable free : int;  (* head of the free-slot chain, -1 when empty *)
  mutable last : int;  (* the segment the last drop raised, [head] if none *)
}

type slot = int

let nil = -1
let head = 0

(* Thread slots [lo, hi) onto the free chain. *)
let chain_free s lo hi tail =
  for i = lo to hi - 1 do
    s.snext.(i) <- (if i + 1 < hi then i + 1 else tail)
  done;
  if hi > lo then s.free <- lo

let clear s =
  s.sx0.(head) <- min_int;
  s.sx1.(head) <- min_int;
  (* slot 1 becomes the single base segment [0, +inf) at height 0 *)
  s.sx0.(1) <- 0;
  s.sx1.(1) <- max_int;
  s.sy.(1) <- 0;
  s.snext.(head) <- 1;
  s.sprev.(1) <- head;
  s.snext.(1) <- nil;
  s.free <- nil;
  s.last <- head;
  chain_free s 2 (Array.length s.sx0) nil

let scratch capacity =
  let cap = Int.max 4 (capacity + 2) in
  let s =
    {
      sx0 = Array.make cap 0;
      sx1 = Array.make cap 0;
      sy = Array.make cap 0;
      snext = Array.make cap nil;
      sprev = Array.make cap nil;
      free = nil;
      last = head;
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

(* The one scan: the first segment at or after [from] that ends past
   [x0]. [from] must be live and start at or before [x0]; segments
   before it then end at or before [x0] too, so the answer is the one
   a scan from the head finds. *)
let seek s ~from x0 =
  let i = ref from in
  while s.sx1.(!i) <= x0 do
    i := s.snext.(!i)
  done;
  !i

(* maximum height from the first overlap [i] up to [x1] *)
let height_from s i ~x1 =
  let best = ref 0 and i = ref i in
  while !i <> nil && s.sx0.(!i) < x1 do
    if s.sy.(!i) > !best then best := s.sy.(!i);
    i := s.snext.(!i)
  done;
  !best

(* Set [x0, x1) to [y] from its first overlap [i]; returns the slot of
   the new segment. *)
let raise_from s i ~x0 ~x1 ~y =
  let i = ref i in
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
  insert_after s before ~x0 ~x1 ~y

let max_height_into s ~x0 ~x1 =
  if x1 <= x0 then 0 else height_from s (seek s ~from:head x0) ~x1

let raise_into s ~x0 ~x1 ~y =
  if x1 > x0 then ignore (raise_from s (seek s ~from:head x0) ~x0 ~x1 ~y : int)

let drop_from s ~from ~x ~w ~h =
  if w <= 0 then begin
    s.last <- head;
    0
  end
  else begin
    let i = seek s ~from x in
    let y = height_from s i ~x1:(x + w) in
    s.last <- raise_from s i ~x0:x ~x1:(x + w) ~y:(y + h);
    y
  end

let drop_into s ~x ~w ~h = drop_from s ~from:head ~x ~w ~h
let last_slot s = s.last

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
