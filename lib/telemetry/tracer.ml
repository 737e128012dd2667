(* Span tracer over a growable ring buffer with a fixed bound.

   Four parallel arrays, one write cursor: recording a span is four
   stores and an index bump. The arrays start small and double when
   full, up to the bound, so a sink that records a few spans costs a
   few slots, not the bound. Only at the bound does the ring overwrite
   the oldest span — the newest spans always survive — and it counts
   every eviction, so exporters can say how much history was shed.

   Before the ring first reaches its bound nothing has wrapped: the
   spans sit in slots [0, filled) in recording order, so growing is a
   plain prefix copy. *)

type span = { name : string; ts : float; dur : float; tid : int }

type t = {
  bound : int;
  mutable names : string array;
  mutable starts : float array;
  mutable durs : float array;
  mutable tids : int array;
  mutable next : int; (* write cursor *)
  mutable filled : int; (* <= Array.length names <= bound *)
  mutable dropped : int;
}

let initial_slots = 64

let create bound =
  let bound = max 1 bound in
  let n = min bound initial_slots in
  {
    bound;
    names = Array.make n "";
    starts = Array.make n 0.0;
    durs = Array.make n 0.0;
    tids = Array.make n 0;
    next = 0;
    filled = 0;
    dropped = 0;
  }

let grow t =
  let n = min t.bound (2 * Array.length t.names) in
  let extend a fill =
    let b = Array.make n fill in
    Array.blit a 0 b 0 t.filled;
    b
  in
  t.names <- extend t.names "";
  t.starts <- extend t.starts 0.0;
  t.durs <- extend t.durs 0.0;
  t.tids <- extend t.tids 0;
  (* the cursor wrapped to 0 when the smaller ring filled *)
  t.next <- t.filled

let record t ~name ~ts ~dur ~tid =
  if t.filled = Array.length t.names && t.filled < t.bound then grow t;
  let slots = Array.length t.names in
  if t.filled = slots then t.dropped <- t.dropped + 1 else t.filled <- t.filled + 1;
  t.names.(t.next) <- name;
  t.starts.(t.next) <- ts;
  t.durs.(t.next) <- dur;
  t.tids.(t.next) <- tid;
  t.next <- (t.next + 1) mod slots

let length t = t.filled
let capacity t = t.bound
let dropped t = t.dropped
let add_dropped t k = if k > 0 then t.dropped <- t.dropped + k

let spans t =
  let slots = Array.length t.names in
  let first = if t.filled = slots then t.next else 0 in
  List.init t.filled (fun i ->
      let j = (first + i) mod slots in
      { name = t.names.(j); ts = t.starts.(j); dur = t.durs.(j); tid = t.tids.(j) })
