open Geometry

type dims = int -> int * int

(* Reusable scratch for the buffer-variant evaluators: one Fenwick
   tree, one vEB tree and its value array, sized once for the largest
   circuit the arena will see. Nothing is allocated per pack. *)
type scratch = {
  capacity : int;
  bit : Bit.t;
  veb : Veb.t;
  value : int array;
  order : int array;  (* alpha order, reused by the vEB sweeps *)
  packs : Telemetry.Counter.t;  (* dead handles unless built with a live sink *)
  cells : Telemetry.Counter.t;
}

let scratch ?(telemetry = Telemetry.Sink.null) capacity =
  let capacity = Int.max 1 capacity in
  {
    capacity;
    bit = Bit.create capacity;
    veb = Veb.create capacity;
    value = Array.make capacity 0;
    order = Array.make capacity 0;
    packs = Telemetry.Sink.counter telemetry "seqpair.packs";
    cells = Telemetry.Sink.counter telemetry "seqpair.cells";
  }

let check_capacity s n =
  if n > s.capacity then invalid_arg "Pack: scratch smaller than circuit"

let fill_dims sp dims ~w ~h =
  for c = 0 to Sp.size sp - 1 do
    let cw, ch = dims c in
    w.(c) <- cw;
    h.(c) <- ch
  done

let to_placed sp dims x y =
  List.init (Sp.size sp) (fun c ->
      let w, h = dims c in
      Transform.place ~cell:c ~x:x.(c) ~y:y.(c) ~w ~h
        ~orient:Orientation.R0)

(* O(n^2): explicit longest path over the left-of / below relations. *)
let pack_into sp ~w ~h ~x ~y =
  let n = Sp.size sp in
  Array.fill x 0 n 0;
  Array.fill y 0 n 0;
  (* x: process cells in alpha order; predecessors are earlier in both
     sequences. *)
  for pos = 0 to n - 1 do
    let b = Perm.cell_at sp.Sp.alpha pos in
    for pos_a = 0 to pos - 1 do
      let a = Perm.cell_at sp.Sp.alpha pos_a in
      if Perm.pos_of sp.Sp.beta a < Perm.pos_of sp.Sp.beta b then
        x.(b) <- Int.max x.(b) (x.(a) + w.(a))
    done
  done;
  (* y: a is below b iff a follows b in alpha and precedes it in beta;
     process in reverse alpha order. *)
  for pos = n - 1 downto 0 do
    let b = Perm.cell_at sp.Sp.alpha pos in
    for pos_a = pos + 1 to n - 1 do
      let a = Perm.cell_at sp.Sp.alpha pos_a in
      if Perm.pos_of sp.Sp.beta a < Perm.pos_of sp.Sp.beta b then
        y.(b) <- Int.max y.(b) (y.(a) + h.(a))
    done
  done

(* O(n log n): the longest-path recurrences only ever ask for the
   maximum over a prefix of beta positions, served by a Fenwick tree. *)
let pack_fast_into s sp ~w ~h ~x ~y =
  let n = Sp.size sp in
  check_capacity s n;
  Telemetry.Counter.incr s.packs;
  Telemetry.Counter.add s.cells n;
  Bit.clear s.bit;
  for pos = 0 to n - 1 do
    let b = Perm.cell_at sp.Sp.alpha pos in
    let bp = Perm.pos_of sp.Sp.beta b in
    x.(b) <- Bit.prefix_max s.bit (bp - 1);
    Bit.update s.bit bp (x.(b) + w.(b))
  done;
  Bit.clear s.bit;
  for pos = n - 1 downto 0 do
    let b = Perm.cell_at sp.Sp.alpha pos in
    let bp = Perm.pos_of sp.Sp.beta b in
    y.(b) <- Bit.prefix_max s.bit (bp - 1);
    Bit.update s.bit bp (y.(b) + h.(b))
  done

(* O(n log log n): keep only the dominant "matches" -- beta positions
   whose running coordinate strictly increases -- in a vEB tree, so the
   prefix maximum is just the value at the predecessor position. Every
   position is inserted and deleted at most once. *)
let sweep_veb set value n order rev bpos extent coord =
  Veb.clear set;
  for i = 0 to n - 1 do
    let b = order.(if rev then n - 1 - i else i) in
    let p = bpos b in
    coord.(b) <-
      (match Veb.predecessor set p with
      | Some q -> value.(q)
      | None -> 0);
    let v = coord.(b) + extent.(b) in
    let dominated =
      match if Veb.mem set p then Some p else Veb.predecessor set p with
      | Some q -> value.(q) >= v
      | None -> false
    in
    if not dominated then begin
      Veb.insert set p;
      value.(p) <- v;
      let rec prune () =
        match Veb.successor set p with
        | Some s when value.(s) <= v ->
            Veb.delete set s;
            prune ()
        | Some _ | None -> ()
      in
      prune ()
    end
  done

let pack_veb_into s sp ~w ~h ~x ~y =
  let n = Sp.size sp in
  check_capacity s n;
  Telemetry.Counter.incr s.packs;
  Telemetry.Counter.add s.cells n;
  for i = 0 to n - 1 do
    s.order.(i) <- Perm.cell_at sp.Sp.alpha i
  done;
  let bpos c = Perm.pos_of sp.Sp.beta c in
  sweep_veb s.veb s.value n s.order false bpos w x;
  sweep_veb s.veb s.value n s.order true bpos h y

(* List-returning wrappers: allocate fresh buffers, pack, materialize.
   They remain the reference API; the [_into] variants above are the
   hot path of {!Placer.Eval}. *)
let with_buffers sp dims pack =
  let n = Sp.size sp in
  let w = Array.make n 0 and h = Array.make n 0 in
  let x = Array.make n 0 and y = Array.make n 0 in
  fill_dims sp dims ~w ~h;
  pack ~w ~h ~x ~y;
  to_placed sp dims x y

let pack sp dims = with_buffers sp dims (pack_into sp)

let pack_fast sp dims =
  with_buffers sp dims (pack_fast_into (scratch (Sp.size sp)) sp)

let pack_veb sp dims =
  with_buffers sp dims (pack_veb_into (scratch (Sp.size sp)) sp)

let bounding_box placed =
  match placed with
  | [] -> Rect.at_origin ~w:0 ~h:0
  | _ -> Rect.bbox_of_list (List.map (fun p -> p.Transform.rect) placed)
