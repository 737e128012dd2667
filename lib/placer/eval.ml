(* Allocation-free evaluation arena.

   Every simulated-annealing move needs the cost of one candidate
   placement and nothing else; materializing a [Transform.placed] list,
   a [Placement.t] and its cell index per move is pure garbage-collector
   traffic. The arena preallocates every buffer the evaluation needs --
   cell geometry arrays, pack scratch, flattened nets -- and computes
   area + HPWL in one pass over them. This is the one place placed
   geometry becomes a cost: the annealers pack into it, and the
   one-shot engines and list-producing packers load their placed cells
   through [cost_placed]. *)

type estimator = Netlist.Wirelength.boxes -> width:int -> height:int -> float

type t = {
  n : int;
  base_w : int array;  (* unrotated module dimensions *)
  base_h : int array;
  w : int array;  (* effective dimensions, refreshed per evaluation *)
  h : int array;
  x : int array;  (* packed coordinates *)
  y : int array;
  cx2 : int array;  (* doubled centers for HPWL *)
  cy2 : int array;
  scratch : Seqpair.Pack.scratch;
  contour : Geometry.Contour.scratch;  (* B*-tree packing profile *)
  nets : Netlist.Wirelength.flat;
  boxes : Netlist.Wirelength.boxes;  (* per-net boxes of the last query *)
  estimator : estimator option;  (* congestion term for [finish] *)
  tel : Telemetry.Sink.t;
  evals : Telemetry.Counter.t;  (* pre-resolved handles; dead when off *)
  bstar_packs : Telemetry.Counter.t;
  sym_fallbacks : Telemetry.Counter.t;
  mutable last_w : int;  (* extents of the last evaluated packing *)
  mutable last_h : int;
  mutable last_hpwl : float;
}

let create ?(telemetry = Telemetry.Sink.null) ?estimator circuit =
  let n = Netlist.Circuit.size circuit in
  let nets = Netlist.Wirelength.flatten circuit.Netlist.Circuit.nets in
  let cells = Int.max 1 n in
  let base_w = Array.make cells 0 and base_h = Array.make cells 0 in
  for c = 0 to n - 1 do
    let w, h = Netlist.Circuit.dims circuit c in
    base_w.(c) <- w;
    base_h.(c) <- h
  done;
  {
    n;
    base_w;
    base_h;
    w = Array.make cells 0;
    h = Array.make cells 0;
    x = Array.make cells 0;
    y = Array.make cells 0;
    cx2 = Array.make cells 0;
    cy2 = Array.make cells 0;
    scratch = Seqpair.Pack.scratch ~telemetry cells;
    contour = Geometry.Contour.scratch ((2 * cells) + 1);
    nets;
    boxes = Netlist.Wirelength.boxes nets;
    estimator;
    tel = telemetry;
    evals = Telemetry.Sink.counter telemetry "eval.costs";
    bstar_packs = Telemetry.Sink.counter telemetry "bstar.packs";
    sym_fallbacks = Telemetry.Sink.counter telemetry "eval.sym_fallbacks";
    last_w = 0;
    last_h = 0;
    last_hpwl = 0.0;
  }

let last_extents t = (t.last_w, t.last_h, t.last_hpwl)

let set_rotation t rot =
  for c = 0 to t.n - 1 do
    if rot.(c) then begin
      t.w.(c) <- t.base_h.(c);
      t.h.(c) <- t.base_w.(c)
    end
    else begin
      t.w.(c) <- t.base_w.(c);
      t.h.(c) <- t.base_h.(c)
    end
  done

(* One pass over the coordinate arrays: bounding-box extents (anchored
   at the origin, as [Placement.bbox]) and doubled centers. Then one
   pass over the nets: HPWL, with each net's box left in [t.boxes] for
   the congestion estimate, which reads those boxes and the extents
   instead of walking the pins and the cells again. *)
let finish t weights =
  Telemetry.Counter.incr t.evals;
  let t0 = Telemetry.Sink.span_begin t.tel in
  let width = ref 0 and height = ref 0 in
  for c = 0 to t.n - 1 do
    let xe = t.x.(c) + t.w.(c) and ye = t.y.(c) + t.h.(c) in
    if xe > !width then width := xe;
    if ye > !height then height := ye;
    t.cx2.(c) <- (2 * t.x.(c)) + t.w.(c);
    t.cy2.(c) <- (2 * t.y.(c)) + t.h.(c)
  done;
  let hpwl =
    Netlist.Wirelength.hpwl_flat t.nets ~cx2:t.cx2 ~cy2:t.cy2 ~boxes:t.boxes
  in
  t.last_w <- !width;
  t.last_h <- !height;
  t.last_hpwl <- hpwl;
  let t1 = Telemetry.Sink.lap t.tel "eval.hpwl" t0 in
  (* the congestion estimate only runs when a non-zero weight can see
     it: a zero-weight query stays exactly the three-term cost at
     exactly the old latency *)
  let route =
    match t.estimator with
    | Some f when weights.Cost.routability <> 0.0 ->
        f t.boxes ~width:!width ~height:!height
    | _ -> 0.0
  in
  let cost =
    Cost.compose_routed weights ~route ~width:!width ~height:!height ~hpwl
  in
  Telemetry.Sink.span_end t.tel "eval.compose" t1;
  cost

let cost_seqpair t weights ?plan sp ~rot =
  let t0 = Telemetry.Sink.span_begin t.tel in
  set_rotation t rot;
  (match plan with
  | None -> Seqpair.Pack.pack_fast_into t.scratch sp ~w:t.w ~h:t.h ~x:t.x ~y:t.y
  | Some plan -> (
      match
        Seqpair.Symmetry.pack_into ~tally:t.sym_fallbacks plan ~x:t.x ~y:t.y
          ~w:t.w ~h:t.h sp
      with
      | Ok () -> ()
      | Error msg -> invalid_arg ("Sa_seqpair: " ^ msg)));
  Telemetry.Sink.span_end t.tel "eval.pack" t0;
  let cost = finish t weights in
  (* enclosing span: nests over eval.pack/eval.hpwl/eval.compose *)
  Telemetry.Sink.span_end t.tel "eval.cost" t0;
  cost

let cost_bstar t weights flat ~rot =
  let t0 = Telemetry.Sink.span_begin t.tel in
  set_rotation t rot;
  Bstar.Flat.pack_into ~tally:t.bstar_packs flat t.contour ~w:t.w ~h:t.h ~x:t.x
    ~y:t.y;
  Telemetry.Sink.span_end t.tel "eval.pack" t0;
  let cost = finish t weights in
  (* enclosing span: nests over eval.pack/eval.hpwl/eval.compose *)
  Telemetry.Sink.span_end t.tel "eval.cost" t0;
  cost

let cost_placed t weights placed =
  let t0 = Telemetry.Sink.span_begin t.tel in
  List.iter
    (fun (p : Geometry.Transform.placed) ->
      let r = p.Geometry.Transform.rect in
      t.x.(p.Geometry.Transform.cell) <- r.Geometry.Rect.x;
      t.y.(p.Geometry.Transform.cell) <- r.Geometry.Rect.y;
      t.w.(p.Geometry.Transform.cell) <- r.Geometry.Rect.w;
      t.h.(p.Geometry.Transform.cell) <- r.Geometry.Rect.h)
    placed;
  let cost = finish t weights in
  (* enclosing span: nests over eval.hpwl/eval.compose *)
  Telemetry.Sink.span_end t.tel "eval.cost" t0;
  cost
