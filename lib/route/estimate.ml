(* Probabilistic congestion estimation (RUDY-style).

   The annealers cannot afford a maze route per candidate placement;
   what they can afford is spreading every net's expected wire demand
   (its HPWL, weighted) uniformly over its bounding box and reading how
   much the resulting per-bin density exceeds what the routing grid can
   supply. The estimate is a smooth scalar: quadratic in per-bin
   density, so crowding several net boxes over the same region is
   penalized before it turns into literal overflow, which is what gives
   the annealer a gradient to descend while the placement is still
   routable. *)

type t = {
  n : int;
  (* every net of the circuit, flattened; demand scale is the net
     weight *)
  nets : Netlist.Wirelength.flat;
  live : int array;  (* the nets of two or more pins, in net order *)
  bins_x : int;
  bins_y : int;
  (* private scratch: 2D difference array, (bins_x+1) * (bins_y+1).
     Net demand lands here as O(1) corner updates; one prefix-sum pass
     at the end recovers per-bin usage. *)
  diff : float array;
  pitch : float;  (* routing-track pitch in layout units *)
  utilization : float;  (* fraction of tracks available to signals *)
}

let default_bins = 8
let default_utilization = 0.5

let create ?(bins = default_bins) ?(pitch = Grid.default_pitch)
    ?(utilization = default_utilization) circuit =
  if bins < 1 then invalid_arg "Estimate.create: bins < 1";
  if pitch < 1 then invalid_arg "Estimate.create: pitch < 1";
  let n = Netlist.Circuit.size circuit in
  let nets = Netlist.Wirelength.flatten circuit.Netlist.Circuit.nets in
  let off = nets.Netlist.Wirelength.off in
  let live =
    List.filter (fun k -> off.(k + 1) - off.(k) >= 2)
      (List.init (Array.length off - 1) Fun.id)
  in
  {
    n;
    nets;
    live = Array.of_list live;
    bins_x = bins;
    bins_y = bins;
    diff = Array.make ((bins + 1) * (bins + 1)) 0.0;
    pitch = float_of_int pitch;
    utilization;
  }

(* None of the scored quantities can be NaN, so plain comparisons
   beat Float.min/max (which pay for NaN propagation) in this loop. *)
let[@inline] fmin (a : float) b = if a < b then a else b
let[@inline] fmax (a : float) b = if a > b then a else b

(* a bin index clamped to [0, top] *)
let[@inline] clamp top i = Int.max 0 (Int.min top i)

(* One constant-value rectangle [ax..bx] x [ay..by] of the difference
   array: four corner updates; bx+1 <= bins_x and by+1 <= bins_y fit
   the (+1) pad. Top-level and inlined, like the two below, so the
   floats they take stay unboxed: a local closure would box each one
   on every call. *)
let[@inline] add_box diff stride ax bx ay by v =
  let tl = (ay * stride) + ax in
  let tr = (ay * stride) + bx + 1 in
  let bl = ((by + 1) * stride) + ax in
  let br = ((by + 1) * stride) + bx + 1 in
  Array.unsafe_set diff tl (Array.unsafe_get diff tl +. v);
  Array.unsafe_set diff tr (Array.unsafe_get diff tr -. v);
  Array.unsafe_set diff bl (Array.unsafe_get diff bl -. v);
  Array.unsafe_set diff br (Array.unsafe_get diff br +. v)

(* one row of the 3x3 decomposition at vertical weight [vy] *)
let[@inline] emit_row diff stride ix0 ix1 fx_lo fx_mid fx_hi ay by vy =
  if ix0 = ix1 then add_box diff stride ix0 ix0 ay by vy
  else begin
    add_box diff stride ix0 ix0 ay by (vy *. fx_lo);
    if ix1 > ix0 + 1 then
      add_box diff stride (ix0 + 1) (ix1 - 1) ay by (vy *. fx_mid);
    add_box diff stride ix1 ix1 ay by (vy *. fx_hi)
  end

(* the share of [lo .. hi] that bin [i] of width [step] covers *)
let[@inline] frac lo hi i inv_ext step =
  let a = fmax lo (float_of_int i *. step)
  and b = fmin hi (float_of_int (i + 1) *. step) in
  fmax 0.0 (fmin 1.0 ((b -. a) *. inv_ext))

(* The congestion score of one placement, read from its net boxes
   (over doubled pin centres, as [Wirelength.hpwl_flat] leaves them)
   and its die extents. Allocation-free and O(nets + bins): a net's
   uniform spread [demand * fx(ix) * fy(iy)] has constant per-axis
   fractions except at the two boundary bins, so its whole footprint
   decomposes into at most 3x3 constant-value rectangles, each a
   4-corner update on the difference array — no per-bin loop per net.
   One prefix-sum pass at the end recovers bin usage. This runs on the
   annealers' move path (the E17 2x-budget row), hence the unsafe
   accesses into [t]'s own invariant-sized arrays and the int-typed
   clamps, which compile to plain compares where the polymorphic
   [min]/[max] would call out of line. *)
let score t (b : Netlist.Wirelength.boxes) ~width ~height =
  if width = 0 || height = 0 then 0.0
  else begin
    let bw = float_of_int width /. float_of_int t.bins_x in
    let bh = float_of_int height /. float_of_int t.bins_y in
    let inv_bw = 1.0 /. bw and inv_bh = 1.0 /. bh in
    let stride = t.bins_x + 1 in
    let diff = t.diff in
    Array.fill diff 0 (Array.length diff) 0.0;
    let weight = t.nets.Netlist.Wirelength.weight in
    for j = 0 to Array.length t.live - 1 do
      let k = Array.unsafe_get t.live j in
      (* the box is over doubled pin centers, so rounding never
         splits a mirrored pair's demand asymmetrically *)
      let bx0 = float_of_int b.min_x2.(k) /. 2.0
      and bx1 = float_of_int b.max_x2.(k) /. 2.0
      and by0 = float_of_int b.min_y2.(k) /. 2.0
      and by1 = float_of_int b.max_y2.(k) /. 2.0 in
      (* demand: weighted HPWL, floored at one pitch so coincident
         pins still claim a via's worth of track *)
      let demand =
        Array.unsafe_get weight k
        *. fmax t.pitch (bx1 -. bx0 +. (by1 -. by0))
      in
      let ix0 = clamp (t.bins_x - 1) (int_of_float (bx0 *. inv_bw))
      and ix1 = clamp (t.bins_x - 1) (int_of_float (bx1 *. inv_bw))
      and iy0 = clamp (t.bins_y - 1) (int_of_float (by0 *. inv_bh))
      and iy1 = clamp (t.bins_y - 1) (int_of_float (by1 *. inv_bh)) in
      if ix0 = ix1 && iy0 = iy1 then
        (* short net inside one bin: all the demand lands there *)
        add_box diff stride ix0 ix0 iy0 iy0 demand
      else begin
        (* spread uniformly over covered bins, proportional to
           overlap: boundary bins get their clipped fraction, interior
           bins share one constant fraction per axis *)
        let ext_x = fmax 1.0 (bx1 -. bx0) and ext_y = fmax 1.0 (by1 -. by0) in
        let inv_ext_x = 1.0 /. ext_x and inv_ext_y = 1.0 /. ext_y in
        let one_bin = ix0 = ix1 in
        let fx_lo = if one_bin then 1.0 else frac bx0 bx1 ix0 inv_ext_x bw
        and fx_mid = if one_bin then 1.0 else fmin 1.0 (bw *. inv_ext_x)
        and fx_hi = if one_bin then 1.0 else frac bx0 bx1 ix1 inv_ext_x bw in
        if iy0 = iy1 then
          emit_row diff stride ix0 ix1 fx_lo fx_mid fx_hi iy0 iy0 demand
        else begin
          let fy_lo = frac by0 by1 iy0 inv_ext_y bh
          and fy_hi = frac by0 by1 iy1 inv_ext_y bh in
          emit_row diff stride ix0 ix1 fx_lo fx_mid fx_hi iy0 iy0
            (demand *. fy_lo);
          if iy1 > iy0 + 1 then
            emit_row diff stride ix0 ix1 fx_lo fx_mid fx_hi (iy0 + 1)
              (iy1 - 1)
              (demand *. fmin 1.0 (bh *. inv_ext_y));
          emit_row diff stride ix0 ix1 fx_lo fx_mid fx_hi iy1 iy1
            (demand *. fy_hi)
        end
      end
    done;
    (* prefix-sum the difference array back into per-bin usage and
       fold the quadratic score in the same sweep. Per-bin supply in
       wirelength units: one horizontal and one vertical track per
       pitch, derated by the utilization factor. *)
    let cap = t.utilization *. 2.0 *. bw *. bh /. t.pitch in
    if cap <= 0.0 then 0.0
    else begin
      for iy = 0 to t.bins_y - 1 do
        let row = iy * stride in
        for ix = 1 to t.bins_x - 1 do
          let i = row + ix in
          Array.unsafe_set diff i
            (Array.unsafe_get diff i +. Array.unsafe_get diff (i - 1))
        done
      done;
      let inv_cap = 1.0 /. cap in
      let acc = ref 0.0 in
      for ix = 0 to t.bins_x - 1 do
        let u = Array.unsafe_get diff ix in
        acc := !acc +. (u *. u)
      done;
      for iy = 1 to t.bins_y - 1 do
        let row = iy * stride in
        for ix = 0 to t.bins_x - 1 do
          let i = row + ix in
          let u = Array.unsafe_get diff i +. Array.unsafe_get diff (i - stride) in
          Array.unsafe_set diff i u;
          acc := !acc +. (u *. u)
        done
      done;
      !acc *. inv_cap
    end
  end

(* A fresh estimator closure for one annealing chain: private scratch,
   the factory shape every placer engine expects. *)
let estimator ?bins ?pitch ?utilization circuit () =
  let t = create ?bins ?pitch ?utilization circuit in
  fun boxes ~width ~height -> score t boxes ~width ~height

(* The arena's query on a materialized placement: the same HPWL walk
   fills the boxes, the same extents bound the die. *)
let score_placement t (p : Placer.Placement.t) =
  let n = t.n in
  let cx2 = Array.make (Int.max 1 n) 0 and cy2 = Array.make (Int.max 1 n) 0 in
  let width = ref 0 and height = ref 0 in
  for c = 0 to n - 1 do
    match Placer.Placement.rect_of p c with
    | None -> ()
    | Some r ->
        let { Geometry.Rect.x; y; w; h } = r in
        width := Int.max !width (x + w);
        height := Int.max !height (y + h);
        cx2.(c) <- (2 * x) + w;
        cy2.(c) <- (2 * y) + h
  done;
  let boxes = Netlist.Wirelength.boxes t.nets in
  ignore (Netlist.Wirelength.hpwl_flat t.nets ~cx2 ~cy2 ~boxes : float);
  score t boxes ~width:!width ~height:!height
