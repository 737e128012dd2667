(* Seeded input generators for the three workloads.

   Every generator is a pure function of the workload seed: the same
   seed gives the same .cir bytes, the same synthetic circuits and the
   same request stream. The work mix of a deck is fixed (a size cycle
   on the flows, a catalogue and popularity pattern on the service),
   so different seeds change the inputs but not how much work a deck
   is; that keeps the spread between seeds small. *)

let sprintf = Printf.sprintf

type size = Full | Tiny

(* The seed of every input that must not depend on the workload seed:
   set-up's warm-up job, so set-up costs the same for every seed, and
   the service's design catalogue. *)
let fixed_seed = 2009

(* One flow job: its input and the seed its anneal runs with. Deck
   element 0 is set-up's warm-up and draws both from [fixed_seed]. *)
type 'a job = { input : 'a; anneal_seed : int }

let flow_deck ~len ~seed make =
  let rng = Prelude.Rng.create seed in
  Array.init len (fun i ->
      let rng = Prelude.Rng.split rng in
      if i = 0 then
        { input = make (Prelude.Rng.create fixed_seed) ~label:"warm-up" 0;
          anneal_seed = fixed_seed }
      else
        { input = make rng ~label:(sprintf "seed %d slot %d" seed i) i;
          anneal_seed = seed + i })

(* ---- flow-sym: device-level .cir text ------------------------------- *)

(* (differential stages, cascode stacks, caps) recipes: 9 to 30
   devices, one symmetry group per stage. The mix is an assumption: the
   repository holds no corpus of real netlists to draw it from. A job's
   cost is set mostly by its stage count, so the mix is 4 one-stage, 6
   two-stage, 8 three-stage and 6 four-stage recipes: the median job then falls
   inside the three-stage class and the 90th percentile inside the
   four-stage one, never on a jump between classes. Slots take the
   recipes in an interleaved fixed order, so any few dozen jobs see
   the whole mix. *)
let sym_recipes =
  let stage s cascodes =
    List.concat_map (fun c -> [ (s, c, 1); (s, c, 2) ]) cascodes
  in
  let all =
    Array.of_list
      (stage 1 [ 1; 2 ] @ stage 2 [ 0; 1; 2 ] @ stage 3 [ 0; 1; 2; 3 ]
     @ stage 4 [ 0; 1; 2 ])
  in
  let k = Array.length all in
  Array.init k (fun i -> all.(i * 7 mod k))

(* A netlist built only from idioms [Netlist.Recognize] knows:
   - a differential stage is an input pair on a tail source, a
     diode-loaded current-mirror load and the tail's bias mirror
     (recognized as a diff pair + two mirrors, the pair and its load
     forming a hierarchical-symmetry core);
   - a cascode stack is two same-polarity devices, drain on source,
     whose gates sit on shared bias lines (so stacks never pair up as
     false diff pairs or mirrors);
   - caps are free cells between stage nodes.
   Matched devices get identical W/L/M so every symmetric pair is
   mirror-compatible. *)
let cir_text rng ~title (stages, cascodes, caps) =
  let b = Buffer.create 1024 in
  let line fmt =
    Printf.ksprintf
      (fun s ->
        Buffer.add_string b s;
        Buffer.add_char b '\n')
      fmt
  in
  let rint = Prelude.Rng.int_in rng in
  line "* %s" title;
  let out k = sprintf "out%d" k and x k = sprintf "x%d" k in
  for k = 1 to stages do
    let pol_in, pol_ld, rail_in, rail_ld =
      if Prelude.Rng.bool rng then ("nmos", "pmos", "vss", "vdd")
      else ("pmos", "nmos", "vdd", "vss")
    in
    let inp = if k = 1 then "inp" else out (k - 1) in
    let inn = if k = 1 then "inn" else sprintf "fb%d" k in
    let tail = sprintf "tail%d" k and bias = sprintf "bias%d" k in
    let w_in = rint 2 8 and m_in = rint 1 3 in
    let w_ld = rint 1 4 and m_ld = rint 1 2 in
    let w_t = rint 1 6 in
    line "M%da %s %s %s %s %s W=%du L=0.5u M=%d" k (x k) inp tail rail_in pol_in
      w_in m_in;
    line "M%db %s %s %s %s %s W=%du L=0.5u M=%d" k (out k) inn tail rail_in
      pol_in w_in m_in;
    line "M%dc %s %s %s %s %s W=%du L=1u M=%d" k (x k) (x k) rail_ld rail_ld
      pol_ld w_ld m_ld;
    line "M%dd %s %s %s %s %s W=%du L=1u M=%d" k (out k) (x k) rail_ld rail_ld
      pol_ld w_ld m_ld;
    line "M%dt %s %s %s %s %s W=%du L=1u" k tail bias rail_in rail_in pol_in w_t;
    line "M%du %s %s %s %s %s W=%du L=1u" k bias bias rail_in rail_in pol_in w_t
  done;
  for j = 1 to cascodes do
    let nmos = Prelude.Rng.bool rng in
    let pol, rail, g1, g2 =
      if nmos then ("nmos", "vss", "nb1", "nb2") else ("pmos", "vdd", "pb1", "pb2")
    in
    (* the stack's output drives a later stage's second input *)
    let o =
      if stages >= 2 then sprintf "fb%d" (2 + rint 0 (stages - 2))
      else sprintf "casc%d" j
    in
    let y = sprintf "y%d" j in
    line "MC%dl %s %s %s %s %s W=%du L=1u M=%d" j y g1 rail rail pol (rint 1 6)
      (rint 1 2);
    line "MC%dh %s %s %s %s %s W=%du L=0.5u M=%d" j o g2 y rail pol (rint 1 6)
      (rint 1 2)
  done;
  for i = 1 to caps do
    let a = out (rint 1 stages) in
    let c = if Prelude.Rng.bool rng then x (rint 1 stages) else "inp" in
    line "C%d %s %s %.1ff" i a c (2.0 +. Prelude.Rng.float rng 18.0)
  done;
  line ".end";
  Buffer.contents b

(* A deck is the warm-up element 0 and the [pass] elements every pass
   of a run goes through. At full size a pass has at least 100 jobs, so
   that at least ten samples lie beyond the 90th percentile; on the
   flows it is whole cycles of the size mix. *)
let deck_len ~size ~pass = match size with Full -> pass + 1 | Tiny -> 3

(* The flow-sym deck: one .cir text per slot, recipes in a fixed cycle. *)
let sym_deck ~size ~seed =
  let recipes =
    match size with Full -> sym_recipes | Tiny -> [| (1, 1, 1); (2, 0, 1) |]
  in
  flow_deck ~len:(deck_len ~size ~pass:(5 * Array.length sym_recipes)) ~seed (fun rng ~label i ->
      cir_text rng ~title:("flow-sym " ^ label) recipes.(i mod Array.length recipes))

(* ---- flow-route: synthetic Table-I-scale circuits ------------------- *)

(* Module counts per deck slot, an assumption bounded on both sides:
   below the size where negotiation stops converging, large enough that
   routing dominates the job. *)
let route_sizes = Array.init 16 (fun i -> 24 + (i * 7 mod 16))

let route_deck ~size ~seed =
  let sizes = match size with Full -> route_sizes | Tiny -> [| 10; 12 |] in
  flow_deck ~len:(deck_len ~size ~pass:(7 * Array.length route_sizes)) ~seed (fun rng ~label i ->
      Netlist.Benchmarks.synthetic ~label:("route " ^ label)
        ~n:sizes.(i mod Array.length sizes)
        ~seed:(Prelude.Rng.int rng 1_000_000_000))

(* ---- service-mix: a request stream ---------------------------------- *)

type request = {
  req : Service.Request.t;
  feasible : bool;  (** false: the outline is too small by construction *)
}

(* The service's design catalogue: synthetic sources by popularity
   rank, small enough that a Quick miss costs a fraction of a second.
   No request traces exist for the service, so the catalogue, the
   popularity law and the outline mix below are assumptions that follow
   the workload's qualitative description: mostly repeats, skewed
   towards a few designs, outlines varied within a design, some boxes
   too small. The catalogue (designs and their request seeds) and its
   popularity pattern are the same for every workload seed, so every
   seed sees the same hit/miss sequence over the same anneals; the seed
   draws the outline jitter. A Quick miss anneals until frozen, so a
   seed-drawn request seed made a run's work a draw of some 40 anneal
   lengths, and jobs per second spread 0.29 (quartile range over
   median) across five seeds. *)
let source_sizes = [| 9; 12; 7; 10; 8; 11; 6; 9; 12; 7; 10; 8 |]

(* Outline variants. A request's variant and jitter are drawn like its
   rank, so the stream mixes free, square, wide and tall outlines of
   one source (same outline class = same cache entry, re-instantiated)
   with a share of boxes smaller than the module area. The weights are
   assumed: free outlines most common, fixed outlines mostly square,
   and 15 % too small so the negative cache sees several requests a
   run. *)
type variant = Free | Square | Wide | Tall | Too_small

let variants =
  [| (0.45, Free); (0.25, Square); (0.1, Wide); (0.05, Tall); (0.15, Too_small) |]

(* Low-discrepancy draws in [0, 1): the irrational step spreads any
   window of the stream evenly over the distribution, so every stretch
   of the stream has nearly the same mix. *)
let ld_draw ~offset ~step i = Float.rem (offset +. (float_of_int i *. step)) 1.0

let pick_cdf weights u =
  let total = Array.fold_left ( +. ) 0.0 weights in
  let rec go i acc =
    if i >= Array.length weights - 1 then i
    else
      let acc = acc +. (weights.(i) /. total) in
      if u < acc then i else go (i + 1) acc
  in
  go 0 0.0

(* Popularity by rank: Zipf with exponent 1, the textbook law for
   request popularity, assumed rather than measured. *)
let zipf_weights k s =
  Array.init k (fun r -> 1.0 /. Float.pow (float_of_int (r + 1)) s)

let isqrt_ceil x = int_of_float (Float.ceil (Float.sqrt x))

(* Outline for a source of total module area [area] and largest module
   side [side]: feasible variants leave slack for any packing the
   engines find; the too-small box holds a quarter of the module area
   (an AL201 proof), fixed per source so repeats hit the negative
   cache. *)
let outline_of ~area ~side variant jitter =
  let grow v = v + (v * jitter / 20) in
  let s = max (isqrt_ceil (3.0 *. float_of_int area)) (2 * side + 1) in
  match variant with
  | Free -> None
  | Square -> Some (grow s, grow s)
  | Wide -> Some (grow (5 * s / 2), max (2 * side + 1) (s * 3 / 5))
  | Tall -> Some (max (2 * side + 1) (s * 3 / 5), grow (5 * s / 2))
  | Too_small ->
      let q = max 1 (isqrt_ceil (float_of_int area) / 2) in
      Some (q, q)

let service_stream ~size ~seed =
  let sizes = match size with Full -> source_sizes | Tiny -> [| 6; 8 |] in
  let rng = Prelude.Rng.create fixed_seed in
  let sources =
    Array.map
      (fun n ->
        let sseed = Prelude.Rng.int rng 1_000_000_000 in
        let b = Netlist.Benchmarks.synthetic ~label:"src" ~n ~seed:sseed in
        let c = b.Netlist.Benchmarks.circuit in
        let side =
          Array.fold_left
            (fun acc (m : Netlist.Circuit.module_) ->
              max acc (max m.Netlist.Circuit.w m.Netlist.Circuit.h))
            0 c.Netlist.Circuit.modules
        in
        (n, sseed, Netlist.Circuit.total_module_area c, side))
      sizes
  in
  let rank_w = zipf_weights (Array.length sources) 1.0 in
  let var_w = Array.map fst variants in
  let o1 = Prelude.Rng.float rng 1.0 and o2 = Prelude.Rng.float rng 1.0 in
  let anneal_seeds = Array.map (fun _ -> Prelude.Rng.int rng 1_000_000) sources in
  let o3 = Prelude.Rng.float (Prelude.Rng.create seed) 1.0 in
  (* element 0 is the set-up's warm-up: the smallest source, free
     outline *)
  let smallest = ref 0 in
  Array.iteri
    (fun r (n, _, _, _) ->
      let best, _, _, _ = sources.(!smallest) in
      if n < best then smallest := r)
    sources;
  Array.init (deck_len ~size ~pass:240) (fun i ->
      let rank, variant, jitter =
        if i = 0 then (!smallest, Free, 0)
        else
          ( pick_cdf rank_w (ld_draw ~offset:o1 ~step:0.6180339887498949 i),
            snd
              variants.(pick_cdf var_w
                          (ld_draw ~offset:o2 ~step:0.4142135623730951 i)),
            int_of_float (4.0 *. ld_draw ~offset:o3 ~step:0.7320508075688772 i) )
      in
      let n, sseed, area, side = sources.(rank) in
      let outline = outline_of ~area ~side variant jitter in
      let req =
        {
          Service.Request.id = sprintf "q%d" i;
          source = Service.Request.Synthetic { n; seed = sseed };
          outline;
          effort = Service.Fingerprint.Quick;
          seed = anneal_seeds.(rank);
        }
      in
      { req; feasible = variant <> Too_small })

(* The request rendered without its id: equal keys must get
   byte-identical results, whichever path served them. *)
let request_key (r : Service.Request.t) =
  Telemetry.Json.emit (Service.Request.to_json { r with Service.Request.id = "" })

(* Cache entries the stream's requests touch: one per design and
   outline class, as the service keys its cache (a box too small to fit
   classes like any other outline). *)
let distinct_entries stream =
  let keys = Hashtbl.create 64 in
  Array.iter
    (fun { req; _ } ->
      Hashtbl.replace keys
        ( request_key { req with Service.Request.outline = None },
          Service.Fingerprint.classify req.Service.Request.outline )
        ())
    stream;
  Hashtbl.length keys
