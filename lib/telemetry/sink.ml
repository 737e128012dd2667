(* The telemetry sink: one record owning a counter/histogram registry,
   a span ring, and a convergence series.

   Zero-cost-when-off contract: [null] is a shared dead sink; every
   operation first reads [live] and returns immediately when false, so
   an instrumented hot path costs one load + predictable branch per
   site (measured: within noise of the uninstrumented path, see the
   E17 telemetry_overhead row). Handle-returning operations ([counter],
   [histogram], [register_moves]) return the corresponding dead handle,
   whose own operations are single-branch no-ops — hot paths resolve
   handles once and keep them unconditionally.

   Domain discipline: a sink is single-threaded mutable state. For
   parallel annealing, derive one [child] per chain before spawning,
   let each domain write only to its own child, and [absorb] the
   children after the join (see {!Anneal.Parallel}). *)

type t = {
  live : bool;
  tid : int;
  clock : unit -> float;
  epoch : float; (* clock at root-sink creation; children share it *)
  counters : (string, Counter.t) Hashtbl.t;
  hists : (string, Hist.t) Hashtbl.t;
  tracer : Tracer.t;
  conv : Convergence.t;
  mutable mv : Moves.t;
  mutable qors_rev : Qor.t list;
}

let null =
  {
    live = false;
    tid = 0;
    clock = (fun () -> 0.0);
    epoch = 0.0;
    counters = Hashtbl.create 1;
    hists = Hashtbl.create 1;
    tracer = Tracer.create 1;
    conv = Convergence.create ();
    mv = Moves.null;
    qors_rev = [];
  }

(* a bound, not an allocation: the ring grows to it only as spans
   arrive (see {!Tracer}) *)
let default_trace_capacity = 1 lsl 18

let create ?(clock = Unix.gettimeofday) ?(trace_capacity = default_trace_capacity) () =
  {
    live = true;
    tid = 0;
    clock;
    epoch = clock ();
    counters = Hashtbl.create 16;
    hists = Hashtbl.create 16;
    tracer = Tracer.create trace_capacity;
    conv = Convergence.create ();
    mv = Moves.null;
    qors_rev = [];
  }

let live t = t.live
let tid t = t.tid
let epoch t = t.epoch

let child t ~tid =
  if not t.live then null
  else
    {
      t with
      tid;
      counters = Hashtbl.create 16;
      hists = Hashtbl.create 16;
      tracer = Tracer.create (Tracer.capacity t.tracer);
      conv = Convergence.create ();
      mv = Moves.null;
      qors_rev = [];
    }

let counter t name =
  if not t.live then Counter.null
  else
    match Hashtbl.find_opt t.counters name with
    | Some c -> c
    | None ->
        let c = Counter.make name in
        Hashtbl.add t.counters name c;
        c

let histogram t name =
  if not t.live then Hist.null
  else
    match Hashtbl.find_opt t.hists name with
    | Some h -> h
    | None ->
        let h = Hist.make name in
        Hashtbl.add t.hists name h;
        h

let now t = if t.live then t.clock () else 0.0
let span_begin = now

let span_end t name start =
  if t.live then
    let stop = t.clock () in
    Tracer.record t.tracer ~name ~ts:start ~dur:(stop -. start) ~tid:t.tid

let lap t name start =
  if t.live then begin
    let stop = t.clock () in
    Tracer.record t.tracer ~name ~ts:start ~dur:(stop -. start) ~tid:t.tid;
    stop
  end
  else 0.0

let time t name f =
  if not t.live then f ()
  else begin
    let t0 = t.clock () in
    let r = f () in
    span_end t name t0;
    r
  end

let register_moves t classes =
  if not t.live then Moves.null
  else begin
    let mk kind cls = counter t ("sa.moves." ^ cls ^ "." ^ kind) in
    let m =
      Moves.make classes
        ~accepts:(Array.map (mk "accept") classes)
        ~rejects:(Array.map (mk "reject") classes)
    in
    t.mv <- m;
    m
  end

let moves t = t.mv

let sample t ~round ~temperature ~acceptance ~best_cost =
  if t.live then
    Convergence.add t.conv
      { Convergence.tid = t.tid; round; ts = t.clock (); temperature; acceptance; best_cost }

let sorted_by_name xs = List.sort (fun (a, _) (b, _) -> String.compare a b) xs

let counters t =
  Hashtbl.fold (fun name c acc -> (name, Counter.value c) :: acc) t.counters []
  |> sorted_by_name

let histograms t =
  Hashtbl.fold (fun name h acc -> (name, h) :: acc) t.hists [] |> sorted_by_name

let spans t = Tracer.spans t.tracer
let dropped_spans t = Tracer.dropped t.tracer
let convergence t = Convergence.samples t.conv

let record_qor t q = if t.live then t.qors_rev <- q :: t.qors_rev
let qors t = List.rev t.qors_rev

let absorb t c =
  if t.live && c.live then begin
    Hashtbl.iter (fun name src -> Counter.add (counter t name) (Counter.value src)) c.counters;
    Hashtbl.iter (fun name src -> Hist.merge (histogram t name) src) c.hists;
    List.iter
      (fun (s : Tracer.span) ->
        Tracer.record t.tracer ~name:s.Tracer.name ~ts:s.Tracer.ts ~dur:s.Tracer.dur
          ~tid:s.Tracer.tid)
      (Tracer.spans c.tracer);
    Tracer.add_dropped t.tracer (Tracer.dropped c.tracer);
    List.iter (Convergence.add t.conv) (Convergence.samples c.conv);
    List.iter (record_qor t) (qors c)
  end
