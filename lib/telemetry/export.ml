(* Exporters for a sink's contents: Chrome trace_event JSON (loadable
   in chrome://tracing or Perfetto, built as a {!Json} tree), a
   human-readable text summary, and a convergence CSV. *)

let buf_addf buf fmt = Printf.ksprintf (Buffer.add_string buf) fmt

(* timestamps are relative to the sink's epoch; durations are not *)
let usec epoch t = (t -. epoch) *. 1e6

let chrome_json sink =
  let epoch = Sink.epoch sink in
  let event ~name ~ph ~ts rest =
    Json.Obj
      (("name", Json.str name)
      :: ("cat", Json.str "analog_place")
      :: ("ph", Json.str ph)
      :: ("ts", Json.float (usec epoch ts))
      :: rest)
  in
  let spans =
    List.map
      (fun (s : Tracer.span) ->
        event ~name:s.Tracer.name ~ph:"X" ~ts:s.Tracer.ts
          [
            ("dur", Json.float (s.Tracer.dur *. 1e6));
            ("pid", Json.int 1);
            ("tid", Json.int s.Tracer.tid);
          ])
      (Sink.spans sink)
  in
  let samples =
    List.map
      (fun (s : Convergence.sample) ->
        event ~name:"convergence" ~ph:"C" ~ts:s.Convergence.ts
          [
            ("pid", Json.int 1);
            ("tid", Json.int s.Convergence.tid);
            ( "args",
              Json.Obj
                [
                  ("temperature", Json.float s.Convergence.temperature);
                  ("acceptance", Json.float s.Convergence.acceptance);
                  ("best_cost", Json.float s.Convergence.best_cost);
                ] );
          ])
      (Sink.convergence sink)
  in
  let counters =
    List.map (fun (name, v) -> (name, Json.int v)) (Sink.counters sink)
  in
  let dropped =
    match Sink.dropped_spans sink with
    | 0 -> []
    | n -> [ ("dropped_spans", Json.int n) ]
  in
  Json.emit
    (Json.Obj
       [
         ("traceEvents", Json.Arr (spans @ samples));
         ("displayTimeUnit", Json.str "ms");
         ("otherData", Json.Obj (counters @ dropped));
       ])

let conv_csv sink =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "chain,round,temperature,acceptance,best_cost\n";
  let samples =
    List.sort
      (fun (a : Convergence.sample) (b : Convergence.sample) ->
        match compare a.Convergence.tid b.Convergence.tid with
        | 0 -> compare a.Convergence.round b.Convergence.round
        | c -> c)
      (Sink.convergence sink)
  in
  List.iter
    (fun (s : Convergence.sample) ->
      buf_addf buf "%d,%d,%.9g,%.6f,%.9g\n" s.Convergence.tid s.Convergence.round
        s.Convergence.temperature s.Convergence.acceptance s.Convergence.best_cost)
    samples;
  Buffer.contents buf

let text sink =
  let buf = Buffer.create 2048 in
  let counters = Sink.counters sink in
  if counters <> [] then begin
    Buffer.add_string buf "counters:\n";
    List.iter (fun (name, v) -> buf_addf buf "  %-40s %d\n" name v) counters
  end;
  let hists = Sink.histograms sink in
  if hists <> [] then begin
    Buffer.add_string buf "histograms:\n";
    List.iter
      (fun (name, h) ->
        buf_addf buf "  %-40s n=%d mean=%.4g p50=%.4g p90=%.4g p99=%.4g max=%.4g\n" name
          (Hist.count h) (Hist.mean h) (Hist.quantile h 0.5) (Hist.quantile h 0.9)
          (Hist.quantile h 0.99) (Hist.max_value h))
      hists
  end;
  let spans = Sink.spans sink in
  if spans <> [] then begin
    (* Aggregate the ring per span name: count, total, p50/p90/p99 of
       duration via the shared quantile helper. *)
    let tbl = Hashtbl.create 16 in
    List.iter
      (fun (s : Tracer.span) ->
        let durs = try Hashtbl.find tbl s.Tracer.name with Not_found -> [] in
        Hashtbl.replace tbl s.Tracer.name (s.Tracer.dur :: durs))
      spans;
    let rows =
      Hashtbl.fold (fun name durs acc -> (name, durs) :: acc) tbl []
      |> List.sort (fun (a, _) (b, _) -> String.compare a b)
    in
    Buffer.add_string buf "spans:\n";
    List.iter
      (fun (name, durs) ->
        let n = List.length durs in
        let total = List.fold_left ( +. ) 0.0 durs in
        let q p = Prelude.Stats.quantile durs p *. 1e6 in
        buf_addf buf
          "  %-40s n=%d total=%.3fms p50=%.1fus p90=%.1fus p99=%.1fus\n" name n
          (total *. 1e3) (q 0.5) (q 0.9) (q 0.99))
      rows
  end;
  (* Outside the spans-section guard: a ring that overflowed and was
     then drained (or absorbed into a parent whose own ring also
     overflowed) must still disclose the loss, or the statistics above
     silently describe a truncated sample. *)
  if Sink.dropped_spans sink > 0 then
    buf_addf buf
      "spans dropped: %d (ring capacity exceeded; oldest spans evicted, statistics cover survivors only)\n"
      (Sink.dropped_spans sink);
  let conv = Sink.convergence sink in
  if conv <> [] then begin
    let n = List.length conv in
    let last = List.nth conv (n - 1) in
    buf_addf buf "convergence: %d samples, final best_cost=%.6g (chain %d, round %d)\n" n
      last.Convergence.best_cost last.Convergence.tid last.Convergence.round
  end;
  Buffer.contents buf

(* --- safe file writing ------------------------------------------------ *)

(* The CLI writes traces/CSVs/SVGs to user-supplied paths; [open_out]
   raises [Sys_error] with a raw strerror. Return the message instead
   so callers can print one clean line and choose an exit code. *)
let write_file ~path content =
  match open_out path with
  | exception Sys_error msg -> Error msg
  | oc ->
      let r =
        try
          output_string oc content;
          Ok ()
        with Sys_error msg -> Error msg
      in
      (try close_out oc with Sys_error _ -> ());
      r
