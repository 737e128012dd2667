(* Exporters for a sink's contents: Chrome trace_event JSON (loadable
   in chrome://tracing or Perfetto), a human-readable text summary, and
   a convergence CSV. Also a minimal JSON syntax checker — the
   environment carries no JSON library, and both the test suite and the
   CLI want to assert that the trace we emit actually parses. *)

let buf_addf buf fmt = Printf.ksprintf (Buffer.add_string buf) fmt

(* JSON string escaping per RFC 8259: the two mandatory escapes plus
   control characters. Span names are ASCII identifiers in practice,
   but the exporter must not be able to emit invalid JSON. *)
let escape s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 -> buf_addf buf "\\u%04x" (Char.code c)
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* JSON numbers must be finite; %.17g round-trips any finite float. *)
let num v =
  if Float.is_nan v || Float.is_integer v && Float.abs v < 1e15 then
    Printf.sprintf "%.0f" (if Float.is_nan v then 0.0 else v)
  else if Float.abs v = Float.infinity then if v > 0.0 then "1e308" else "-1e308"
  else Printf.sprintf "%.17g" v

(* timestamps are relative to the sink's epoch; durations are not *)
let usec epoch t = (t -. epoch) *. 1e6

let chrome_json sink =
  let buf = Buffer.create 4096 in
  let epoch = Sink.epoch sink in
  Buffer.add_string buf "{\"traceEvents\":[";
  let first = ref true in
  let sep () = if !first then first := false else Buffer.add_char buf ',' in
  List.iter
    (fun (s : Tracer.span) ->
      sep ();
      buf_addf buf
        "{\"name\":\"%s\",\"cat\":\"analog_place\",\"ph\":\"X\",\"ts\":%s,\"dur\":%s,\"pid\":1,\"tid\":%d}"
        (escape s.Tracer.name)
        (num (usec epoch s.Tracer.ts))
        (num (s.Tracer.dur *. 1e6))
        s.Tracer.tid)
    (Sink.spans sink);
  List.iter
    (fun (s : Convergence.sample) ->
      sep ();
      buf_addf buf
        "{\"name\":\"convergence\",\"cat\":\"analog_place\",\"ph\":\"C\",\"ts\":%s,\"pid\":1,\"tid\":%d,\"args\":{\"temperature\":%s,\"acceptance\":%s,\"best_cost\":%s}}"
        (num (usec epoch s.Convergence.ts))
        s.Convergence.tid
        (num s.Convergence.temperature)
        (num s.Convergence.acceptance)
        (num s.Convergence.best_cost))
    (Sink.convergence sink);
  Buffer.add_string buf "],\"displayTimeUnit\":\"ms\",\"otherData\":{";
  let firstc = ref true in
  List.iter
    (fun (name, v) ->
      if !firstc then firstc := false else Buffer.add_char buf ',';
      buf_addf buf "\"%s\":%d" (escape name) v)
    (Sink.counters sink);
  if Sink.dropped_spans sink > 0 then begin
    if not !firstc then Buffer.add_char buf ',';
    buf_addf buf "\"dropped_spans\":%d" (Sink.dropped_spans sink)
  end;
  Buffer.add_string buf "}}";
  Buffer.contents buf

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

(* --- minimal JSON syntax checker ------------------------------------- *)

exception Bad of string

let check_json s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Bad (Printf.sprintf "%s at offset %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while
      !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      advance ()
    done
  in
  let expect c =
    match peek () with
    | Some x when x = c -> advance ()
    | _ -> fail (Printf.sprintf "expected '%c'" c)
  in
  let is_hex c =
    (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')
  in
  let parse_string () =
    expect '"';
    let fin = ref false in
    while not !fin do
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance (); fin := true
      | Some '\\' -> (
          advance ();
          match peek () with
          | Some ('"' | '\\' | '/' | 'b' | 'f' | 'n' | 'r' | 't') -> advance ()
          | Some 'u' ->
              advance ();
              for _ = 1 to 4 do
                match peek () with
                | Some c when is_hex c -> advance ()
                | _ -> fail "bad \\u escape"
              done
          | _ -> fail "bad escape")
      | Some c when Char.code c < 0x20 -> fail "control char in string"
      | Some _ -> advance ()
    done
  in
  let parse_number () =
    let digits () =
      let seen = ref false in
      while (match peek () with Some c when c >= '0' && c <= '9' -> true | _ -> false) do
        seen := true;
        advance ()
      done;
      if not !seen then fail "expected digit"
    in
    (match peek () with Some '-' -> advance () | _ -> ());
    (match peek () with
    | Some '0' -> advance ()
    | Some c when c >= '1' && c <= '9' -> digits ()
    | _ -> fail "bad number");
    (match peek () with
    | Some '.' -> advance (); digits ()
    | _ -> ());
    match peek () with
    | Some ('e' | 'E') ->
        advance ();
        (match peek () with Some ('+' | '-') -> advance () | _ -> ());
        digits ()
    | _ -> ()
  in
  let parse_lit lit =
    String.iter
      (fun c ->
        match peek () with
        | Some x when x = c -> advance ()
        | _ -> fail (Printf.sprintf "expected %s" lit))
      lit
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '"' -> parse_string ()
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then advance ()
        else begin
          let fin = ref false in
          while not !fin do
            skip_ws ();
            parse_string ();
            skip_ws ();
            expect ':';
            parse_value ();
            skip_ws ();
            match peek () with
            | Some ',' -> advance ()
            | Some '}' -> advance (); fin := true
            | _ -> fail "expected ',' or '}'"
          done
        end
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then advance ()
        else begin
          let fin = ref false in
          while not !fin do
            parse_value ();
            skip_ws ();
            match peek () with
            | Some ',' -> advance ()
            | Some ']' -> advance (); fin := true
            | _ -> fail "expected ',' or ']'"
          done
        end
    | Some 't' -> parse_lit "true"
    | Some 'f' -> parse_lit "false"
    | Some 'n' -> parse_lit "null"
    | Some ('-' | '0' .. '9') -> parse_number ()
    | Some c -> fail (Printf.sprintf "unexpected '%c'" c)
  in
  try
    parse_value ();
    skip_ws ();
    if !pos <> n then Error (Printf.sprintf "trailing garbage at offset %d" !pos)
    else Ok ()
  with Bad msg -> Error msg
