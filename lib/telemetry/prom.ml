(* Prometheus text exposition. The format is line-oriented:

     # TYPE analog_sa_moves_seqpair_accept counter
     analog_sa_moves_seqpair_accept 4242
     # TYPE analog_eval_cost summary
     analog_eval_cost{quantile="0.5"} 1.25
     ...
     analog_eval_cost_sum 812.5
     analog_eval_cost_count 650

   [check] re-parses a document line by line and enforces the family
   discipline, so the emitter can't drift out of shape unnoticed. *)

let buf_addf buf fmt = Printf.ksprintf (Buffer.add_string buf) fmt

let legal c =
  (c >= 'a' && c <= 'z')
  || (c >= 'A' && c <= 'Z')
  || (c >= '0' && c <= '9')
  || c = '_' || c = ':'

let metric_name raw =
  let buf = Buffer.create (String.length raw + 7) in
  Buffer.add_string buf "analog_";
  String.iter (fun c -> Buffer.add_char buf (if legal c then c else '_')) raw;
  Buffer.contents buf

(* Prometheus values are floats; keep integers as digit runs and
   everything else in shortest round-trip form. *)
let value v =
  if Float.is_nan v then "NaN"
  else if v = Float.infinity then "+Inf"
  else if v = Float.neg_infinity then "-Inf"
  else if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else
    let s = Printf.sprintf "%.12g" v in
    if float_of_string s = v then s else Printf.sprintf "%.17g" v

(* HELP text per raw metric name. Known families get real prose; the
   fallback names the raw dotted metric so every family still carries
   a HELP line ([check] validates the shape either way). *)
let help raw =
  let moves_help () =
    let pre = "sa.moves." and plen = 9 in
    if String.length raw > plen && String.sub raw 0 plen = pre then
      let rest = String.sub raw plen (String.length raw - plen) in
      match String.rindex_opt rest '.' with
      | Some i -> (
          let cls = String.sub rest 0 i in
          match String.sub rest (i + 1) (String.length rest - i - 1) with
          | "accept" -> Some ("Accepted " ^ cls ^ " SA moves.")
          | "reject" -> Some ("Rejected " ^ cls ^ " SA moves.")
          | _ -> None)
      | None -> None
    else None
  in
  match raw with
  | "service.requests" -> "Placement requests received."
  | "service.hits" -> "Requests served from the placement cache."
  | "service.misses" -> "Requests that ran a full placement."
  | "service.instantiations" -> "Cached families instantiated for a hit."
  | "service.verify_evictions" ->
      "Cache entries evicted by the verify-on-hit audit."
  | "service.unfit" -> "Requests whose outline no cached family fits."
  | "service.neg_hits" -> "Requests answered by the negative cache."
  | "service.infeasible" -> "Requests proven infeasible."
  | "service.hit_us" -> "Cache-hit service latency in microseconds."
  | "service.miss_us" -> "Cache-miss service latency in microseconds."
  | "service.instantiate_us" ->
      "Family instantiation latency in microseconds."
  | "eval.sym_fallbacks" ->
      "Symmetric packs that fell back to segregated symmetry islands."
  | "route.iterations" -> "Negotiation passes run by the router."
  | "route.nets.routed" -> "Nets successfully routed."
  | "route.nets.failed" -> "Nets the router could not connect."
  | "route.ripped" -> "Nets ripped up and rerouted during negotiation."
  | "route.search.pops" -> "Dijkstra heap pops spent searching."
  | "route.overflow" -> "Residual over-capacity usage after negotiation."
  | "route.iter.overflow" -> "Per-iteration total overflow."
  | "route.iter.overused" -> "Per-iteration over-capacity gcell count."
  | "route.iter.ripped" -> "Per-iteration ripped-net count."
  | "route.iter.pops" -> "Per-iteration Dijkstra heap pops."
  | "route.iter.pres_fac" -> "Per-iteration present-sharing factor."
  | _ -> (
      match moves_help () with
      | Some h -> h
      | None -> "Telemetry metric " ^ raw ^ "." )

let render sink =
  let buf = Buffer.create 1024 in
  List.iter
    (fun (raw, v) ->
      let name = metric_name raw in
      buf_addf buf "# HELP %s %s\n" name (help raw);
      buf_addf buf "# TYPE %s counter\n" name;
      buf_addf buf "%s %d\n" name v)
    (Sink.counters sink);
  List.iter
    (fun (raw, h) ->
      let name = metric_name raw in
      buf_addf buf "# HELP %s %s\n" name (help raw);
      buf_addf buf "# TYPE %s summary\n" name;
      List.iter
        (fun q ->
          buf_addf buf "%s{quantile=\"%s\"} %s\n" name q
            (value (Hist.quantile h (float_of_string q))))
        [ "0.5"; "0.9"; "0.99" ];
      buf_addf buf "%s_sum %s\n" name (value (Hist.sum h));
      buf_addf buf "%s_count %d\n" name (Hist.count h))
    (Sink.histograms sink);
  if Sink.dropped_spans sink > 0 then begin
    buf_addf buf
      "# HELP analog_trace_dropped_spans Spans overwritten in the trace \
       ring.\n";
    buf_addf buf "# TYPE analog_trace_dropped_spans gauge\n";
    buf_addf buf "analog_trace_dropped_spans %d\n" (Sink.dropped_spans sink)
  end;
  Buffer.contents buf

(* ---- validator ------------------------------------------------------ *)

let is_name_start c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_' || c = ':'

let is_name_char c = is_name_start c || (c >= '0' && c <= '9')

let split_lines s = String.split_on_char '\n' s

(* Strip a summary-sample suffix so the sample attaches to its declared
   family: analog_foo_sum -> analog_foo when analog_foo is declared. *)
let family_of declared name =
  if Hashtbl.mem declared name then Some name
  else
    let try_suffix suf =
      let ls = String.length suf and ln = String.length name in
      if ln > ls && String.sub name (ln - ls) ls = suf then
        let base = String.sub name 0 (ln - ls) in
        if Hashtbl.mem declared base then Some base else None
      else None
    in
    match try_suffix "_sum" with
    | Some _ as r -> r
    | None -> try_suffix "_count"

let check doc =
  let declared = Hashtbl.create 16 in
  let err lineno msg = Error (Printf.sprintf "line %d: %s" lineno msg) in
  let parse_name line pos =
    let n = String.length line in
    if !pos >= n || not (is_name_start line.[!pos]) then None
    else begin
      let start = !pos in
      while !pos < n && is_name_char line.[!pos] do
        incr pos
      done;
      Some (String.sub line start (!pos - start))
    end
  in
  let parse_labels line pos =
    (* '{' name '="' ... '"' (',' ...)* '}' — values may contain any
       character except unescaped '"'. *)
    let n = String.length line in
    if !pos < n && line.[!pos] = '{' then begin
      incr pos;
      let ok = ref true and fin = ref false in
      while !ok && not !fin do
        if !pos < n && line.[!pos] = '}' then begin
          incr pos;
          fin := true
        end
        else
          match parse_name line pos with
          | None -> ok := false
          | Some _ ->
              if
                !pos + 1 < n && line.[!pos] = '=' && line.[!pos + 1] = '"'
              then begin
                pos := !pos + 2;
                while
                  !pos < n
                  && (line.[!pos] <> '"' || line.[!pos - 1] = '\\')
                do
                  incr pos
                done;
                if !pos < n then begin
                  incr pos;
                  if !pos < n && line.[!pos] = ',' then incr pos
                end
                else ok := false
              end
              else ok := false
      done;
      !ok && !fin
    end
    else true
  in
  let check_sample lineno line =
    let pos = ref 0 in
    match parse_name line pos with
    | None -> err lineno "expected metric name"
    | Some name ->
        if not (parse_labels line pos) then err lineno "malformed labels"
        else begin
          let n = String.length line in
          if !pos >= n || line.[!pos] <> ' ' then
            err lineno "expected ' ' before value"
          else begin
            let v = String.sub line (!pos + 1) (n - !pos - 1) in
            let v_ok =
              match v with
              | "+Inf" | "-Inf" | "NaN" -> true
              | _ -> float_of_string_opt v <> None
            in
            if not v_ok then err lineno (Printf.sprintf "bad value %S" v)
            else
              match family_of declared name with
              | Some _ -> Ok ()
              | None ->
                  err lineno
                    (Printf.sprintf "sample %S has no preceding # TYPE" name)
          end
        end
  in
  let check_type lineno line =
    (* "# TYPE <name> <type>" *)
    let parts = String.split_on_char ' ' line in
    match parts with
    | [ "#"; "TYPE"; name; ty ] ->
        if name = "" || not (is_name_start name.[0]) then
          err lineno "bad metric name in # TYPE"
        else if not (String.for_all is_name_char name) then
          err lineno "bad metric name in # TYPE"
        else if not (List.mem ty [ "counter"; "gauge"; "summary"; "histogram"; "untyped" ])
        then err lineno (Printf.sprintf "unknown metric type %S" ty)
        else begin
          Hashtbl.replace declared name ();
          Ok ()
        end
    | _ -> err lineno "malformed # TYPE line"
  in
  let check_help lineno line =
    (* "# HELP <name> <text...>" — free text after the name, but the
       name itself must be a legal metric name. *)
    match String.split_on_char ' ' line with
    | "#" :: "HELP" :: name :: _ :: _ ->
        if
          name = ""
          || (not (is_name_start name.[0]))
          || not (String.for_all is_name_char name)
        then err lineno "bad metric name in # HELP"
        else Ok ()
    | _ -> err lineno "malformed # HELP line"
  in
  let rec go lineno = function
    | [] -> Ok ()
    | line :: rest ->
        let r =
          if line = "" then Ok ()
          else if String.length line >= 6 && String.sub line 0 6 = "# TYPE" then
            check_type lineno line
          else if String.length line >= 6 && String.sub line 0 6 = "# HELP" then
            check_help lineno line
          else if String.length line >= 1 && line.[0] = '#' then Ok ()
          else check_sample lineno line
        in
        (match r with Ok () -> go (lineno + 1) rest | Error _ as e -> e)
  in
  go 1 (split_lines doc)
