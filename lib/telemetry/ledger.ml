(* JSONL run ledger. Field order in [to_line] is the schema; [of_line]
   rebuilds the same record, and Json's verbatim number lexemes make
   read -> re-append byte-identical. *)

let schema_version = 1

type rect = { cell : string; x : int; y : int; w : int; h : int }

type entry = {
  schema : int;
  generated_at : string;
  git_rev : string;
  label : string;
  netlist_hash : string;
  engine : string;
  seed : int;
  schedule : string;
  workers : int;
  chains : int;
  qor : Qor.t;
  chain_qors : Qor.t list;
  placement : rect list;
}

let timestamp () =
  let tm = Unix.gmtime (Unix.gettimeofday ()) in
  Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (tm.Unix.tm_year + 1900)
    (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min
    tm.Unix.tm_sec

let git_rev () =
  try
    let ic = Unix.open_process_in "git rev-parse --short HEAD 2>/dev/null" in
    let line = try input_line ic with End_of_file -> "" in
    match Unix.close_process_in ic with
    | Unix.WEXITED 0 when line <> "" -> line
    | _ -> "unknown"
  with _ -> "unknown"

let make ?generated_at ?git_rev:rev ?(chain_qors = []) ?(placement = []) ~label
    ~netlist_hash ~engine ~seed ~schedule ~workers ~chains ~qor () =
  {
    schema = schema_version;
    generated_at = (match generated_at with Some t -> t | None -> timestamp ());
    git_rev = (match rev with Some r -> r | None -> git_rev ());
    label;
    netlist_hash;
    engine;
    seed;
    schedule;
    workers;
    chains;
    qor;
    chain_qors;
    placement;
  }

(* ---- serialization -------------------------------------------------- *)

let rect_to_json r =
  Json.Obj
    [
      ("cell", Json.str r.cell);
      ("x", Json.int r.x);
      ("y", Json.int r.y);
      ("w", Json.int r.w);
      ("h", Json.int r.h);
    ]

let to_line e =
  Json.emit
    (Json.Obj
       [
         ("schema", Json.int e.schema);
         ("generated_at", Json.str e.generated_at);
         ("git_rev", Json.str e.git_rev);
         ("label", Json.str e.label);
         ("netlist_hash", Json.str e.netlist_hash);
         ("engine", Json.str e.engine);
         ("seed", Json.int e.seed);
         ("schedule", Json.str e.schedule);
         ("workers", Json.int e.workers);
         ("chains", Json.int e.chains);
         ("qor", Qor.to_json e.qor);
         ("chain_qors", Json.Arr (List.map Qor.to_json e.chain_qors));
         ("placement", Json.Arr (List.map rect_to_json e.placement));
       ])

let field conv name j =
  match Json.member name j with
  | None -> Error (Printf.sprintf "missing field %S" name)
  | Some v -> (
      match conv v with
      | Some x -> Ok x
      | None -> Error (Printf.sprintf "bad value for field %S" name))

let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e

let rec map_result f = function
  | [] -> Ok []
  | x :: rest ->
      let* y = f x in
      let* ys = map_result f rest in
      Ok (y :: ys)

let rect_of_json j =
  let* cell = field Json.to_str "cell" j in
  let* x = field Json.to_int "x" j in
  let* y = field Json.to_int "y" j in
  let* w = field Json.to_int "w" j in
  let* h = field Json.to_int "h" j in
  Ok { cell; x; y; w; h }

let of_line line =
  let* j = Json.parse line in
  let* schema = field Json.to_int "schema" j in
  if schema <> schema_version then
    Error (Printf.sprintf "unsupported ledger schema %d (expected %d)" schema
             schema_version)
  else
    let* generated_at = field Json.to_str "generated_at" j in
    let* git_rev = field Json.to_str "git_rev" j in
    let* label = field Json.to_str "label" j in
    let* netlist_hash = field Json.to_str "netlist_hash" j in
    let* engine = field Json.to_str "engine" j in
    let* seed = field Json.to_int "seed" j in
    let* schedule = field Json.to_str "schedule" j in
    let* workers = field Json.to_int "workers" j in
    let* chains = field Json.to_int "chains" j in
    let* qor_j =
      match Json.member "qor" j with
      | Some v -> Ok v
      | None -> Error "missing field \"qor\""
    in
    let* qor = Qor.of_json qor_j in
    let* chain_js = field Json.to_list "chain_qors" j in
    let* chain_qors = map_result Qor.of_json chain_js in
    let* placement_js = field Json.to_list "placement" j in
    let* placement = map_result rect_of_json placement_js in
    Ok
      {
        schema;
        generated_at;
        git_rev;
        label;
        netlist_hash;
        engine;
        seed;
        schedule;
        workers;
        chains;
        qor;
        chain_qors;
        placement;
      }

(* ---- file I/O ------------------------------------------------------- *)

let append path e =
  match
    open_out_gen [ Open_append; Open_creat; Open_wronly ] 0o644 path
  with
  | exception Sys_error msg -> Error msg
  | oc ->
      let r =
        try
          output_string oc (to_line e);
          output_char oc '\n';
          Ok ()
        with Sys_error msg -> Error msg
      in
      (try close_out oc with Sys_error _ -> ());
      r

let read path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error msg -> Error msg
  | text ->
      (* A crash part-way through an append leaves a last line with no
         terminating newline. [split_on_char] yields "" after a final
         newline, so a non-empty last segment is exactly that torn
         tail: skip it when it does not parse, fail on any other bad
         line. *)
      let rec go lineno acc = function
        | [] -> Ok (List.rev acc)
        | "" :: rest -> go (lineno + 1) acc rest
        | line :: rest -> (
            match of_line line with
            | Ok e -> go (lineno + 1) (e :: acc) rest
            | Error _ when rest = [] -> Ok (List.rev acc)
            | Error msg -> Error (Printf.sprintf "%s:%d: %s" path lineno msg))
      in
      go 1 [] (String.split_on_char '\n' text)

let last ?(n = 1) path =
  match read path with
  | Error _ as e -> e
  | Ok entries ->
      let len = List.length entries in
      if len <= n then Ok entries
      else Ok (List.filteri (fun i _ -> i >= len - n) entries)

(* The run QoR lists every checked constraint group — satisfied ones
   included, count = 0 — so the violation list doubles as the record of
   the run's obligations. An independent verifier re-hydrates them from
   here; member indices refer to the entry's placement rects, which are
   written in cell order. *)
let constraint_sets e =
  List.map
    (fun (v : Qor.violation) ->
      (v.Qor.group, v.Qor.ckind, v.Qor.members, v.Qor.count))
    e.qor.Qor.violations
