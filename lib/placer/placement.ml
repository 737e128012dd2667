open Geometry

type t = {
  circuit : Netlist.Circuit.t;
  placed : Transform.placed list;
  by_cell : Transform.placed option array;
}

type outcome = {
  placement : t;
  cost : float;
  sa_rounds : int;
  evaluated : int;
  workers : int;
  chains : int;
}

(* [by_cell] indexes placements by cell id so [rect_of] (and through it
   the per-pin lookups of [hpwl]) is O(1) instead of an O(n) list scan.
   Out-of-range or duplicate cells keep the list as source of truth and
   are reported by [validate]. *)
let make circuit placed =
  let n = Netlist.Circuit.size circuit in
  let by_cell = Array.make n None in
  List.iter
    (fun (p : Transform.placed) ->
      if p.cell >= 0 && p.cell < n && by_cell.(p.cell) = None then
        by_cell.(p.cell) <- Some p)
    placed;
  { circuit; placed; by_cell }

let outcome_of placement (r : _ Anneal.Parallel.multi_start) =
  {
    placement;
    cost = r.cost;
    sa_rounds = r.rounds;
    evaluated = r.evaluated;
    workers = r.workers;
    chains = r.chains;
  }

let bbox t =
  match t.placed with
  | [] -> Rect.at_origin ~w:0 ~h:0
  | _ ->
      let b = Rect.bbox_of_list (List.map (fun p -> p.Transform.rect) t.placed) in
      Rect.at_origin ~w:(Rect.x_max b) ~h:(Rect.y_max b)

let area t = Rect.area (bbox t)
let width t = (bbox t).Rect.w
let height t = (bbox t).Rect.h

let rect_of t m =
  if m < 0 || m >= Array.length t.by_cell then None
  else Option.map (fun (p : Transform.placed) -> p.rect) t.by_cell.(m)

let hpwl t =
  let center2 m = Option.map Rect.center2 (rect_of t m) in
  Netlist.Wirelength.hpwl t.circuit.Netlist.Circuit.nets ~center2

let dead_space t =
  area t - Outline.covered_area (List.map (fun p -> p.Transform.rect) t.placed)

let validate t =
  let n = Netlist.Circuit.size t.circuit in
  let counts = Array.make n 0 in
  let ( let* ) = Result.bind in
  let* () =
    List.fold_left
      (fun acc (p : Transform.placed) ->
        let* () = acc in
        if p.cell < 0 || p.cell >= n then
          Error (Printf.sprintf "cell %d out of range" p.cell)
        else begin
          counts.(p.cell) <- counts.(p.cell) + 1;
          if p.rect.Rect.x < 0 || p.rect.Rect.y < 0 then
            Error (Printf.sprintf "cell %d at negative coordinates" p.cell)
          else Ok ()
        end)
      (Ok ()) t.placed
  in
  let* () =
    let bad = ref None in
    Array.iteri
      (fun i c -> if c <> 1 && !bad = None then bad := Some (i, c))
      counts;
    match !bad with
    | None -> Ok ()
    | Some (i, 0) -> Error (Printf.sprintf "module %d not placed" i)
    | Some (i, c) -> Error (Printf.sprintf "module %d placed %d times" i c)
  in
  match
    Constraints.Placement_check.overlap_free t.placed
  with
  | Ok () -> Ok ()
  | Error v ->
      Error (Format.asprintf "%a" Constraints.Placement_check.pp_violation v)

let pp ppf t =
  Format.fprintf ppf "@[<v>placement of %s: %dx%d area %d hpwl %.0f@]"
    t.circuit.Netlist.Circuit.name (width t) (height t) (area t) (hpwl t)
