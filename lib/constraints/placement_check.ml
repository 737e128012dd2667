open Geometry

type violation = { subject : string; detail : string }

let pp_violation ppf v = Format.fprintf ppf "%s: %s" v.subject v.detail

let violation subject fmt = Format.kasprintf (fun detail -> { subject; detail }) fmt

let find placements cell =
  List.find_opt (fun (p : Transform.placed) -> p.cell = cell) placements

let get placements cell =
  match find placements cell with
  | Some p -> Ok p
  | None -> Error (violation "lookup" "cell %d not placed" cell)

let rec first_error = function
  | [] -> Ok ()
  | Ok () :: rest -> first_error rest
  | (Error _ as e) :: _ -> e

let overlap_free placements =
  let arr = Array.of_list placements in
  let n = Array.length arr in
  let rec scan i j =
    if i >= n then Ok ()
    else if j >= n then scan (i + 1) (i + 2)
    else if Rect.overlaps arr.(i).Transform.rect arr.(j).Transform.rect then
      Error
        (violation "overlap" "cells %d and %d overlap (%a vs %a)"
           arr.(i).Transform.cell arr.(j).Transform.cell Rect.pp
           arr.(i).Transform.rect Rect.pp arr.(j).Transform.rect)
    else scan i (j + 1)
  in
  scan 0 1

let ( let* ) = Result.bind

(* Axis from one pair: mirrored rectangles satisfy x_a + w + x_b + w =
   ... precisely x_b = axis2 - x_a - w, i.e. axis2 = x_a + x_b + w. *)
let pair_axis (a : Transform.placed) (b : Transform.placed) =
  let ra = a.rect and rb = b.rect in
  if ra.Rect.w <> rb.Rect.w || ra.Rect.h <> rb.Rect.h then
    Error
      (violation "symmetry" "pair (%d,%d) dimension mismatch" a.cell b.cell)
  else if ra.Rect.y <> rb.Rect.y then
    Error (violation "symmetry" "pair (%d,%d) y mismatch" a.cell b.cell)
  else Ok (ra.Rect.x + rb.Rect.x + ra.Rect.w)

let symmetry ~group placements =
  let* axes =
    List.fold_left
      (fun acc (a, b) ->
        let* acc = acc in
        let* pa = get placements a in
        let* pb = get placements b in
        let* axis2 = pair_axis pa pb in
        Ok (axis2 :: acc))
      (Ok []) group.Symmetry_group.pairs
  in
  let* self_axes =
    List.fold_left
      (fun acc s ->
        let* acc = acc in
        let* p = get placements s in
        Ok ((2 * p.rect.Rect.x) + p.rect.Rect.w :: acc))
      (Ok []) group.Symmetry_group.selfs
  in
  match axes @ self_axes with
  | [] -> Error (violation "symmetry" "empty group %s" group.name)
  | axis2 :: rest ->
      if List.for_all (fun a -> a = axis2) rest then Ok axis2
      else
        Error
          (violation "symmetry" "group %s: inconsistent axes %a"
             group.Symmetry_group.name
             (Format.pp_print_list
                ~pp_sep:(fun ppf () -> Format.pp_print_string ppf " ")
                Format.pp_print_int)
             (axis2 :: rest))

(* Pairing-free mirror check: a set of rectangles is mirror-symmetric
   about SOME vertical axis iff it is symmetric about its own bounding
   box's axis (any mirror symmetry fixes the bounding box). Used when
   the pair/self split is unavailable — e.g. re-verifying a ledger
   entry, which records only the member set. *)
let mirror_symmetric ~members placements =
  let* placed =
    List.fold_left
      (fun acc m ->
        let* acc = acc in
        let* p = get placements m in
        Ok (p :: acc))
      (Ok []) members
  in
  match placed with
  | [] -> Error (violation "mirror" "empty member set")
  | _ ->
      let rects = List.map (fun p -> p.Transform.rect) placed in
      let bb = Outline.bounding_box rects in
      let axis2 = (2 * bb.Rect.x) + bb.Rect.w in
      let mirrored_exists (p : Transform.placed) =
        let r = p.Transform.rect in
        List.exists
          (fun (q : Transform.placed) ->
            let s = q.Transform.rect in
            s.Rect.w = r.Rect.w && s.Rect.h = r.Rect.h
            && s.Rect.y = r.Rect.y
            && s.Rect.x = axis2 - r.Rect.x - r.Rect.w)
          placed
      in
      let* () =
        first_error
          (List.map
             (fun p ->
               if mirrored_exists p then Ok ()
               else
                 Error
                   (violation "mirror"
                      "cell %d has no mirror twin about the set's axis"
                      p.Transform.cell))
             placed)
      in
      Ok axis2

let proximity ~members placements =
  let* rects =
    List.fold_left
      (fun acc m ->
        let* acc = acc in
        let* p = get placements m in
        Ok (p.Transform.rect :: acc))
      (Ok []) members
  in
  if Outline.connected rects then Ok ()
  else
    Error
      (violation "proximity" "members %a not edge-connected"
         (Format.pp_print_list
            ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",")
            Format.pp_print_int)
         members)

let common_centroid ~members placements =
  let* placed =
    List.fold_left
      (fun acc m ->
        let* acc = acc in
        let* p = get placements m in
        Ok (p :: acc))
      (Ok []) members
  in
  match placed with
  | [] -> Error (violation "centroid" "empty member set")
  | _ ->
      let k = List.length placed in
      let centers = List.map (fun p -> Rect.center2 p.Transform.rect) placed in
      let sx = List.fold_left (fun acc (x, _) -> acc + x) 0 centers in
      let sy = List.fold_left (fun acc (_, y) -> acc + y) 0 centers in
      (* centroid in units of 1/(2k): point symmetry needs, for every
         cell center c (doubled), a matching cell at (2*centroid - c),
         i.e. at (2*sx/k - cx). Scale everything by k to stay integral. *)
      let mirrored_exists p =
        let cx, cy = Rect.center2 p.Transform.rect in
        let target = ((2 * sx) - (k * cx), (2 * sy) - (k * cy)) in
        List.exists
          (fun q ->
            let qx, qy = Rect.center2 q.Transform.rect in
            (k * qx, k * qy) = target
            && q.Transform.rect.Rect.w = p.Transform.rect.Rect.w
            && q.Transform.rect.Rect.h = p.Transform.rect.Rect.h)
          placed
      in
      first_error
        (List.map
           (fun p ->
             if mirrored_exists p then Ok ()
             else
               Error
                 (violation "centroid" "cell %d has no point-symmetric twin"
                    p.Transform.cell))
           placed)

let common_centroid_units units =
  match units with
  | [] -> Error (violation "centroid-units" "no units")
  | _ ->
      let k = List.length units in
      let centers = List.map (fun (_, r) -> Rect.center2 r) units in
      let sx = List.fold_left (fun acc (x, _) -> acc + x) 0 centers in
      let sy = List.fold_left (fun acc (_, y) -> acc + y) 0 centers in
      let mirrored_exists (owner, r) =
        let cx, cy = Rect.center2 r in
        let target = ((2 * sx) - (k * cx), (2 * sy) - (k * cy)) in
        List.exists
          (fun (owner', r') ->
            let qx, qy = Rect.center2 r' in
            owner' = owner && (k * qx, k * qy) = target)
          units
      in
      let rec overlap = function
        | [] -> Ok ()
        | (_, r) :: rest ->
            if List.exists (fun (_, r') -> Rect.overlaps r r') rest then
              Error (violation "centroid-units" "units overlap")
            else overlap rest
      in
      let ( let* ) = Result.bind in
      let* () = overlap units in
      first_error
        (List.map
           (fun u ->
             if mirrored_exists u then Ok ()
             else
               Error
                 (violation "centroid-units"
                    "owner %d unit has no point-symmetric twin" (fst u)))
           units)
