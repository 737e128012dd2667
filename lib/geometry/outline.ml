let bounding_box rects = Rect.bbox_of_list rects

(* Union area by sweeping over compressed x-coordinates: within each x
   slab, sum the union of y-intervals of the rectangles covering it. *)
let covered_area rects =
  let rects = List.filter (fun r -> Rect.area r > 0) rects in
  match rects with
  | [] -> 0
  | _ ->
      let xs =
        List.concat_map (fun (r : Rect.t) -> [ r.x; Rect.x_max r ]) rects
        |> List.sort_uniq Int.compare
      in
      let rec slabs acc = function
        | x0 :: (x1 :: _ as rest) ->
            let covering =
              List.filter
                (fun (r : Rect.t) -> r.x <= x0 && Rect.x_max r >= x1)
                rects
            in
            let spans =
              List.map Rect.y_span covering
              |> List.sort Interval.compare
            in
            let rec union_len cur_lo cur_hi acc = function
              | [] -> acc + (cur_hi - cur_lo)
              | (i : Interval.t) :: rest ->
                  if i.lo > cur_hi then
                    union_len i.lo i.hi (acc + (cur_hi - cur_lo)) rest
                  else union_len cur_lo (max cur_hi i.hi) acc rest
            in
            let len =
              match spans with
              | [] -> 0
              | (i : Interval.t) :: rest -> union_len i.lo i.hi 0 rest
            in
            slabs (acc + (len * (x1 - x0))) rest
        | [ _ ] | [] -> acc
      in
      slabs 0 xs

let dead_area rects =
  match List.filter (fun r -> Rect.area r > 0) rects with
  | [] -> 0
  | rs -> Rect.area (bounding_box rs) - covered_area rs

(* Raising each top in ascending [y_max] order leaves every column at
   the highest top over it. *)
let top_profile rects =
  let rects =
    List.filter (fun r -> Rect.area r > 0) rects
    |> List.sort (fun a b -> Int.compare (Rect.y_max a) (Rect.y_max b))
  in
  let s = Contour.scratch ((2 * List.length rects) + 1) in
  List.iter
    (fun (r : Rect.t) ->
      Contour.raise_into s ~x0:r.x ~x1:(Rect.x_max r) ~y:(Rect.y_max r))
    rects;
  Contour.scratch_segments s

(* Edge-adjacency: positive-length shared boundary. Two rects share an
   edge iff they touch or overlap in one axis with positive overlap in
   the other. *)
let adjacent (a : Rect.t) (b : Rect.t) =
  let x_ov =
    Interval.length (Interval.intersect (Rect.x_span a) (Rect.x_span b))
  in
  let y_ov =
    Interval.length (Interval.intersect (Rect.y_span a) (Rect.y_span b))
  in
  let x_touch = Rect.x_max a = b.x || Rect.x_max b = a.x in
  let y_touch = Rect.y_max a = b.y || Rect.y_max b = a.y in
  Rect.overlaps a b || (x_touch && y_ov > 0) || (y_touch && x_ov > 0)

let connected rects =
  match Array.of_list rects with
  | [||] -> true
  | arr ->
      let n = Array.length arr in
      let seen = Array.make n false in
      let rec visit i =
        if not seen.(i) then begin
          seen.(i) <- true;
          for j = 0 to n - 1 do
            if (not seen.(j)) && adjacent arr.(i) arr.(j) then visit j
          done
        end
      in
      visit 0;
      Array.for_all Fun.id seen
