type t = Shape.t list (* sorted by w increasing, h strictly decreasing *)

(* The one front rule. A builder holds the Pareto front of the shapes
   offered so far, sorted like [t]. A shape enters iff no kept shape
   weakly dominates it, and evicts the kept shapes it dominates; so
   at every (w, h) of the final front the first-offered shape
   survives. A list is enough: fronts hold tens of points, and a
   dominated shape, by far the common case, leaves after a scan that
   allocates nothing. *)
type builder = { mutable front : Shape.t list }

let builder () = { front = [] }
let is_empty b = b.front = []

(* The kept shapes of width <= w have heights decreasing with width,
   so the scan stops at the first one as low as [h]. Top-level, so a
   test builds no closure. *)
let rec dominated_in front w h =
  match front with
  | (s : Shape.t) :: rest when s.Shape.w <= w ->
      s.Shape.h <= h || dominated_in rest w h
  | _ -> false

let dominated b ~w ~h = dominated_in b.front w h

let add b (s : Shape.t) =
  if not (dominated b ~w:s.Shape.w ~h:s.Shape.h) then begin
    (* kept shapes narrower than [s] are higher (it is not dominated);
       of the rest, those as high as [s] are a prefix, and [s]
       dominates them *)
    let rec evict = function
      | (p : Shape.t) :: rest when p.Shape.h >= s.Shape.h -> evict rest
      | rest -> rest
    in
    let rec insert = function
      | (p : Shape.t) :: rest when p.Shape.w < s.Shape.w -> p :: insert rest
      | rest -> s :: evict rest
    in
    b.front <- insert b.front
  end

let thin cap front =
  let n = List.length front in
  if n <= cap then front
  else
    let arr = Array.of_list front in
    let must_keep =
      (* min width = first, min height = last, min area *)
      let min_area_idx = ref 0 in
      Array.iteri
        (fun i s ->
          if Shape.area s < Shape.area arr.(!min_area_idx) then
            min_area_idx := i)
        arr;
      [ 0; n - 1; !min_area_idx ]
    in
    let step = float_of_int (n - 1) /. float_of_int (max 1 (cap - 1)) in
    let picked =
      List.init cap (fun k -> int_of_float (Float.round (float_of_int k *. step)))
      @ must_keep
      |> List.sort_uniq Int.compare
    in
    List.map (fun i -> arr.(i)) picked

let of_builder ?cap b =
  match (b.front, cap) with
  | [], _ -> invalid_arg "Shape_fn.of_builder: empty"
  | front, Some c -> thin c front
  | front, None -> front

let of_shapes ?cap shapes =
  let b = builder () in
  List.iter (add b) shapes;
  of_builder ?cap b

let shapes t = t
let cardinal = List.length

let min_area = function
  | [] -> invalid_arg "Shape_fn.min_area: empty"
  | first :: rest ->
      List.fold_left
        (fun best s -> if Shape.area s < Shape.area best then s else best)
        first rest

let min_width = function
  | [] -> invalid_arg "Shape_fn.min_width: empty"
  | (first : Shape.t) :: _ -> first.Shape.w

let min_height t =
  match List.rev t with
  | [] -> invalid_arg "Shape_fn.min_height: empty"
  | (last : Shape.t) :: _ -> last.Shape.h

let best_within ?(max_w = max_int) ?(max_h = max_int) t =
  List.filter (fun (s : Shape.t) -> s.Shape.w <= max_w && s.Shape.h <= max_h) t
  |> function
  | [] -> None
  | fits -> Some (min_area fits)

let fits ?max_w ?max_h t = best_within ?max_w ?max_h t <> None

let instantiate ?max_w ?max_h t =
  Option.map Shape.realize (best_within ?max_w ?max_h t)

let points t = List.map (fun (s : Shape.t) -> (s.Shape.w, s.Shape.h)) t
let merge ?cap a b = of_shapes ?cap (a @ b)

let dominates_fn a b =
  List.for_all
    (fun (sb : Shape.t) ->
      List.exists (fun (sa : Shape.t) -> Shape.dominates sa sb) a)
    b

let pp ppf t =
  Format.fprintf ppf "@[<h>%a@]"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf " ")
       Shape.pp)
    t
