(* Flattened nets: pin lists concatenated into one int array with a
   CSR-style offset table, so the annealing hot path can walk every net
   without touching a single list cell or allocating. *)
type flat = {
  off : int array;  (* length #nets + 1; net i owns pins off.(i) .. off.(i+1)-1 *)
  pins : int array;
  weight : float array;
}

let flatten nets =
  let nets_arr = Array.of_list nets in
  let k = Array.length nets_arr in
  let off = Array.make (k + 1) 0 in
  Array.iteri
    (fun i (net : Net.t) -> off.(i + 1) <- off.(i) + List.length net.Net.pins)
    nets_arr;
  let pins = Array.make (max 1 off.(k)) 0 in
  let weight = Array.make (max 1 k) 0.0 in
  Array.iteri
    (fun i (net : Net.t) ->
      weight.(i) <- net.Net.weight;
      List.iteri (fun j p -> pins.(off.(i) + j) <- p) net.Net.pins)
    nets_arr;
  { off; pins; weight }

type boxes = {
  min_x2 : int array;
  max_x2 : int array;
  min_y2 : int array;
  max_y2 : int array;
}

let boxes t =
  let k = max 1 (Array.length t.off - 1) in
  {
    min_x2 = Array.make k 0;
    max_x2 = Array.make k 0;
    min_y2 = Array.make k 0;
    max_y2 = Array.make k 0;
  }

(* Same accumulation order and arithmetic as [hpwl] below, so the two
   agree to the last bit when every pin is placed (tested). The one
   pin walk of a cost query: each net's box is kept for the congestion
   estimate, which reads it instead of walking the pins again. *)
let hpwl_flat t ~cx2 ~cy2 ~boxes =
  let acc = ref 0.0 in
  let k = Array.length t.off - 1 in
  for i = 0 to k - 1 do
    let lo = t.off.(i) and hi = t.off.(i + 1) in
    if hi - lo >= 2 then begin
      let p0 = t.pins.(lo) in
      let min_x = ref cx2.(p0)
      and max_x = ref cx2.(p0)
      and min_y = ref cy2.(p0)
      and max_y = ref cy2.(p0) in
      for j = lo + 1 to hi - 1 do
        let p = t.pins.(j) in
        let x = cx2.(p) and y = cy2.(p) in
        if x < !min_x then min_x := x;
        if x > !max_x then max_x := x;
        if y < !min_y then min_y := y;
        if y > !max_y then max_y := y
      done;
      boxes.min_x2.(i) <- !min_x;
      boxes.max_x2.(i) <- !max_x;
      boxes.min_y2.(i) <- !min_y;
      boxes.max_y2.(i) <- !max_y;
      acc :=
        !acc
        +. (t.weight.(i)
            *. float_of_int (!max_x - !min_x + !max_y - !min_y)
            /. 2.0)
    end
  done;
  !acc

let hpwl nets ~center2 =
  List.fold_left
    (fun acc (net : Net.t) ->
      let centers = List.filter_map center2 net.Net.pins in
      match centers with
      | [] | [ _ ] -> acc
      | (x0, y0) :: rest ->
          let min_x, max_x, min_y, max_y =
            List.fold_left
              (fun (a, b, c, d) (x, y) ->
                (min a x, max b x, min c y, max d y))
              (x0, x0, y0, y0) rest
          in
          acc
          +. (net.Net.weight
              *. float_of_int (max_x - min_x + max_y - min_y)
              /. 2.0))
    0.0 nets
