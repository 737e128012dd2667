type t = { order : int array; inv : int array }

let compute_inv order =
  let n = Array.length order in
  let inv = Array.make n (-1) in
  Array.iteri (fun pos cell -> inv.(cell) <- pos) order;
  inv

let of_array arr =
  let n = Array.length arr in
  let seen = Array.make n false in
  Array.iter
    (fun c ->
      if c < 0 || c >= n || seen.(c) then
        invalid_arg "Perm.of_array: not a permutation";
      seen.(c) <- true)
    arr;
  let order = Array.copy arr in
  { order; inv = compute_inv order }

let identity n = of_array (Array.init n Fun.id)
let random rng n = of_array (Prelude.Rng.permutation rng n)
let size p = Array.length p.order
let cell_at p pos = p.order.(pos)
let pos_of p cell = p.inv.(cell)

let swap_positions p i j =
  let order = Array.copy p.order in
  let tmp = order.(i) in
  order.(i) <- order.(j);
  order.(j) <- tmp;
  { order; inv = compute_inv order }

let swap_cells p a b = swap_positions p p.inv.(a) p.inv.(b)

let copy p = { order = Array.copy p.order; inv = Array.copy p.inv }

let blit ~src ~dst =
  let n = Array.length src.order in
  if Array.length dst.order <> n then invalid_arg "Perm.blit: size mismatch";
  Array.blit src.order 0 dst.order 0 n;
  Array.blit src.inv 0 dst.inv 0 n

let exchange p a b =
  let pa = p.inv.(a) and pb = p.inv.(b) in
  p.order.(pa) <- b;
  p.order.(pb) <- a;
  p.inv.(a) <- pb;
  p.inv.(b) <- pa

let to_list p = Array.to_list p.order
let equal a b = a.order = b.order

let pp ppf p =
  Format.fprintf ppf "@[<h>%a@]"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf " ")
       Format.pp_print_int)
    (to_list p)
