type t = { alpha : Perm.t; beta : Perm.t }
type relation = Left_of | Right_of | Below | Above

let make ~alpha ~beta =
  if Perm.size alpha <> Perm.size beta then
    invalid_arg "Sp.make: size mismatch";
  { alpha; beta }

let size sp = Perm.size sp.alpha
let identity n = make ~alpha:(Perm.identity n) ~beta:(Perm.identity n)
let random rng n = make ~alpha:(Perm.random rng n) ~beta:(Perm.random rng n)

let relation sp a b =
  if a = b then invalid_arg "Sp.relation: equal cells";
  let a_first_alpha = Perm.pos_of sp.alpha a < Perm.pos_of sp.alpha b in
  let a_first_beta = Perm.pos_of sp.beta a < Perm.pos_of sp.beta b in
  match (a_first_alpha, a_first_beta) with
  | true, true -> Left_of
  | false, false -> Right_of
  | false, true -> Below
  | true, false -> Above

let left_of sp a b = relation sp a b = Left_of
let below sp a b = relation sp a b = Below

let of_strings ~alpha ~beta =
  let chars s = List.init (String.length s) (String.get s) in
  let ca = chars alpha and cb = chars beta in
  let sorted = List.sort_uniq Char.compare ca in
  if List.length sorted <> List.length ca then
    invalid_arg "Sp.of_strings: repeated character in alpha";
  if List.sort Char.compare cb <> sorted then
    invalid_arg "Sp.of_strings: beta is not a permutation of alpha";
  let mapping = List.mapi (fun i c -> (c, i)) sorted in
  let idx c = List.assoc c mapping in
  let perm_of cs = Perm.of_array (Array.of_list (List.map idx cs)) in
  (make ~alpha:(perm_of ca) ~beta:(perm_of cb), mapping)

let copy sp = { alpha = Perm.copy sp.alpha; beta = Perm.copy sp.beta }

let blit ~src ~dst =
  Perm.blit ~src:src.alpha ~dst:dst.alpha;
  Perm.blit ~src:src.beta ~dst:dst.beta

let equal a b = Perm.equal a.alpha b.alpha && Perm.equal a.beta b.beta

let pp ppf sp =
  Format.fprintf ppf "@[(%a | %a)@]" Perm.pp sp.alpha Perm.pp sp.beta
