(* splitmix64: fast, well-distributed, trivially seedable. State is a
   single 64-bit counter advanced by the golden gamma. It lives in an
   8-byte buffer rather than a [mutable int64] field: a field would
   hold a boxed Int64, so every draw would allocate a fresh box, while
   the buffer's 64-bit loads and stores stay unboxed. *)
type t = Bytes.t

let golden = 0x9E3779B97F4A7C15L

let of_state s =
  let t = Bytes.create 8 in
  Bytes.set_int64_ne t 0 s;
  t

let create seed = of_state (Int64.of_int seed)

(* inlined into each draw, so the int64s never leave registers *)
let[@inline] next t =
  let z = Int64.add (Bytes.get_int64_ne t 0) golden in
  Bytes.set_int64_ne t 0 z;
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let split t = of_state (next t)

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: non-positive bound";
  (* keep 62 bits so the value fits OCaml's 63-bit native int *)
  let v = Int64.to_int (Int64.shift_right_logical (next t) 2) in
  v mod bound

let int_in t lo hi =
  if hi < lo then invalid_arg "Rng.int_in: hi < lo";
  lo + int t (hi - lo + 1)

let float t bound =
  let v = Int64.to_float (Int64.shift_right_logical (next t) 11) in
  bound *. (v /. 9007199254740992.0 (* 2^53 *))

let bool t = Int64.logand (next t) 1L = 1L

let choose t = function
  | [] -> invalid_arg "Rng.choose: empty list"
  | xs -> List.nth xs (int t (List.length xs))

let choose_weighted t weighted =
  let total = List.fold_left (fun acc (w, _) -> acc +. w) 0.0 weighted in
  if total <= 0.0 then invalid_arg "Rng.choose_weighted: no positive weight";
  let target = float t total in
  let rec pick acc = function
    | [] -> invalid_arg "Rng.choose_weighted: empty list"
    | [ (_, x) ] -> x
    | (w, x) :: rest -> if acc +. w > target then x else pick (acc +. w) rest
  in
  pick 0.0 weighted

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

let permutation t n =
  let arr = Array.init n Fun.id in
  shuffle t arr;
  arr

let gaussian t =
  let u1 = Stdlib.max 1e-12 (float t 1.0) and u2 = float t 1.0 in
  sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2)
