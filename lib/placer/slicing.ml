type token = Operand of int | H | V

let is_operator = function H | V -> true | Operand _ -> false

let is_normalized tokens =
  let rec go operands operators prev = function
    | [] -> operands = operators + 1 && operands > 0
    | t :: rest -> (
        match t with
        | Operand _ -> go (operands + 1) operators (Some t) rest
        | H | V ->
            let operators = operators + 1 in
            (* balloting: strictly more operands than operators in
               every prefix; normalization: no equal adjacent ops *)
            operands > operators
            && prev <> Some t
            && go operands operators (Some t) rest)
  in
  go 0 0 None tokens

(* Stockmeyer evaluation with regular shape functions. *)
let eval_shape_fn ~cap circuit tokens =
  let module_fn c =
    let w, h = Netlist.Circuit.dims circuit c in
    let shapes =
      if w = h then [ Shapefn.Shape.of_module ~cell:c ~w ~h ~rotated:false ]
      else
        [
          Shapefn.Shape.of_module ~cell:c ~w ~h ~rotated:false;
          Shapefn.Shape.of_module ~cell:c ~w ~h ~rotated:true;
        ]
    in
    Shapefn.Shape_fn.of_shapes shapes
  in
  let combine op f1 f2 =
    let add =
      match op with
      | H -> Shapefn.Esf.rsf_vadd (* horizontal cut stacks *)
      | V -> Shapefn.Esf.rsf_hadd
      | Operand _ -> invalid_arg "Slicing.eval: operand as operator"
    in
    let sums =
      List.concat_map
        (fun s1 ->
          List.map (fun s2 -> add s1 s2) (Shapefn.Shape_fn.shapes f2))
        (Shapefn.Shape_fn.shapes f1)
    in
    Shapefn.Shape_fn.of_shapes ~cap sums
  in
  let rec go stack = function
    | [] -> (
        match stack with
        | [ only ] -> only
        | _ -> invalid_arg "Slicing.eval: malformed expression")
    | Operand c :: rest -> go (module_fn c :: stack) rest
    | (H | V) as op :: rest -> (
        match stack with
        | f2 :: f1 :: more -> go (combine op f1 f2 :: more) rest
        | _ -> invalid_arg "Slicing.eval: malformed expression")
  in
  go [] tokens

let realize ~cap circuit tokens =
  Shapefn.Shape.realize
    (Shapefn.Shape_fn.min_area (eval_shape_fn ~cap circuit tokens))

(* ---- Wong–Liu move set ------------------------------------------- *)

let operand_positions tokens =
  let arr = Array.of_list tokens in
  Array.to_list
    (Array.mapi (fun i t -> if is_operator t then None else Some i) arr)
  |> List.filter_map Fun.id

(* M1: swap two adjacent operands (adjacent within the operand
   subsequence; always stays normalized). *)
let m1 rng tokens =
  let ops = operand_positions tokens in
  match ops with
  | [] | [ _ ] -> tokens
  | _ ->
      let arr = Array.of_list tokens in
      let pairs =
        let rec go = function
          | a :: (b :: _ as rest) -> (a, b) :: go rest
          | [ _ ] | [] -> []
        in
        go ops
      in
      let i, j = Prelude.Rng.choose rng pairs in
      let tmp = arr.(i) in
      arr.(i) <- arr.(j);
      arr.(j) <- tmp;
      Array.to_list arr

(* M2: complement a maximal operator chain. *)
let m2 rng tokens =
  let arr = Array.of_list tokens in
  let n = Array.length arr in
  let chain_starts =
    List.init n Fun.id
    |> List.filter (fun i ->
           is_operator arr.(i) && (i = 0 || not (is_operator arr.(i - 1))))
  in
  match chain_starts with
  | [] -> tokens
  | _ ->
      let start = Prelude.Rng.choose rng chain_starts in
      let rec flip i =
        if i < n && is_operator arr.(i) then begin
          arr.(i) <- (match arr.(i) with H -> V | V -> H | Operand _ -> arr.(i));
          flip (i + 1)
        end
      in
      flip start;
      Array.to_list arr

(* M3: swap an adjacent operand/operator pair if the result is still a
   normalized expression. *)
let m3 rng tokens =
  let arr = Array.of_list tokens in
  let n = Array.length arr in
  let candidates =
    List.init (n - 1) Fun.id
    |> List.filter (fun i -> is_operator arr.(i) <> is_operator arr.(i + 1))
  in
  let attempt () =
    let i = Prelude.Rng.choose rng candidates in
    let arr' = Array.copy arr in
    let tmp = arr'.(i) in
    arr'.(i) <- arr'.(i + 1);
    arr'.(i + 1) <- tmp;
    let result = Array.to_list arr' in
    if is_normalized result then Some result else None
  in
  if candidates = [] then tokens
  else
    let rec retry k =
      if k = 0 then tokens
      else match attempt () with Some r -> r | None -> retry (k - 1)
    in
    retry 8

let neighbor rng tokens =
  match Prelude.Rng.int rng 3 with
  | 0 -> m1 rng tokens
  | 1 -> m2 rng tokens
  | _ -> m3 rng tokens

type outcome = Placement.outcome = {
  placement : Placement.t;
  cost : float;
  sa_rounds : int;
  evaluated : int;
  workers : int;
  chains : int;
}

let initial n =
  (* c0 c1 V c2 H c3 V ... alternating cut directions *)
  let rec go i acc =
    if i >= n then List.rev acc
    else
      let op = if i mod 2 = 0 then H else V in
      go (i + 1) (op :: Operand i :: acc)
  in
  match n with
  | 0 -> invalid_arg "Slicing.place: empty circuit"
  | 1 -> [ Operand 0 ]
  | _ -> Operand 0 :: go 1 []

let place ?(weights = Cost.default) ?params ~rng circuit =
  let n = Netlist.Circuit.size circuit in
  let cap = 16 in
  let params =
    match params with Some p -> p | None -> Anneal.Sa.default_params ~n
  in
  let init = initial n in
  assert (is_normalized init);
  let r =
    Anneal.Parallel.multi_start ~engine:"slicing" ~rng params (fun _ _ ->
        let arena = Eval.create circuit in
        let cost tokens =
          Eval.cost_placed arena weights (realize ~cap circuit tokens)
        in
        Anneal.Sa.persistent ~init ~neighbor ~cost)
  in
  Placement.outcome_of
    (Placement.make circuit (realize ~cap circuit !(r.Anneal.Parallel.state)))
    r
