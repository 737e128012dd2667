(* Net ordering for the negotiation loop.

   Initial order routes mirrored twins first (their paired claims are
   the hardest to place late) and otherwise shortest bounding box
   first, so cheap nets take direct tracks and long nets negotiate
   around them. Between iterations, nets whose current routes sit on
   over-used cells move to the front: the most contested nets reroute
   while the congestion picture is freshest. Both sorts are stable on
   the incoming net order, keeping the whole loop deterministic. *)

let bbox_semi pins =
  match pins with
  | [] -> 0
  | (c0, r0) :: rest ->
      let minc, maxc, minr, maxr =
        List.fold_left
          (fun (a, b, c, d) (pc, pr) ->
            (Int.min a pc, Int.max b pc, Int.min c pr, Int.max d pr))
          (c0, c0, r0, r0) rest
      in
      maxc - minc + maxr - minr

let initial ~is_twin ~pins_of nets =
  List.stable_sort
    (fun a b ->
      let twin n = if is_twin n then 0 else 1 in
      let c = Int.compare (twin a) (twin b) in
      if c <> 0 then c
      else Int.compare (bbox_semi (pins_of a)) (bbox_semi (pins_of b)))
    nets

let by_congestion ~overuse_of nets =
  List.stable_sort
    (fun a b ->
      (* descending overuse: most contested nets reroute first *)
      Int.compare (overuse_of b) (overuse_of a))
    nets
