module G = Constraints.Symmetry_group
module D = Diagnostic

exception Violation of string * Diagnostic.t list

let () =
  Printexc.register_printer (function
    | Violation (context, ds) ->
        Some
          (Format.asprintf "@[<v>invariant violation in %s:@,%a@]" context
             D.pp_list ds)
    | _ -> None)

let enabled_from_env () =
  match Sys.getenv_opt "ANALOG_VALIDATE" with
  | None | Some "" | Some "0" | Some "false" -> false
  | Some _ -> true

let raise_if_any ~context = function
  | [] -> ()
  | ds -> raise (Violation (context, ds))

(* ---- representation checks ---------------------------------------- *)

let check_perm ~n ~which p =
  if Seqpair.Perm.size p <> n then
    [
      D.error ~code:"AL101" ~subject:which
        (Printf.sprintf "permutation has size %d, circuit has %d cells"
           (Seqpair.Perm.size p) n);
    ]
  else begin
    let bad = ref [] in
    for pos = 0 to n - 1 do
      let c = Seqpair.Perm.cell_at p pos in
      if c < 0 || c >= n then
        bad :=
          D.error ~code:"AL101" ~subject:which
            (Printf.sprintf "cell %d at position %d is out of range" c pos)
          :: !bad
      else if Seqpair.Perm.pos_of p c <> pos then
        bad :=
          D.error ~code:"AL101" ~subject:which
            (Printf.sprintf "pos_of (cell_at %d) = %d; inverse inconsistent"
               pos (Seqpair.Perm.pos_of p c))
          :: !bad
    done;
    List.rev !bad
  end

let check_sp ~n (sp : Seqpair.Sp.t) =
  check_perm ~n ~which:"alpha" sp.Seqpair.Sp.alpha
  @ check_perm ~n ~which:"beta" sp.Seqpair.Sp.beta

let check_sf sp groups =
  List.filter_map
    (fun (g : G.t) ->
      if Seqpair.Symmetry.is_feasible sp g then None
      else
        Some
          (D.error ~code:"AL102"
             ~subject:("group " ^ g.G.name)
             "sequence-pair is not symmetric-feasible (property (1) \
              violated)"
             ~hint:"a move escaped the S-F subspace; repair with \
                    Symmetry.make_feasible"))
    groups

let check_flat flat =
  let module F = Bstar.Flat in
  let n = F.size flat in
  let err fmt =
    Printf.ksprintf (fun msg -> D.error ~code:"AL103" ~subject:"flat b*-tree" msg) fmt
  in
  let in_node m = m >= 0 && m < n in
  let root = F.root flat in
  let root_errs =
    if not (in_node root) then [ err "root %d out of range [0, %d)" root n ]
    else if F.parent_of flat root <> -1 then
      [ err "root %d has parent %d, expected -1" root (F.parent_of flat root) ]
    else []
  in
  let errs = ref [] in
  let add e = errs := e :: !errs in
  for m = 0 to n - 1 do
    (* cell/node labelings are mutually inverse *)
    let c = F.cell_at flat m in
    if c < 0 || c >= n then add (err "node %d holds cell %d out of range" m c)
    else if F.node_of flat c <> m then
      add (err "node_of (cell_at %d) = %d; labeling not inverse" m
             (F.node_of flat c));
    (* downward links point back up *)
    List.iter
      (fun (side, ch) ->
        if ch <> -1 then
          if not (in_node ch) then
            add (err "node %d %s child %d out of range" m side ch)
          else if F.parent_of flat ch <> m then
            add (err "node %d %s child %d has parent %d" m side ch
                   (F.parent_of flat ch)))
      [ ("left", F.left_of flat m); ("right", F.right_of flat m) ];
    (* upward links are some child slot of the parent *)
    if m <> root then begin
      let p = F.parent_of flat m in
      if not (in_node p) then add (err "node %d has parent %d out of range" m p)
      else if F.left_of flat p <> m && F.right_of flat p <> m then
        add (err "node %d claims parent %d, which does not list it" m p)
    end
  done;
  (* budgeted reachability: every node reachable from the root exactly
     once (the link checks above make over-counting impossible unless
     the structure is cyclic, which the budget catches) *)
  let reached = ref 0 and budget = ref (n + 1) in
  let rec go m =
    if m <> -1 && !budget > 0 then begin
      decr budget;
      incr reached;
      if in_node m then begin
        go (F.left_of flat m);
        go (F.right_of flat m)
      end
    end
  in
  if root_errs = [] then go root;
  let reach_errs =
    if root_errs <> [] then []
    else if !budget = 0 then
      [ err "traversal exceeded %d nodes: structure is cyclic" n ]
    else if !reached <> n then
      [ err "%d of %d nodes reachable from the root" !reached n ]
    else []
  in
  (* the leaf set drives O(1) uniform leaf draws; it must be exactly
     the current leaves *)
  let actual_leaves =
    List.filter (fun m -> F.is_leaf flat m) (List.init n Fun.id)
  in
  let listed = List.sort Int.compare (F.leaf_nodes flat) in
  let leaf_errs =
    if F.leaf_count flat <> List.length actual_leaves || listed <> actual_leaves
    then
      [
        err "leaf set lists %d nodes [%s]; tree has %d leaves"
          (F.leaf_count flat)
          (String.concat ";" (List.map string_of_int listed))
          (List.length actual_leaves);
      ]
    else []
  in
  root_errs @ List.rev !errs @ reach_errs @ leaf_errs
