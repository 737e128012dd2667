open Geometry
module H = Netlist.Hierarchy
module G = Constraints.Symmetry_group

type node_kind =
  | K_asf of { grp : G.t }
  | K_tree of { items : int list; proximity : bool }
  | K_centroid of { cells : int list }

type node_info = { kind : node_kind }

type tree_state = T_asf of Asf.t | T_tree of Tree.t | T_fixed

type state = {
  circuit : Netlist.Circuit.t;
  infos : node_info array;
  trees : tree_state array;
  root : int;
  halo : int;
      (** empty margin kept around proximity macros (guard-ring room) *)
}

(* Pseudo-item ids: modules are [0, n); node j's packed macro is item
   [n + j]. *)

let build rng circuit hierarchy =
  let n = Netlist.Circuit.size circuit in
  let infos = ref [] and states = ref [] and next_id = ref 0 in
  let register info st =
    let id = !next_id in
    incr next_id;
    infos := (id, info) :: !infos;
    states := (id, st) :: !states;
    id
  in
  let rec build_node node =
    match node with
    | H.Leaf _ -> invalid_arg "Hbstar.build: leaf has no node state"
    | H.Node { name = _; kind; children } -> (
        match kind with
        | H.Symmetry ->
            let absorbed_pairs =
              List.filter_map
                (function
                  | H.Node
                      { kind = H.Symmetry;
                        children = [ H.Leaf a; H.Leaf b ];
                        _ } ->
                      Some (a, b)
                  | H.Node _ | H.Leaf _ -> None)
                children
            in
            let direct_leaves =
              List.filter_map
                (function H.Leaf i -> Some i | H.Node _ -> None)
                children
            in
            let nested_nodes =
              List.filter
                (function
                  | H.Node
                      { kind = H.Symmetry;
                        children = [ H.Leaf _; H.Leaf _ ];
                        _ } ->
                      false
                  | H.Node _ -> true
                  | H.Leaf _ -> false)
                children
            in
            let rec pair_up = function
              | a :: b :: rest ->
                  let ps, ss = pair_up rest in
                  ((a, b) :: ps, ss)
              | [ a ] -> ([], [ a ])
              | [] -> ([], [])
            in
            let leaf_pairs, leaf_selfs = pair_up direct_leaves in
            let nested = List.map build_node nested_nodes in
            let pseudo_selfs = List.map (fun id -> n + id) nested in
            let grp =
              G.make ~name:"hb-sym"
                ~pairs:(absorbed_pairs @ leaf_pairs)
                ~selfs:(leaf_selfs @ pseudo_selfs) ()
            in
            register
              { kind = K_asf { grp } }
              (T_asf (Asf.make rng grp))
        | H.Common_centroid ->
            let all_leaves =
              List.for_all
                (function H.Leaf _ -> true | H.Node _ -> false)
                children
            in
            let cells = List.concat_map H.leaves children in
            let matched =
              match cells with
              | [] -> false
              | c :: rest ->
                  let d = Netlist.Circuit.dims circuit c in
                  List.for_all
                    (fun c' -> Netlist.Circuit.dims circuit c' = d)
                    rest
            in
            if all_leaves && matched then
              register { kind = K_centroid { cells } } T_fixed
            else begin
              (* documented fallback: unmatched or hierarchical
                 common-centroid degrades to a free B*-tree *)
              let nested =
                List.filter_map
                  (function H.Leaf _ -> None | H.Node _ as c -> Some (build_node c))
                  children
              in
              let items =
                List.filter_map
                  (function H.Leaf i -> Some i | H.Node _ -> None)
                  children
                @ List.map (fun id -> n + id) nested
              in
              register
                { kind = K_tree { items; proximity = false } }
                (T_tree (Tree.random rng items))
            end
        | H.Free | H.Proximity ->
            let nested =
              List.filter_map
                (function H.Leaf _ -> None | H.Node _ as c -> Some (build_node c))
                children
            in
            let items =
              List.filter_map
                (function H.Leaf i -> Some i | H.Node _ -> None)
                children
              @ List.map (fun id -> n + id) nested
            in
            register
              { kind = K_tree { items; proximity = (kind = H.Proximity) } }
              (T_tree (Tree.random rng items)))
  in
  let root =
    match hierarchy with
    | H.Leaf i ->
        register
          { kind = K_tree { items = [ i ]; proximity = false } }
          (T_tree (Tree.leaf i))
    | H.Node _ -> build_node hierarchy
  in
  let count = !next_id in
  let info_arr =
    Array.init count (fun i -> List.assoc i !infos)
  in
  let state_arr =
    Array.init count (fun i -> List.assoc i !states)
  in
  (info_arr, state_arr, root)

let initial ?(halo = 0) rng circuit hierarchy =
  (match
     H.validate hierarchy ~n_modules:(Netlist.Circuit.size circuit)
   with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Hbstar.initial: " ^ msg));
  let infos, trees, root = build rng circuit hierarchy in
  { circuit; infos; trees; root; halo }

let perturb rng st =
  let perturbable =
    Array.to_list
      (Array.mapi
         (fun i t ->
           match t with T_asf _ | T_tree _ -> Some i | T_fixed -> None)
         st.trees)
    |> List.filter_map Fun.id
  in
  match perturbable with
  | [] -> st
  | _ ->
      let i = Prelude.Rng.choose rng perturbable in
      let trees = Array.copy st.trees in
      trees.(i) <-
        (match trees.(i) with
        | T_asf a -> T_asf (Asf.perturb rng a)
        | T_tree t -> T_tree (Perturb.random rng t)
        | T_fixed -> T_fixed);
      { st with trees }

(* ------------------------------------------------------------------ *)
(* Packing                                                             *)

(* A packed sub-circuit enters its parent's tree as a macro carrying
   its top profile; [Tree.pack_with_profiles] lets the parent's later
   items settle into that profile's valleys. *)
type macro = {
  placed : Transform.placed list;  (* module placements, macro coords *)
  width : int;
  height : int;
  top : Contour.segment list;
}

let macro_of_placed placed =
  match placed with
  | [] -> { placed; width = 0; height = 0; top = [] }
  | _ ->
      let rects = List.map (fun p -> p.Transform.rect) placed in
      let bbox = Rect.bbox_of_list rects in
      {
        placed;
        width = Rect.x_max bbox;
        height = Rect.y_max bbox;
        top = Outline.top_profile rects;
      }

let pack st =
  let n = Netlist.Circuit.size st.circuit in
  let memo : macro option array = Array.make (Array.length st.infos) None in
  let rec macro_of id =
    match memo.(id) with
    | Some m -> m
    | None ->
        let m = compute id in
        memo.(id) <- Some m;
        m
  and item_dims item =
    if item < n then Netlist.Circuit.dims st.circuit item
    else
      let m = macro_of (item - n) in
      (m.width, m.height)
  and item_lookup item =
    if item < n then
      let w, h = Netlist.Circuit.dims st.circuit item in
      (w, h, None)
    else
      let m = macro_of (item - n) in
      (m.width, m.height, Some m.top)
  and splice item (rect : Rect.t) =
    if item < n then
      [ { Transform.cell = item; rect; orient = Orientation.R0 } ]
    else
      let m = macro_of (item - n) in
      List.map (fun p -> Transform.translate p ~dx:rect.x ~dy:rect.y) m.placed
  and compute id =
    match (st.infos.(id).kind, st.trees.(id)) with
    | K_centroid { cells }, _ -> (
        match Centroid.place ~cells (Netlist.Circuit.dims st.circuit) with
        | Ok placed -> macro_of_placed placed
        | Error msg -> invalid_arg ("Hbstar.pack: " ^ msg))
    | K_asf _, T_asf asf ->
        let island = Asf.pack asf item_dims in
        let placed =
          List.concat_map
            (fun (p : Transform.placed) ->
              if p.cell < n then [ p ]
              else
                let m = macro_of (p.cell - n) in
                List.map
                  (fun q ->
                    Transform.translate q ~dx:p.rect.Rect.x ~dy:p.rect.Rect.y)
                  m.placed)
            island.Asf.placed
        in
        macro_of_placed placed
    | K_tree { proximity; _ }, T_tree tree ->
        let items = Tree.pack_with_profiles tree item_lookup in
        let placed =
          List.concat_map (fun (item, rect) -> splice item rect) items
        in
        let m = macro_of_placed placed in
        if proximity && st.halo > 0 then
          (* opaque halo: room for the guard ring, no interleaving *)
          let h = st.halo in
          let placed =
            List.map (fun p -> Transform.translate p ~dx:h ~dy:h) m.placed
          in
          let width = m.width + (2 * h) and height = m.height + (2 * h) in
          {
            placed;
            width;
            height;
            top = [ { Contour.x0 = 0; x1 = width; y = height } ];
          }
        else m
    | K_asf _, (T_tree _ | T_fixed) | K_tree _, (T_asf _ | T_fixed) ->
        invalid_arg "Hbstar.pack: state/kind mismatch"
  in
  (macro_of st.root).placed
