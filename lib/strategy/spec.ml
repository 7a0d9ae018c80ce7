open Infgraph

type dfs = { graph : Graph.t; orders : int list array }

type t =
  | Dfs of dfs
  | Paths of { graph : Graph.t; order : int list list }

let graph = function Dfs d -> d.graph | Paths p -> p.graph

let default g =
  { graph = g; orders = Array.init (Graph.n_nodes g) (Graph.children g) }

let is_perm a b = List.sort compare a = List.sort compare b

let make_dfs g orders =
  if Array.length orders <> Graph.n_nodes g then
    invalid_arg "Spec.make_dfs: orders size mismatch";
  Array.iteri
    (fun n order ->
      if not (is_perm order (Graph.children g n)) then
        invalid_arg
          (Printf.sprintf
             "Spec.make_dfs: order at node %d is not a permutation of its \
              children"
             n))
    orders;
  { graph = g; orders = Array.copy orders }

let with_order d ~node ~order =
  if not (is_perm order (Graph.children d.graph node)) then
    invalid_arg "Spec.with_order: not a permutation of the node's children";
  let orders = Array.copy d.orders in
  orders.(node) <- order;
  { d with orders }

let dfs_paths d =
  let acc = ref [] in
  let rec go prefix node =
    List.iter
      (fun arc_id ->
        let a = Graph.arc d.graph arc_id in
        let prefix' = arc_id :: prefix in
        match a.Graph.kind with
        | Graph.Retrieval -> acc := List.rev prefix' :: !acc
        | Graph.Reduction -> go prefix' a.Graph.dst)
      d.orders.(node)
  in
  go [] (Graph.root d.graph);
  List.rev !acc

let compile d = Paths { graph = d.graph; order = dfs_paths d }

let canonical_paths g =
  List.sort compare (Graph.leaf_paths g)

let of_paths g order =
  if not (is_perm (List.sort compare order) (canonical_paths g)) then
    invalid_arg
      "Spec.of_paths: not a permutation of the graph's root-to-retrieval paths";
  Paths { graph = g; order }

let to_paths = function
  | Dfs d -> dfs_paths d
  | Paths p -> p.order

let arc_sequence t =
  let seen = Hashtbl.create 16 in
  List.concat_map
    (fun path ->
      List.filter
        (fun arc_id ->
          if Hashtbl.mem seen arc_id then false
          else begin
            Hashtbl.add seen arc_id ();
            true
          end)
        path)
    (to_paths t)

let retrieval_order t =
  List.filter_map
    (fun path -> match List.rev path with last :: _ -> Some last | [] -> None)
    (to_paths t)

let equal_dfs a b = a.graph == b.graph && a.orders = b.orders

let equal a b =
  match (a, b) with
  | Dfs x, Dfs y -> equal_dfs x y
  | _ -> graph a == graph b && to_paths a = to_paths b

let deviation_node a b =
  if a.graph != b.graph then
    invalid_arg "Spec.deviation_node: different graphs";
  (* DFS discovery order of [a]. *)
  let rec go node =
    if a.orders.(node) <> b.orders.(node) then Some node
    else
      List.fold_left
        (fun found arc_id ->
          match found with
          | Some _ -> found
          | None ->
            let arc = Graph.arc a.graph arc_id in
            if arc.Graph.kind = Graph.Reduction then go arc.Graph.dst
            else None)
        None a.orders.(node)
  in
  go (Graph.root a.graph)

let pp ppf t =
  let g = graph t in
  Format.fprintf ppf "⟨%s⟩"
    (String.concat " "
       (List.map (fun id -> (Graph.arc g id).Graph.label) (arc_sequence t)))

let pp_dfs ppf d = pp ppf (Dfs d)
