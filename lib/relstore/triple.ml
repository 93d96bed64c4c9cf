module Label = Ssd.Label
module Graph = Ssd.Graph

let edge_attrs = [ "src"; "label"; "dst" ]

let edges g =
  let g = Graph.eps_eliminate g in
  Graph.fold_labeled_edges
    (fun acc u l v -> Relation.add acc [| Label.Int u; l; Label.Int v |])
    (Relation.create edge_attrs)
    g

let root g =
  let g = Graph.eps_eliminate g in
  Relation.add (Relation.create [ "node" ]) [| Label.Int (Graph.root g) |]

let to_graph ~edges ~root =
  if Array.to_list (Relation.attrs edges) <> edge_attrs then
    Ssd_diag.error ~code:"SSD521"
      "Triple.to_graph: edge relation must have attrs (src,label,dst)";
  let root_id =
    match Relation.rows root with
    | [ [| Label.Int n |] ] -> n
    | _ ->
      Ssd_diag.error ~code:"SSD521"
        "Triple.to_graph: root relation must be a single Int node"
  in
  let b = Graph.Builder.create () in
  let node_map = Hashtbl.create 64 in
  let intern l =
    match l with
    | Label.Int n ->
      (match Hashtbl.find_opt node_map n with
       | Some id -> id
       | None ->
         let id = Graph.Builder.add_node b in
         Hashtbl.add node_map n id;
         id)
    | _ -> Ssd_diag.error ~code:"SSD521" "Triple.to_graph: node ids must be Int labels"
  in
  let root_node = intern (Label.Int root_id) in
  Relation.iter
    (fun row ->
      match row with
      | [| src; l; dst |] -> Graph.Builder.add_edge b (intern src) l (intern dst)
      | _ -> assert false)
    edges;
  Graph.Builder.set_root b root_node;
  Graph.gc (Graph.Builder.finish b)

(* One [Int] label per node, shared by every row that names it: one box
   per node in the EDB, not two per edge. *)
let edb g =
  let g = Graph.eps_eliminate g in
  let ids = Array.init (Graph.n_nodes g) (fun u -> Label.Int u) in
  let triples =
    Graph.fold_labeled_edges (fun acc u l v -> [ ids.(u); l; ids.(v) ] :: acc) [] g
  in
  Datalog.edb_of_list [ ("edge", List.rev triples); ("root", [ [ ids.(Graph.root g) ] ]) ]
