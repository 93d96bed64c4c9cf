(* A tree or relation outside the image of the coding. *)
let ill_formed fmt = Ssd_diag.error ~code:"SSD522" fmt

(* ------------------------------------------------------------------ *)
(* Relational databases                                                *)
(* ------------------------------------------------------------------ *)

type relation = {
  rel_name : string;
  attrs : string list;
  rows : Label.t list list;
}

type database = relation list

let tuple_sym = Label.Sym "tuple"

let tree_of_row attrs row =
  if List.length attrs <> List.length row then
    ill_formed "row arity does not match attribute list";
  Tree.of_edges (List.map2 (fun a v -> (Label.Sym a, Tree.leaf v)) attrs row)

let tree_of_relation r =
  Tree.of_edges (List.map (fun row -> (tuple_sym, tree_of_row r.attrs row)) r.rows)

let tree_of_database db =
  Tree.of_edges
    (List.map (fun r -> (Label.Sym r.rel_name, tree_of_relation r)) db)

let leaf_value where t =
  match Tree.edges t with
  | [ (v, sub) ] when Tree.is_empty sub -> v
  | _ -> ill_formed "%s: expected a single leaf value" where

let row_of_tree ~name attrs t =
  List.map
    (fun a ->
      match Tree.subtrees_with_label t (Label.Sym a) with
      | [ sub ] -> leaf_value (name ^ "." ^ a) sub
      | [] -> ill_formed "%s: missing attribute %s" name a
      | _ :: _ :: _ ->
        ill_formed "%s: duplicate attribute %s" name a)
    attrs

let attrs_of_tuple t =
  Tree.edges t
  |> List.map (fun (l, _) ->
         match l with
         | Label.Sym a -> a
         | l -> ill_formed "non-symbol attribute %s" (Label.to_string l))
  |> List.sort_uniq String.compare

let relation_of_tree ~name t =
  let tuples =
    Tree.edges t
    |> List.map (fun (l, sub) ->
           if Label.equal l tuple_sym then sub
           else ill_formed "%s: expected only tuple edges" name)
  in
  let attrs =
    match tuples with
    | [] -> []
    | first :: rest ->
      let a0 = attrs_of_tuple first in
      List.iter
        (fun t ->
          if attrs_of_tuple t <> a0 then
            ill_formed "%s: tuples disagree on attributes" name)
        rest;
      a0
  in
  { rel_name = name; attrs; rows = List.map (row_of_tree ~name attrs) tuples }

let database_of_tree t =
  Tree.edges t
  |> List.map (fun (l, sub) ->
         match l with
         | Label.Sym name -> relation_of_tree ~name sub
         | l -> ill_formed "non-symbol relation name %s" (Label.to_string l))

(* ------------------------------------------------------------------ *)
(* Object-oriented databases                                           *)
(* ------------------------------------------------------------------ *)

type field =
  | Base of Label.t
  | Ref of int
  | Fset of field list

type obj = {
  oid : int;
  cls : string;
  fields : (string * field) list;
}

let graph_of_objects ~roots objs =
  let b = Graph.Builder.create () in
  let root = Graph.Builder.add_node b in
  Graph.Builder.set_root b root;
  let by_oid = Hashtbl.create 16 in
  List.iter
    (fun o ->
      if Hashtbl.mem by_oid o.oid then
        ill_formed "duplicate oid %d" o.oid;
      Hashtbl.add by_oid o.oid o)
    objs;
  (* Allocate one graph node per object up front so Ref edges can share. *)
  let node_of_oid = Hashtbl.create 16 in
  List.iter (fun o -> Hashtbl.add node_of_oid o.oid (Graph.Builder.add_node b)) objs;
  let target_of_oid where oid =
    match Hashtbl.find_opt node_of_oid oid with
    | Some n -> n
    | None -> ill_formed "%s: dangling reference to oid %d" where oid
  in
  let rec field_target where = function
    | Base v ->
      let n = Graph.Builder.add_node b in
      let lf = Graph.Builder.add_node b in
      Graph.Builder.add_edge b n v lf;
      n
    | Ref oid -> target_of_oid where oid
    | Fset fields ->
      let n = Graph.Builder.add_node b in
      List.iter
        (fun f -> Graph.Builder.add_edge b n (Label.Sym "member") (field_target where f))
        fields;
      n
  in
  List.iter
    (fun o ->
      let n = Hashtbl.find node_of_oid o.oid in
      List.iter
        (fun (fname, f) ->
          let where = Printf.sprintf "%s(oid %d).%s" o.cls o.oid fname in
          Graph.Builder.add_edge b n (Label.Sym fname) (field_target where f))
        o.fields)
    objs;
  List.iter
    (fun oid ->
      let o =
        match Hashtbl.find_opt by_oid oid with
        | Some o -> o
        | None -> ill_formed "unknown root oid %d" oid
      in
      Graph.Builder.add_edge b root (Label.Sym o.cls) (target_of_oid "root" oid))
    roots;
  Graph.gc (Graph.Builder.finish b)
