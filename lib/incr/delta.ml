module Graph = Ssd.Graph
module Label = Ssd.Label

type edge = {
  src : int;
  lab : Graph.edge_label;
  dst : int;
}

type t = {
  added : edge list;
  removed : edge list;
  old_nodes : int;
  new_nodes : int;
  root_moved : bool;
  new_has_eps : bool;
}

let lab_compare a b =
  match (a, b) with
  | Graph.Eps, Graph.Eps -> 0
  | Graph.Eps, Graph.Lab _ -> -1
  | Graph.Lab _, Graph.Eps -> 1
  | Graph.Lab x, Graph.Lab y -> Label.compare x y

(* Out-edges of one source node, ordered by (dst, label). *)
let out_compare (l1, v1) (l2, v2) =
  let c = Int.compare v1 v2 in
  if c <> 0 then c else lab_compare l1 l2

let diff old_g new_g =
  (* The multiset difference, one source node at a time: an edge's
     source is part of its identity, so node [u]'s delta depends only
     on [u]'s out-edges in the two graphs.  Updates graft onto the
     existing builder and keep each node's edges in insertion order, so
     rows usually share a prefix (often all of it); only the rest is
     sorted and merged. *)
  let added = ref [] and removed = ref [] and new_has_eps = ref false in
  let add src (lab, dst) = added := { src; lab; dst } :: !added in
  let remove src (lab, dst) = removed := { src; lab; dst } :: !removed in
  let rec strip xs ys =
    match (xs, ys) with
    | x :: xs', y :: ys' when out_compare x y = 0 -> strip xs' ys'
    | _ -> (xs, ys)
  in
  let rec merge u xs ys =
    match (xs, ys) with
    | [], _ -> List.iter (add u) ys
    | _, [] -> List.iter (remove u) xs
    | x :: xs', y :: ys' ->
      let c = out_compare x y in
      if c = 0 then merge u xs' ys'
      else if c < 0 then (remove u x; merge u xs' ys)
      else (add u y; merge u xs ys')
  in
  let n_old = Graph.n_nodes old_g and n_new = Graph.n_nodes new_g in
  for u = 0 to max n_old n_new - 1 do
    let olds = if u < n_old then Graph.succ old_g u else [] in
    let news = if u < n_new then Graph.succ new_g u else [] in
    if List.exists (function Graph.Eps, _ -> true | Graph.Lab _, _ -> false) news then
      new_has_eps := true;
    match strip olds news with
    | [], [] -> ()
    | olds, news ->
      merge u (List.sort out_compare olds) (List.sort out_compare news)
  done;
  {
    added = List.rev !added;
    removed = List.rev !removed;
    old_nodes = n_old;
    new_nodes = n_new;
    root_moved = Graph.root old_g <> Graph.root new_g;
    new_has_eps = !new_has_eps;
  }

let is_empty d = d.added = [] && d.removed = []

let monotone d =
  d.removed = [] && (not d.root_moved) && d.new_nodes >= d.old_nodes

let touched_labels d =
  let exception Top in
  let collect acc es =
    List.fold_left
      (fun acc e ->
        match e.lab with Graph.Eps -> raise Top | Graph.Lab l -> l :: acc)
      acc es
  in
  match collect (collect [] d.added) d.removed with
  | labs -> Some (List.sort_uniq Label.compare labs)
  | exception Top -> None

let n_added d = List.length d.added
let n_removed d = List.length d.removed
