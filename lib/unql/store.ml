module Graph = Ssd.Graph
module Label = Ssd.Label

(* Ids [0, n_base) are the base graph's nodes, read in place; id [u >=
   n_base] is the arena row [arena.(u - n_base)]. *)
type t = {
  base : Graph.t;
  n_base : int;
  mutable arena : (Graph.edge_label * int) list array; (* reversed adjacency *)
  mutable n : int; (* ids handed out, base included *)
  mutable imported : (Graph.t * int) list; (* physical identity -> offset *)
}

let create ?base () =
  let base, n_base, imported =
    match base with
    | None -> (Graph.empty, 0, [])
    | Some g -> (g, Graph.n_nodes g, [ (g, 0) ])
  in
  { base; n_base; arena = Array.make 64 []; n = n_base; imported }

let ensure_capacity st needed =
  let needed = needed - st.n_base in
  if needed > Array.length st.arena then begin
    let cap = ref (Array.length st.arena) in
    while !cap < needed do
      cap := !cap * 2
    done;
    let fresh = Array.make !cap [] in
    Array.blit st.arena 0 fresh 0 (st.n - st.n_base);
    st.arena <- fresh
  end

let add_node st =
  ensure_capacity st (st.n + 1);
  let id = st.n in
  st.n <- st.n + 1;
  id

let add_raw_edge st u l v =
  if u < st.n_base then invalid_arg (Printf.sprintf "Store: base node %d is read-only" u);
  assert (u < st.n && v >= 0 && v < st.n);
  let i = u - st.n_base in
  st.arena.(i) <- (l, v) :: st.arena.(i)

let add_edge st u l v = add_raw_edge st u (Graph.Lab l) v
let add_eps st u v = add_raw_edge st u Graph.Eps v

let n_nodes st = st.n

let import st g =
  match List.find_opt (fun (g', _) -> g' == g) st.imported with
  | Some (_, offset) -> Graph.root g + offset
  | None ->
    let offset = st.n in
    ensure_capacity st (st.n + Graph.n_nodes g);
    st.n <- st.n + Graph.n_nodes g;
    Graph.fold_edges
      (fun () u l v -> add_raw_edge st (u + offset) l (v + offset))
      () g;
    st.imported <- (g, offset) :: st.imported;
    Graph.root g + offset

let succ st u =
  if u < st.n_base then Graph.succ st.base u else List.rev st.arena.(u - st.n_base)

(* A node's edges newest first, the order an arena row keeps them in. *)
let rev_row st u =
  if u < st.n_base then Graph.fold_succ (fun acc l v -> (l, v) :: acc) [] st.base u
  else st.arena.(u - st.n_base)

let has_eps st u =
  if u < st.n_base then Graph.has_eps st.base u
  else List.exists (function Graph.Eps, _ -> true | Graph.Lab _, _ -> false) st.arena.(u - st.n_base)

let labeled_succ st u =
  if not (has_eps st u) then
    (* An ε-free row is its own closure: skip the visited table. *)
    if u < st.n_base then
      Graph.fold_succ
        (fun acc l v -> match l with Graph.Lab l -> (l, v) :: acc | Graph.Eps -> acc)
        [] st.base u
    else
      List.filter_map
        (fun (l, v) -> match l with Graph.Lab l -> Some (l, v) | Graph.Eps -> None)
        st.arena.(u - st.n_base)
  else begin
    let seen = Hashtbl.create 8 in
    let acc = ref [] in
    let rec close u =
      if not (Hashtbl.mem seen u) then begin
        Hashtbl.add seen u ();
        List.iter
          (fun (l, v) ->
            match l with
            | Graph.Eps -> close v
            | Graph.Lab l -> acc := (l, v) :: !acc)
          (rev_row st u)
      end
    in
    close u;
    List.rev !acc
  end

let to_graph st ~root =
  let b = Graph.Builder.create () in
  let map = Hashtbl.create 64 in
  let rec copy u =
    match Hashtbl.find_opt map u with
    | Some id -> id
    | None ->
      let id = Graph.Builder.add_node b in
      Hashtbl.add map u id;
      List.iter
        (fun (l, v) ->
          let vid = copy v in
          match l with
          | Graph.Eps -> Graph.Builder.add_eps b id vid
          | Graph.Lab l -> Graph.Builder.add_edge b id l vid)
        (succ st u);
      id
  in
  let r = copy root in
  Graph.Builder.set_root b r;
  Graph.Builder.finish b
