type edge_label =
  | Eps
  | Lab of Label.t

type t = {
  root : int;
  out : (edge_label * int) array array;
}

module Builder = struct
  type t = {
    mutable n : int;
    mutable edges : (int * edge_label * int) list;
    mutable n_edges : int;
    mutable root : int;
  }

  let create () = { n = 0; edges = []; n_edges = 0; root = 0 }

  let add_node b =
    let id = b.n in
    b.n <- b.n + 1;
    id

  let add_raw_edge b u l v =
    assert (u >= 0 && u < b.n && v >= 0 && v < b.n);
    b.edges <- (u, l, v) :: b.edges;
    b.n_edges <- b.n_edges + 1

  let add_edge b u l v = add_raw_edge b u (Lab l) v
  let add_eps b u v = add_raw_edge b u Eps v

  let set_root b r =
    assert (r >= 0 && r < b.n);
    b.root <- r

  let n_nodes b = b.n

  let finish b =
    if b.n = 0 then invalid_arg "Graph.Builder.finish: empty builder";
    let counts = Array.make b.n 0 in
    List.iter (fun (u, _, _) -> counts.(u) <- counts.(u) + 1) b.edges;
    let out = Array.init b.n (fun u -> Array.make counts.(u) (Eps, 0)) in
    let fill = Array.make b.n 0 in
    (* b.edges is reversed insertion order; filling from it and then
       reversing per-node keeps insertion order, which printing relies on
       for stability. *)
    List.iter
      (fun (u, l, v) ->
        out.(u).(fill.(u)) <- (l, v);
        fill.(u) <- fill.(u) + 1)
      b.edges;
    Array.iter
      (fun row ->
        let n = Array.length row in
        let half = n / 2 in
        for i = 0 to half - 1 do
          let tmp = row.(i) in
          row.(i) <- row.(n - 1 - i);
          row.(n - 1 - i) <- tmp
        done)
      out;
    { root = b.root; out }
end

let root g = g.root
let n_nodes g = Array.length g.out
let n_edges g = Array.fold_left (fun acc row -> acc + Array.length row) 0 g.out
let succ g u = Array.to_list g.out.(u)

let empty =
  let b = Builder.create () in
  let r = Builder.add_node b in
  Builder.set_root b r;
  Builder.finish b

(* Copy [g]'s nodes into builder [b], returning the id offset. *)
let import b g =
  let offset = Builder.n_nodes b in
  for _ = 1 to n_nodes g do
    ignore (Builder.add_node b)
  done;
  Array.iteri
    (fun u row ->
      Array.iter (fun (l, v) -> Builder.add_raw_edge b (u + offset) l (v + offset)) row)
    g.out;
  offset

let import_into b g = root g + import b g

let edge l g =
  let b = Builder.create () in
  let r = Builder.add_node b in
  Builder.set_root b r;
  let off = import b g in
  Builder.add_edge b r l (root g + off);
  Builder.finish b

let leaf l = edge l empty

let union a b0 =
  let b = Builder.create () in
  let r = Builder.add_node b in
  Builder.set_root b r;
  let offa = import b a in
  let offb = import b b0 in
  Builder.add_eps b r (root a + offa);
  Builder.add_eps b r (root b0 + offb);
  Builder.finish b

let unions = function
  | [] -> empty
  | [ g ] -> g
  | gs ->
    let b = Builder.create () in
    let r = Builder.add_node b in
    Builder.set_root b r;
    List.iter
      (fun g ->
        let off = import b g in
        Builder.add_eps b r (root g + off))
      gs;
    Builder.finish b

let of_tree t =
  let b = Builder.create () in
  let rec go t =
    let u = Builder.add_node b in
    List.iter
      (fun (l, sub) ->
        let v = go sub in
        Builder.add_edge b u l v)
      (Tree.edges t);
    u
  in
  let r = go t in
  Builder.set_root b r;
  Builder.finish b

let eps_closure g u =
  let seen = Hashtbl.create 8 in
  let rec go u acc =
    if Hashtbl.mem seen u then acc
    else begin
      Hashtbl.add seen u ();
      Array.fold_left
        (fun acc (l, v) -> match l with Eps -> go v acc | Lab _ -> acc)
        (u :: acc) g.out.(u)
    end
  in
  go u []

let has_eps g u = Array.exists (function Eps, _ -> true | Lab _, _ -> false) g.out.(u)

let fold_succ f init g u = Array.fold_left (fun acc (l, v) -> f acc l v) init g.out.(u)

let labeled_succ g u =
  if not (has_eps g u) then
    (* An ε-free row is its own closure: skip the visited table. *)
    Array.fold_right
      (fun (l, v) acc -> match l with Lab l -> (l, v) :: acc | Eps -> acc)
      g.out.(u) []
  else
    List.concat_map
      (fun w ->
        Array.to_list g.out.(w)
        |> List.filter_map (fun (l, v) -> match l with Lab l -> Some (l, v) | Eps -> None))
      (eps_closure g u)

let fold_edges f init g =
  let acc = ref init in
  Array.iteri
    (fun u row -> Array.iter (fun (l, v) -> acc := f !acc u l v) row)
    g.out;
  !acc

let fold_labeled_edges f init g =
  fold_edges (fun acc u l v -> match l with Lab l -> f acc u l v | Eps -> acc) init g

let reachable g =
  let seen = Array.make (n_nodes g) false in
  let rec go u =
    if not seen.(u) then begin
      seen.(u) <- true;
      Array.iter (fun (_, v) -> go v) g.out.(u)
    end
  in
  go g.root;
  seen

let is_acyclic g =
  (* 0 = unvisited, 1 = on stack, 2 = done *)
  let state = Array.make (n_nodes g) 0 in
  let exception Cycle in
  let rec go u =
    match state.(u) with
    | 1 -> raise Cycle
    | 2 -> ()
    | _ ->
      state.(u) <- 1;
      Array.iter (fun (_, v) -> go v) g.out.(u);
      state.(u) <- 2
  in
  try
    go g.root;
    true
  with Cycle -> false

let gc g =
  let live = reachable g in
  let remap = Array.make (n_nodes g) (-1) in
  let next = ref 0 in
  Array.iteri
    (fun u alive ->
      if alive then begin
        remap.(u) <- !next;
        incr next
      end)
    live;
  let out = Array.make !next [||] in
  Array.iteri
    (fun u row ->
      if live.(u) then
        out.(remap.(u)) <- Array.map (fun (l, v) -> (l, remap.(v))) row)
    g.out;
  { root = remap.(g.root); out }

let eps_eliminate g =
  let g = gc g in
  let out =
    Array.init (n_nodes g) (fun u -> Array.of_list (List.map (fun (l, v) -> (Lab l, v)) (labeled_succ g u)))
  in
  gc { root = g.root; out }

let map_labels f g =
  {
    g with
    out = Array.map (Array.map (fun (l, v) -> ((match l with Eps -> Eps | Lab l -> Lab (f l)), v))) g.out;
  }

let to_tree g =
  if not (is_acyclic g) then
    Ssd_diag.error ~code:"SSD007" "the graph is cyclic, so it denotes no finite tree";
  let memo = Hashtbl.create 64 in
  let rec go u =
    match Hashtbl.find_opt memo u with
    | Some t -> t
    | None ->
      let t = Tree.of_edges (List.map (fun (l, v) -> (l, go v)) (labeled_succ g u)) in
      Hashtbl.add memo u t;
      t
  in
  go g.root

let unfold ~depth g =
  (* Memoized on (node, remaining depth). *)
  let memo = Hashtbl.create 64 in
  let rec go u d =
    if d <= 0 then Tree.empty
    else
      match Hashtbl.find_opt memo (u, d) with
      | Some t -> t
      | None ->
        let t = Tree.of_edges (List.map (fun (l, v) -> (l, go v (d - 1))) (labeled_succ g u)) in
        Hashtbl.add memo (u, d) t;
        t
  in
  go g.root depth

let pp fmt g =
  (* Nodes reached more than once (by labeled traversal) get &n markers. *)
  let indegree = Hashtbl.create 64 in
  let bump u = Hashtbl.replace indegree u (1 + Option.value ~default:0 (Hashtbl.find_opt indegree u)) in
  let visited = Hashtbl.create 64 in
  let on_stack = Hashtbl.create 16 in
  let cycle_target = Hashtbl.create 4 in
  let rec count u =
    if Hashtbl.mem on_stack u then Hashtbl.replace cycle_target u ()
    else if not (Hashtbl.mem visited u) then begin
      Hashtbl.add visited u ();
      Hashtbl.add on_stack u ();
      List.iter
        (fun (_, v) ->
          bump v;
          count v)
        (labeled_succ g u);
      Hashtbl.remove on_stack u
    end
  in
  count g.root;
  let shared u =
    Hashtbl.mem cycle_target u
    || Option.value ~default:0 (Hashtbl.find_opt indegree u) > 1
  in
  let printed = Hashtbl.create 16 in
  let rec pp_node fmt u =
    if Hashtbl.mem printed u then Format.fprintf fmt "*%d" u
    else begin
      if shared u then begin
        Hashtbl.add printed u ();
        Format.fprintf fmt "&%d " u
      end;
      let es = labeled_succ g u in
      match es with
      | [] -> Format.pp_print_string fmt "{}"
      | es ->
        Format.fprintf fmt "@[<hv 1>{";
        List.iteri
          (fun i (l, v) ->
            if i > 0 then Format.fprintf fmt ",@ ";
            if labeled_succ g v = [] && not (shared v) then Label.pp fmt l
            else Format.fprintf fmt "%a:@ %a" Label.pp l pp_node v)
          es;
        Format.fprintf fmt "}@]"
    end
  in
  pp_node fmt g.root

let to_string g = Format.asprintf "%a" pp g
