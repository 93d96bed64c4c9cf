module Graph = Ssd.Graph
module Label = Ssd.Label

module Label_map = Map.Make (struct
  type t = Label.t

  let compare = Label.compare
end)

type t = {
  graph : Graph.t;
  targets : int list array;
}

let build g =
  (* Subset construction over ε-closed labeled successors. *)
  let ids : (int list, int) Hashtbl.t = Hashtbl.create 64 in
  let b = Graph.Builder.create () in
  let target_acc = ref [] in
  let intern set =
    match Hashtbl.find_opt ids set with
    | Some id -> (id, false)
    | None ->
      let id = Graph.Builder.add_node b in
      Hashtbl.add ids set id;
      target_acc := (id, set) :: !target_acc;
      (id, true)
  in
  let rec explore set id =
    (* Group successors of the whole set by label. *)
    let by_label =
      List.fold_left
        (fun m u ->
          List.fold_left
            (fun m (l, v) ->
              let old = Option.value ~default:[] (Label_map.find_opt l m) in
              Label_map.add l (v :: old) m)
            m (Graph.labeled_succ g u))
        Label_map.empty set
    in
    Label_map.iter
      (fun l vs ->
        let vs = List.sort_uniq compare vs in
        let vid, fresh = intern vs in
        Graph.Builder.add_edge b id l vid;
        if fresh then explore vs vid)
      by_label
  in
  let root_set = [ Graph.root g ] in
  let root_id, _ = intern root_set in
  Graph.Builder.set_root b root_id;
  explore root_set root_id;
  let guide = Graph.Builder.finish b in
  let targets = Array.make (Graph.n_nodes guide) [] in
  List.iter (fun (id, set) -> targets.(id) <- set) !target_acc;
  { graph = guide; targets }

(* Trusted constructor for the incremental maintainer (lib/incr), which
   re-derives the canonical numbering itself; [build]'s invariants
   (deterministic graph, one target set per node) are the caller's
   responsibility. *)
let make graph targets =
  if Array.length targets <> Graph.n_nodes graph then
    invalid_arg "Dataguide.make: one target set per guide node";
  { graph; targets }

let graph dg = dg.graph
let targets dg u = dg.targets.(u)
let n_nodes dg = Graph.n_nodes dg.graph

let follow dg path =
  let rec go u = function
    | [] -> Some u
    | l :: rest -> (
      match
        List.find_opt (fun (l', _) -> Label.equal l l') (Graph.labeled_succ dg.graph u)
      with
      | Some (_, v) -> go v rest
      | None -> None)
  in
  go (Graph.root dg.graph) path

let find dg path =
  match follow dg path with
  | Some u -> targets dg u
  | None -> []

(* ------------------------------------------------------------------ *)
(* Canonical serialization (persistent store segments)                  *)
(* ------------------------------------------------------------------ *)

module B = Ssd_storage.Bytesio
module Seg = Ssd_storage.Seg

let magic = "SSDU"

(* The guide graph is embedded as two length-prefixed {!Seg} blobs, its
   label dictionary then its CSR graph (deterministic: [build] is),
   followed by the per-guide-node target sets, each sorted. *)
let to_bytes dg =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf magic;
  let dict = Seg.dict_of_graph dg.graph in
  let put_blob b =
    B.put_varint buf (Bytes.length b);
    Buffer.add_bytes buf b
  in
  put_blob (Seg.encode_dict dict);
  put_blob (Seg.encode_graph ~dict dg.graph);
  B.put_varint buf (Array.length dg.targets);
  Array.iter
    (fun nodes ->
      let nodes = List.sort_uniq compare nodes in
      B.put_varint buf (List.length nodes);
      List.iter (B.put_varint buf) nodes)
    dg.targets;
  Buffer.to_bytes buf

let of_bytes data =
  let r = B.reader data in
  B.expect_magic r magic;
  let blob what =
    let len = B.get_varint r in
    if len > B.remaining r then
      B.corrupt ~offset:r.B.pos
        ~expected:
          (Printf.sprintf "a guide %s blob within the %d bytes left" what (B.remaining r))
        ~found:(string_of_int len);
    let b = Bytes.sub r.B.data r.B.pos len in
    r.B.pos <- r.B.pos + len;
    b
  in
  let dict = Seg.decode_dict (blob "dictionary") in
  let graph = Seg.decode_graph ~dict (blob "graph") in
  let n = B.get_varint r in
  if n <> Graph.n_nodes graph then
    B.corrupt ~offset:r.B.pos
      ~expected:(Printf.sprintf "one target set per guide node (%d)" (Graph.n_nodes graph))
      ~found:(string_of_int n);
  let targets = Array.make n [] in
  for i = 0 to n - 1 do
    let k = B.get_varint r in
    B.check_count r ~what:"a target-set size" ~unit_bytes:1 k;
    let nodes = ref [] in
    for _ = 1 to k do
      nodes := B.get_varint r :: !nodes
    done;
    targets.(i) <- List.rev !nodes
  done;
  B.expect_end r;
  { graph; targets }

let paths dg ~max_len =
  let out = ref [] in
  let rec go u prefix len =
    out := List.rev prefix :: !out;
    if len < max_len then
      List.iter (fun (l, v) -> go v (l :: prefix) (len + 1)) (Graph.labeled_succ dg.graph u)
  in
  go (Graph.root dg.graph) [] 0;
  List.rev !out
