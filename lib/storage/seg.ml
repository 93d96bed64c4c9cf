(* Segment codecs: the label dictionary and the CSR-style graph.

   The dictionary ("SSDD") holds every distinct [Str]/[Sym] payload,
   sorted — canonical, and binary-searchable on disk.  The graph segment
   ("SSDG") is compressed sparse rows: a degrees block (one varint per
   node) followed by an edges block (tagged labels, string payloads as
   dictionary indices, then the target node).  Splitting degrees from
   edges keeps the node → row mapping computable without touching edge
   bytes, and referencing the dictionary keeps repeated labels one
   varint wide.

   Decoders validate everything — magics, sortedness, dictionary and
   node bounds, the edge count, full consumption — and raise only the
   typed [Bytesio.Corrupt]. *)

module B = Bytesio
module Graph = Ssd.Graph
module Label = Ssd.Label

let dict_magic = "SSDD"
let graph_magic = "SSDG"

(* ------------------------------------------------------------------ *)
(* Dictionary                                                          *)
(* ------------------------------------------------------------------ *)

(* All distinct string payloads of the graph's labels, sorted. *)
let dict_of_graph g =
  let tbl = Hashtbl.create 64 in
  Graph.fold_edges
    (fun () _ l _ ->
      match l with
      | Graph.Lab (Label.Str s) | Graph.Lab (Label.Sym s) -> Hashtbl.replace tbl s ()
      | Graph.Lab (Label.Int _ | Label.Float _ | Label.Bool _) | Graph.Eps -> ())
    () g;
  let strings = Hashtbl.fold (fun s () acc -> s :: acc) tbl [] in
  Array.of_list (List.sort String.compare strings)

let encode_dict dict =
  let buf = Buffer.create 256 in
  Buffer.add_string buf dict_magic;
  B.put_varint buf (Array.length dict);
  Array.iter (B.put_string buf) dict;
  Buffer.to_bytes buf

let decode_dict data =
  let r = B.reader data in
  B.expect_magic r dict_magic;
  let n = B.get_varint r in
  B.check_count r ~what:"a dictionary size" ~unit_bytes:1 n;
  let dict = Array.make n "" in
  for i = 0 to n - 1 do
    let off = r.B.pos in
    let s = B.get_string r in
    if i > 0 && String.compare dict.(i - 1) s >= 0 then
      B.corrupt ~offset:off ~expected:"strictly ascending dictionary strings"
        ~found:(Printf.sprintf "%S after %S" s dict.(i - 1));
    dict.(i) <- s
  done;
  B.expect_end r;
  dict

(* ------------------------------------------------------------------ *)
(* Graph (CSR)                                                         *)
(* ------------------------------------------------------------------ *)

let encode_graph ~dict g =
  (* string -> dictionary index, built once per encode *)
  let index = Hashtbl.create (Array.length dict) in
  Array.iteri (fun i s -> Hashtbl.replace index s i) dict;
  let dict_index s =
    match Hashtbl.find_opt index s with
    | Some i -> i
    | None -> invalid_arg (Printf.sprintf "Seg.encode_graph: %S not in dictionary" s)
  in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf graph_magic;
  let n = Graph.n_nodes g in
  B.put_varint buf n;
  B.put_varint buf (Graph.root g);
  B.put_varint buf (Graph.n_edges g);
  (* Degrees block. *)
  for u = 0 to n - 1 do
    B.put_varint buf (List.length (Graph.succ g u))
  done;
  (* Edges block: tag, payload (strings as dictionary indices), target. *)
  for u = 0 to n - 1 do
    List.iter
      (fun (l, v) ->
        (match l with
        | Graph.Eps -> Buffer.add_char buf '\000'
        | Graph.Lab (Label.Int i) ->
          Buffer.add_char buf '\001';
          B.put_int buf i
        | Graph.Lab (Label.Float f) ->
          Buffer.add_char buf '\002';
          B.put_float buf f
        | Graph.Lab (Label.Str s) ->
          Buffer.add_char buf '\003';
          B.put_varint buf (dict_index s)
        | Graph.Lab (Label.Bool bl) ->
          Buffer.add_char buf '\004';
          Buffer.add_char buf (if bl then '\001' else '\000')
        | Graph.Lab (Label.Sym s) ->
          Buffer.add_char buf '\005';
          B.put_varint buf (dict_index s));
        B.put_varint buf v)
      (Graph.succ g u)
  done;
  Buffer.to_bytes buf

let decode_graph ~dict data =
  let r = B.reader data in
  B.expect_magic r graph_magic;
  let n = B.get_varint r in
  if n = 0 then B.corrupt ~offset:4 ~expected:"a nonempty graph" ~found:"n_nodes = 0";
  B.check_count r ~what:"a node count" ~unit_bytes:1 n;
  let root = B.get_varint r in
  if root >= n then
    B.corrupt ~offset:4
      ~expected:(Printf.sprintf "a root below n_nodes = %d" n)
      ~found:(string_of_int root);
  let n_edges = B.get_varint r in
  B.check_count r ~what:"an edge count" ~unit_bytes:2 n_edges;
  let degrees = Array.make n 0 in
  let total = ref 0 in
  for u = 0 to n - 1 do
    let off = r.B.pos in
    let d = B.get_varint r in
    B.check_count r ~what:"an out-degree" ~unit_bytes:2 d;
    if !total + d > n_edges then
      B.corrupt ~offset:off
        ~expected:(Printf.sprintf "degrees summing to n_edges = %d" n_edges)
        ~found:(Printf.sprintf "at least %d" (!total + d));
    degrees.(u) <- d;
    total := !total + d
  done;
  if !total <> n_edges then
    B.corrupt ~offset:r.B.pos
      ~expected:(Printf.sprintf "degrees summing to n_edges = %d" n_edges)
      ~found:(string_of_int !total);
  let n_dict = Array.length dict in
  let string_at off i =
    if i < n_dict then dict.(i)
    else
      B.corrupt ~offset:off
        ~expected:(Printf.sprintf "a dictionary index below %d" n_dict)
        ~found:(string_of_int i)
  in
  let b = Graph.Builder.create () in
  for _ = 1 to n do
    ignore (Graph.Builder.add_node b)
  done;
  Graph.Builder.set_root b root;
  for u = 0 to n - 1 do
    for _ = 1 to degrees.(u) do
      let tag_off = r.B.pos in
      let label =
        match B.byte r with
        | 0 -> Graph.Eps
        | 1 -> Graph.Lab (Label.Int (B.get_int r))
        | 2 -> Graph.Lab (Label.Float (B.get_float r))
        | 3 ->
          let off = r.B.pos in
          Graph.Lab (Label.Str (string_at off (B.get_varint r)))
        | 4 -> Graph.Lab (Label.Bool (B.byte r <> 0))
        | 5 ->
          let off = r.B.pos in
          Graph.Lab (Label.Sym (string_at off (B.get_varint r)))
        | t -> B.corrupt ~offset:tag_off ~expected:"a label tag in 0..5" ~found:(string_of_int t)
      in
      let v = B.get_varint r in
      if v >= n then
        B.corrupt ~offset:tag_off
          ~expected:(Printf.sprintf "an edge target below n_nodes = %d" n)
          ~found:(string_of_int v);
      match label with
      | Graph.Eps -> Graph.Builder.add_eps b u v
      | Graph.Lab l -> Graph.Builder.add_edge b u l v
    done
  done;
  B.expect_end r;
  Graph.Builder.finish b
