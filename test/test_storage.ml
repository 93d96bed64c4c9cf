(* The storage layer: the segment codec (label dictionary + CSR graph)
   and the decoders built on it, page layout and the LRU buffer-pool
   simulation. *)

module Graph = Ssd.Graph
module B = Ssd_storage.Bytesio
module Seg = Ssd_storage.Seg
module Pager = Ssd_storage.Pager
open Gen

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* Both segments of [g]: the dictionary and the graph encoded against it. *)
let encode g =
  let dict = Seg.dict_of_graph g in
  (Seg.encode_dict dict, Seg.encode_graph ~dict g)

let decode (dict_b, graph_b) = Seg.decode_graph ~dict:(Seg.decode_dict dict_b) graph_b

let encoded_size g =
  let d, gb = encode g in
  Bytes.length d + Bytes.length gb

let roundtrip_fig1 () =
  let g = Ssd_workload.Movies.figure1 () in
  let dict = Seg.dict_of_graph g in
  let dict_b, graph_b = encode g in
  let dict' = Seg.decode_dict dict_b in
  check "dict round-trip" true (dict = dict');
  let g' = Seg.decode_graph ~dict:dict' graph_b in
  (* node identities survive exactly, not just up to bisimilarity *)
  check_int "same node count" (Graph.n_nodes g) (Graph.n_nodes g');
  check_int "same edge count" (Graph.n_edges g) (Graph.n_edges g');
  check_int "same root" (Graph.root g) (Graph.root g');
  check "same value" true (Ssd.Bisim.equal g g');
  (* Canonical: re-encoding the decode is byte-identical. *)
  check "canonical bytes" true (Bytes.equal graph_b (Seg.encode_graph ~dict:dict' g'));
  (* The store persists these bytes and fingerprints them: they must not
     drift between versions. *)
  check "dict bytes pinned" true
    (Digest.to_hex (Digest.bytes dict_b) = "d91e503c7d9b421ce87bbef3bbc73845");
  check "graph bytes pinned" true
    (Digest.to_hex (Digest.bytes graph_b) = "bb8c5b55e42bb03c79392eba735d6c16")

let corrupt_input_rejected () =
  let rejects f =
    match f () with
    | exception B.Corrupt _ -> true
    | _ -> false
  in
  let dict_b, graph_b = encode (Ssd_workload.Movies.figure1 ()) in
  let dict = Seg.decode_dict dict_b in
  let graph data () = Seg.decode_graph ~dict data in
  check "bad magic" true (rejects (graph (Bytes.of_string "NOPE")));
  check "empty" true (rejects (graph Bytes.empty));
  check "truncated" true (rejects (graph (Bytes.sub graph_b 0 (Bytes.length graph_b - 3))));
  check "trailing bytes" true (rejects (graph (Bytes.cat graph_b (Bytes.of_string "xx"))));
  check "dictionary too short" true
    (rejects (fun () -> Seg.decode_graph ~dict:(Array.sub dict 0 1) graph_b));
  check "truncated dictionary" true
    (rejects (fun () -> Seg.decode_dict (Bytes.sub dict_b 0 (Bytes.length dict_b - 1))));
  check "unsorted dictionary" true
    (rejects (fun () -> Seg.decode_dict (Seg.encode_dict [| "b"; "a" |])))

let corrupt_diagnostics () =
  (* The exception carries where and what: offset of the defect plus
     expected/found descriptions. *)
  (match Seg.decode_graph ~dict:[||] (Bytes.of_string "NOPE") with
  | exception B.Corrupt { offset; expected; found } ->
    check_int "magic offset" 0 offset;
    check "mentions magic" true (expected = "magic \"SSDG\"");
    check "shows found bytes" true (found = "\"NOPE\"")
  | _ -> Alcotest.fail "bad magic accepted");
  (* A huge node count must be rejected against the bytes remaining, not
     allocated. *)
  let huge = Buffer.create 16 in
  Buffer.add_string huge "SSDG";
  Buffer.add_string huge "\xff\xff\xff\xff\x07";
  (* n_nodes varint *)
  Buffer.add_char huge '\x00';
  (* root *)
  match Seg.decode_graph ~dict:[||] (Buffer.to_bytes huge) with
  | exception B.Corrupt _ -> ()
  | _ -> Alcotest.fail "oversized node count accepted"

(* Edge cases the crash-recovery work leans on: the one-node empty
   graph, a node of maximal arity, and labels containing NUL bytes,
   newlines and multi-byte UTF-8 — all must round-trip exactly through
   the segment codec. *)
let edge_case_roundtrips () =
  let roundtrips what g =
    let same g' =
      Graph.n_nodes g = Graph.n_nodes g'
      && Graph.n_edges g = Graph.n_edges g'
      && Graph.root g = Graph.root g'
      && Ssd.Bisim.equal g g'
    in
    check (what ^ " (segment)") true (same (decode (encode g)))
  in
  roundtrips "empty graph" Graph.empty;
  (* one source fanning out to thousands of children *)
  let b = Graph.Builder.create () in
  let r = Graph.Builder.add_node b in
  Graph.Builder.set_root b r;
  for i = 0 to 4999 do
    let v = Graph.Builder.add_node b in
    Graph.Builder.add_edge b r (Ssd.Label.int i) v
  done;
  roundtrips "maximum-arity node" (Graph.Builder.finish b);
  let nasty =
    [
      "with\000nul";
      "new\nline";
      "tab\there";
      "caf\xc3\xa9 \xe2\x9c\x93";
      (* café ✓ *)
      "";
      String.make 300 '\xff';
    ]
  in
  let b = Graph.Builder.create () in
  let r = Graph.Builder.add_node b in
  Graph.Builder.set_root b r;
  List.iter
    (fun s ->
      let v = Graph.Builder.add_node b in
      Graph.Builder.add_edge b r (Ssd.Label.sym s) v;
      let w = Graph.Builder.add_node b in
      Graph.Builder.add_edge b v (Ssd.Label.str s) w)
    nasty;
  roundtrips "NUL/newline/UTF-8 labels" (Graph.Builder.finish b)

let string_table_shares () =
  (* many occurrences of one symbol must be cheaper than distinct ones *)
  let mk labels =
    let b = Graph.Builder.create () in
    let r = Graph.Builder.add_node b in
    Graph.Builder.set_root b r;
    List.iter
      (fun l ->
        let v = Graph.Builder.add_node b in
        Graph.Builder.add_edge b r (Ssd.Label.sym l) v)
      labels;
    Graph.Builder.finish b
  in
  let repeated = mk (List.init 50 (fun _ -> "longish_symbol_name")) in
  let distinct = mk (List.init 50 (fun i -> Printf.sprintf "longish_symbol_%03d" i)) in
  check "shared strings compress" true
    (encoded_size repeated * 2 < encoded_size distinct)

let paging_basics () =
  let g = Ssd_workload.Movies.generate ~n_entries:50 () in
  let t = Pager.layout Pager.Bfs ~page_capacity:16 g in
  check_int "pages cover all nodes"
    ((Graph.n_nodes g + 15) / 16)
    (Pager.n_pages t);
  let ok = ref true in
  for u = 0 to Graph.n_nodes g - 1 do
    if Pager.page_of t u < 0 || Pager.page_of t u >= Pager.n_pages t then ok := false
  done;
  check "page ids in range" true !ok

let lru_behaviour () =
  let g = Ssd_workload.Movies.generate ~n_entries:20 () in
  let t = Pager.layout Pager.Insertion ~page_capacity:4 g in
  (* same page twice in a row: second access hits *)
  let s = Pager.replay t ~buffer_pages:2 [ 0; 0; 0 ] in
  check_int "one fault for repeated page" 1 s.Pager.faults;
  (* sequence touching more pages than the buffer: all faults *)
  let nodes = List.init (Graph.n_nodes g) Fun.id in
  let cold = Pager.replay t ~buffer_pages:1 (nodes @ nodes) in
  check "thrashing with tiny buffer" true (cold.Pager.faults > Pager.n_pages t)

let clustering_matters () =
  (* depth-first walks should fault less under DFS clustering than under
     scattered placement *)
  let g = Ssd_workload.Biodb.generate ~n_taxa:800 () in
  let walks = Pager.random_walks ~seed:1 ~n_walks:200 ~depth:12 g in
  let faults c =
    (Pager.replay (Pager.layout c ~page_capacity:32 g) ~buffer_pages:4 walks).Pager.faults
  in
  check "dfs beats scatter on path workloads" true (faults Pager.Dfs < faults (Pager.Scatter 7))

let properties =
  [
    qtest "encode/decode round-trip" graph (fun g ->
        let g' = decode (encode g) in
        Graph.n_nodes g = Graph.n_nodes g'
        && Graph.n_edges g = Graph.n_edges g'
        && Ssd.Bisim.equal g g');
    qtest "encoded size monotone-ish in edges" graph (fun g ->
        encoded_size g >= Graph.n_nodes g);
    qtest "replay faults bounded" (Q.pair graph (Q.int_range 1 4)) (fun (g, buffer) ->
        let t = Pager.layout Pager.Bfs ~page_capacity:4 g in
        let walks = Pager.random_walks ~seed:3 ~n_walks:20 ~depth:6 g in
        let s = Pager.replay t ~buffer_pages:buffer walks in
        s.Pager.faults <= s.Pager.accesses
        && s.Pager.faults >= 1
        && s.Pager.accesses = List.length walks);
    qtest "layouts are permutations" graph (fun g ->
        List.for_all
          (fun c ->
            let t = Pager.layout c ~page_capacity:3 g in
            let count = Array.make (Pager.n_pages t) 0 in
            for u = 0 to Graph.n_nodes g - 1 do
              count.(Pager.page_of t u) <- count.(Pager.page_of t u) + 1
            done;
            Array.for_all (fun c -> c <= 3) count)
          [ Pager.Insertion; Pager.Bfs; Pager.Dfs; Pager.Scatter 5 ]);
  ]

(* Every segment decoder, fed mutated encodings of random graphs, either
   decodes or raises [Bytesio.Corrupt]; any other exception escapes and
   fails the property — that is the point. *)
let fuzzed_decoders =
  let case name encode decode =
    qtest name ~count:400 (corrupted_encoding encode) (fun (g, data) ->
        match decode g data with
        | () -> true
        | exception B.Corrupt _ -> true)
  in
  [
    case "fuzzed decode round-trips or raises Corrupt"
      (fun g -> snd (encode g))
      (fun g data -> ignore (Seg.decode_graph ~dict:(Seg.dict_of_graph g) data));
    case "fuzzed dict decode round-trips or raises Corrupt"
      (fun g -> fst (encode g))
      (fun _ data -> ignore (Seg.decode_dict data));
    case "fuzzed guide decode round-trips or raises Corrupt"
      (fun g -> Ssd_schema.Dataguide.(to_bytes (build g)))
      (fun _ data -> ignore (Ssd_schema.Dataguide.of_bytes data));
    case "fuzzed value-index decode round-trips or raises Corrupt"
      (fun g -> Ssd_index.Value_index.(to_bytes (build g)))
      (fun _ data -> ignore (Ssd_index.Value_index.of_bytes data));
    case "fuzzed text-index decode round-trips or raises Corrupt"
      (fun g -> Ssd_index.Text_index.(to_bytes (build g)))
      (fun _ data -> ignore (Ssd_index.Text_index.of_bytes data));
    case "fuzzed path-index decode round-trips or raises Corrupt"
      (fun g -> Ssd_index.Path_index.(to_bytes (build ~depth:3 g)))
      (fun _ data -> ignore (Ssd_index.Path_index.of_bytes data));
  ]

let tests =
  [
    Alcotest.test_case "codec round-trip figure1" `Quick roundtrip_fig1;
    Alcotest.test_case "corrupt input rejected" `Quick corrupt_input_rejected;
    Alcotest.test_case "corrupt diagnostics" `Quick corrupt_diagnostics;
    Alcotest.test_case "pager rejects nonpositive capacities" `Quick (fun () ->
        let g = Ssd_workload.Movies.figure1 () in
        let is_ssd542 f =
          match f () with
          | exception Ssd_diag.Fail d -> d.Ssd_diag.code = "SSD542"
          | _ -> false
        in
        check "layout capacity" true
          (is_ssd542 (fun () -> Pager.layout Pager.Bfs ~page_capacity:0 g));
        check "replay buffer" true
          (is_ssd542 (fun () ->
               Pager.replay (Pager.layout Pager.Bfs ~page_capacity:4 g) ~buffer_pages:(-1) [ 0 ])));
    Alcotest.test_case "edge-case round-trips" `Quick edge_case_roundtrips;
    Alcotest.test_case "string table shares" `Quick string_table_shares;
    Alcotest.test_case "paging basics" `Quick paging_basics;
    Alcotest.test_case "LRU behaviour" `Quick lru_behaviour;
    Alcotest.test_case "clustering matters" `Quick clustering_matters;
  ]
  @ properties @ fuzzed_decoders
