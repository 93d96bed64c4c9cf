module Label = Ssd.Label
module Tree = Ssd.Tree
module Graph = Ssd.Graph
open Gen

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let sym = Label.sym

let constructors_denote_trees () =
  check "empty" true (Tree.is_empty (Graph.to_tree Graph.empty));
  check "leaf" true (Tree.equal (Graph.to_tree (Graph.leaf (sym "a"))) (Tree.leaf (sym "a")));
  let g = Graph.edge (sym "a") (Graph.leaf (sym "b")) in
  check "edge" true (Tree.equal (Graph.to_tree g) (Ssd.Syntax.parse_tree "{a: {b}}"))

let cycles () =
  let g = Ssd.Syntax.parse_graph "&r {a: *r}" in
  check "cyclic" false (Graph.is_acyclic g);
  Alcotest.(check string) "to_tree fails with SSD007" "SSD007@-"
    (Gen.outcome (fun () -> Graph.to_tree g));
  (* unfold cuts at depth *)
  check "unfold 2" true
    (Tree.equal (Graph.unfold ~depth:2 g) (Ssd.Syntax.parse_tree "{a: {a}}"))

let eps_semantics () =
  (* union root has ε-edges; labeled_succ reads through them *)
  let g = Graph.union (Graph.leaf (sym "a")) (Graph.leaf (sym "b")) in
  check_int "two labeled successors" 2 (List.length (Graph.labeled_succ g (Graph.root g)));
  let g' = Graph.eps_eliminate g in
  check_int "no eps after elimination"
    (Graph.n_edges g')
    (List.length
       (Graph.fold_labeled_edges (fun acc _ _ v -> v :: acc) [] g'))

let gc_drops_garbage () =
  let b = Graph.Builder.create () in
  let r = Graph.Builder.add_node b in
  let live = Graph.Builder.add_node b in
  let _dead = Graph.Builder.add_node b in
  Graph.Builder.add_edge b r (sym "a") live;
  Graph.Builder.set_root b r;
  let g = Graph.gc (Graph.Builder.finish b) in
  check_int "dead node collected" 2 (Graph.n_nodes g)

let import_into () =
  let inner = Ssd.Syntax.parse_graph "{x: {y}}" in
  let b = Graph.Builder.create () in
  let r = Graph.Builder.add_node b in
  Graph.Builder.set_root b r;
  let ir = Graph.import_into b inner in
  Graph.Builder.add_edge b r (sym "wrap") ir;
  let g = Graph.Builder.finish b in
  check "imported subgraph intact" true
    (Tree.equal (Graph.to_tree g) (Ssd.Syntax.parse_tree "{wrap: {x: {y}}}"))

let sharing_unfolds () =
  (* A DAG node referenced twice unfolds into two copies. *)
  let g = Ssd.Syntax.parse_graph "{l: &s {v}, r: *s}" in
  check "tree duplicates shared node" true
    (Tree.equal (Graph.to_tree g) (Ssd.Syntax.parse_tree "{l: {v}, r: {v}}"))

let pp_cyclic_roundtrip () =
  List.iter
    (fun src ->
      let g = Ssd.Syntax.parse_graph src in
      let g2 = Ssd.Syntax.parse_graph (Graph.to_string g) in
      check (Printf.sprintf "roundtrip %s" src) true (Ssd.Bisim.equal g g2))
    [
      "&r {a: *r}";
      "&r {a: {b: *r}, c: {}}";
      "{x: &s {v}, y: *s}";
      "&a {go: &b {back: *a, fwd: *b}}";
    ]

(* The tree-semantics definition of [labeled_succ]: the labeled edges of
   every node in the ε-closure, in closure order. *)
let labeled_succ_oracle g u =
  List.concat_map
    (fun w ->
      List.filter_map
        (fun (l, v) -> match l with Graph.Lab l -> Some (l, v) | Graph.Eps -> None)
        (Graph.succ g w))
    (Graph.eps_closure g u)

let properties =
  [
    qtest "labeled_succ = closure definition" (Q.oneof [ graph; eps_graph ]) (fun g ->
        List.for_all
          (fun u -> Graph.labeled_succ g u = labeled_succ_oracle g u)
          (List.init (Graph.n_nodes g) Fun.id));
    qtest "of_tree/to_tree round-trip" tree (fun t ->
        Tree.equal t (Graph.to_tree (Graph.of_tree t)));
    qtest "union denotes tree union" (Q.pair tree tree) (fun (t1, t2) ->
        Tree.equal
          (Graph.to_tree (Graph.union (Graph.of_tree t1) (Graph.of_tree t2)))
          (Tree.union t1 t2));
    qtest "eps_eliminate preserves the value" graph (fun g ->
        Ssd.Bisim.equal g (Graph.eps_eliminate g));
    qtest "gc preserves the value" graph (fun g -> Ssd.Bisim.equal g (Graph.gc g));
    qtest "map_labels id preserves the value" graph (fun g ->
        Ssd.Bisim.equal g (Graph.map_labels Fun.id g));
    qtest "reachable covers all gc'd nodes" graph (fun g ->
        let g = Graph.gc g in
        Array.for_all Fun.id (Graph.reachable g));
    qtest "to_tree of DAG equals deep unfold" dag (fun g ->
        let t = Graph.to_tree g in
        Tree.equal t (Graph.unfold ~depth:(Tree.depth t + 1) g));
    qtest "pp/parse round-trip up to bisimilarity" graph (fun g ->
        Ssd.Bisim.equal g (Ssd.Syntax.parse_graph (Graph.to_string g)));
    qtest "root out-degree bounds the tree's" dag (fun g ->
        (* labeled_succ may repeat (label, bisimilar target); the canonical
           tree absorbs those, never the reverse *)
        Tree.out_degree (Graph.to_tree g)
        <= List.length (Graph.labeled_succ g (Graph.root g)));
  ]

let tests =
  [
    Alcotest.test_case "constructors denote trees" `Quick constructors_denote_trees;
    Alcotest.test_case "cycles" `Quick cycles;
    Alcotest.test_case "eps semantics" `Quick eps_semantics;
    Alcotest.test_case "gc drops garbage" `Quick gc_drops_garbage;
    Alcotest.test_case "import_into" `Quick import_into;
    Alcotest.test_case "sharing unfolds" `Quick sharing_unfolds;
    Alcotest.test_case "cyclic print/parse round-trips" `Quick pp_cyclic_roundtrip;
  ]
  @ properties
