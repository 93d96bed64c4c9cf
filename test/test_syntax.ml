module Label = Ssd.Label
module Tree = Ssd.Tree
module Graph = Ssd.Graph
module Syntax = Ssd.Syntax
open Gen

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let sugar () =
  (* A bare label is {label: {}} both as an entry and as a value. *)
  check "bare entry" true
    (Tree.equal (Syntax.parse_tree "{a}") (Syntax.parse_tree "{a: {}}"));
  check "bare value" true
    (Tree.equal (Syntax.parse_tree "{a: b}") (Syntax.parse_tree "{a: {b: {}}}"))

let literals () =
  let t = Syntax.parse_tree {| {i: 42, f: 1.5, s: "str", b: true, neg: -3} |} in
  check "int" true (Tree.mem_label t (Label.int 42));
  check "float" true (Tree.mem_label t (Label.float 1.5));
  check "string" true (Tree.mem_label t (Label.str "str"));
  check "bool" true (Tree.mem_label t (Label.bool true));
  check "negative" true (Tree.mem_label t (Label.int (-3)))

let comments_and_ws () =
  let t = Syntax.parse_tree "{\n  # a comment\n  a: {b}\n}" in
  check_int "comment skipped" 2 (Tree.size t)

let escapes () =
  let t = Syntax.parse_tree {| {"with \"quotes\" and \n newline"} |} in
  check "escape round-trips" true (Tree.mem_label t (Label.str "with \"quotes\" and \n newline"))

let sharing_is_dag () =
  let g = Syntax.parse_graph "{l: &s {deep: {v}}, r: *s}" in
  (* shared node stored once *)
  check_int "nodes shared, not copied" 4
    (Graph.n_nodes (Graph.gc (Graph.eps_eliminate g)))

let forward_reference () =
  let g = Syntax.parse_graph "{first: *later, second: &later {v}}" in
  check "forward ref resolves" true
    (Tree.equal (Graph.to_tree g) (Syntax.parse_tree "{first: {v}, second: {v}}"))

let errors () =
  List.iter
    (fun (src, expected) ->
      Alcotest.(check string) (Printf.sprintf "reject %s" src) expected
        (Gen.outcome (fun () -> Syntax.parse_graph src)))
    [
      ("{a: }", "SSD004@1:5");
      ("{a", "SSD004@1:3");
      ("{a: {b}} trailing", "SSD004@1:10");
      ("*undefined", "SSD004@1:1");
      (* double binding *)
      ("&x {a: &x {}}", "SSD004@1:8");
      ("{\"unterminated}", "SSD004@1:2");
      ("{:}", "SSD004@1:2");
      ("{a: 1,\n b: }", "SSD004@2:5");
    ]

let cyclic_needs_graph () =
  check "parse_tree raises on cycles" true
    (match Syntax.parse_tree "&r {a: *r}" with
     | exception Graph.Cyclic -> true
     | _ -> false)

let ( ==> ) a b = (not a) || b

let properties =
  [
    qtest "tree print/parse round-trip" tree (fun t ->
        Tree.equal t (Syntax.parse_tree (Tree.to_string t)));
    qtest "graph print/parse round-trip (bisim)" graph (fun g ->
        Ssd.Bisim.equal g (Syntax.parse_graph (Graph.to_string g)));
    qtest "parse is insensitive to surrounding whitespace/comments" tree (fun t ->
        let src = "  # leading comment\n" ^ Tree.to_string t ^ "\n  # trailing\n" in
        Tree.equal t (Syntax.parse_tree src));
  ]

let tests =
  [
    Alcotest.test_case "sugar" `Quick sugar;
    Alcotest.test_case "literals" `Quick literals;
    Alcotest.test_case "comments and whitespace" `Quick comments_and_ws;
    Alcotest.test_case "escapes" `Quick escapes;
    Alcotest.test_case "sharing is a DAG" `Quick sharing_is_dag;
    Alcotest.test_case "forward reference" `Quick forward_reference;
    Alcotest.test_case "parse errors" `Quick errors;
    Alcotest.test_case "cycles need parse_graph" `Quick cyclic_needs_graph;
  ]
  @ properties
