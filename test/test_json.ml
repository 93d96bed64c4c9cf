module Json = Ssd.Json
module Label = Ssd.Label
module Tree = Ssd.Tree
open Gen

let check = Alcotest.(check bool)

let parse_basics () =
  check "null" true (Json.parse "null" = Json.Null);
  check "int" true (Json.parse "42" = Json.Int 42);
  check "float" true (Json.parse "-1.5e2" = Json.Float (-150.));
  check "string" true (Json.parse {| "hi" |} = Json.String "hi");
  check "array" true (Json.parse "[1, 2]" = Json.List [ Json.Int 1; Json.Int 2 ]);
  check "object" true
    (Json.parse {| {"a": 1, "b": [true, null]} |}
    = Json.Obj [ ("a", Json.Int 1); ("b", Json.List [ Json.Bool true; Json.Null ]) ]);
  check "nested empties" true (Json.parse "[[], {}]" = Json.List [ Json.List []; Json.Obj [] ])

let parse_errors () =
  List.iter
    (fun (src, expected) ->
      Alcotest.(check string) (Printf.sprintf "reject %s" src) expected
        (Gen.outcome (fun () -> Json.parse src)))
    [
      ("", "SSD004@1:1");
      ("{", "SSD004@1:2");
      ("[1,]", "SSD004@1:4");
      ("{\"a\" 1}", "SSD004@1:6");
      ("nul", "SSD004@1:1");
      ("\"open", "SSD004@1:1");
      ("1 2", "SSD004@1:3");
    ]

let arrays_become_integer_edges () =
  (* "arrays may be represented by labeling internal edges with integers" *)
  let t = Json.to_tree (Json.parse {| ["x", "y"] |}) in
  check "edge 0" true
    (Tree.subtrees_with_label t (Label.int 0) = [ Tree.leaf (Label.str "x") ]);
  check "edge 1" true
    (Tree.subtrees_with_label t (Label.int 1) = [ Tree.leaf (Label.str "y") ])

let object_keys_become_symbols () =
  let t = Json.to_tree (Json.parse {| {"movie": {"title": "Casablanca"}} |}) in
  check "path" true
    (Tree.equal t (Ssd.Syntax.parse_tree {| {movie: {title: {"Casablanca"}}} |}))

let of_tree_heuristics () =
  (* a tree with contiguous int labels decodes as an array *)
  check "array back" true
    (Json.of_tree (Json.to_tree (Json.parse "[1, 2, 3]")) = Json.parse "[1, 2, 3]");
  (* duplicate labels are legal trees; JSON keeps the first *)
  let t = Ssd.Syntax.parse_tree {| {k: {1}, k: {2}} |} in
  check "duplicate keys collapse" true
    (match Json.of_tree t with Json.Obj [ ("k", _) ] -> true | _ -> false)

(* The encoding is not injective on empty containers ([] and {} both
   denote the empty tree — the paper's point: the model subsumes the
   format) and forgets object key order (edges are a set).  Properties
   hold up to that normalization. *)
let rec norm = function
  | Json.List [] -> Json.Obj []
  | Json.List [ x ] when norm x = Json.Obj [] ->
    (* {0: {}} is also the encoding of the scalar 0 *)
    Json.Int 0
  | Json.List items -> Json.List (List.map norm items)
  | Json.Obj kvs ->
    (* the tree is a set of edges: object key order is not represented *)
    Json.Obj
      (List.sort
         (fun (k1, _) (k2, _) -> String.compare k1 k2)
         (List.map (fun (k, v) -> (k, norm v)) kvs))
  | j -> j

let properties =
  [
    qtest "print/parse round-trip" json (fun j -> Json.parse (Json.to_string j) = j);
    qtest "of_tree (to_tree j) = j up to empty containers" ~print:Json.to_string json (fun j ->
        Json.of_tree (Json.to_tree j) = norm j);
    qtest "to_tree injective up to empty containers" (Q.pair json json) (fun (a, b) ->
        norm a = norm b || not (Tree.equal (Json.to_tree a) (Json.to_tree b)));
  ]

let tests =
  [
    Alcotest.test_case "parse basics" `Quick parse_basics;
    Alcotest.test_case "parse errors" `Quick parse_errors;
    Alcotest.test_case "arrays become integer edges" `Quick arrays_become_integer_edges;
    Alcotest.test_case "object keys become symbols" `Quick object_keys_become_symbols;
    Alcotest.test_case "of_tree heuristics" `Quick of_tree_heuristics;
  ]
  @ properties
