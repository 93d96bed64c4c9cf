module Update = Lorel.Update
module Graph = Ssd.Graph
module Tree = Ssd.Tree
module Label = Ssd.Label
open Gen

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let db () = Ssd.Syntax.parse_graph {| {movie: {title: "Casablanca", year: 1942},
                                       movie: {title: "Annie Hall"}} |}

let expect got expected = check "result" true (Ssd.Bisim.equal got (Ssd.Syntax.parse_graph expected))

let insert_grafts () =
  let g = Update.run ~db:(db ()) {| insert DB.movie := {seen: true} |} in
  expect g
    {| {movie: {title: "Casablanca", year: 1942, seen: true},
        movie: {title: "Annie Hall", seen: true}} |}

let insert_value_comments () =
  (* the inserted value is ssd data text, so '#' starts a comment in it *)
  let g = Update.run ~db:(db ()) "insert DB.movie := {seen: # note\n true};\ndelete DB.movie.year" in
  expect g
    {| {movie: {title: "Casablanca", seen: true},
        movie: {title: "Annie Hall", seen: true}} |}

let insert_shares_object_identity () =
  (* one grafted subobject shared by all targets: graph stays small *)
  let g = Update.run ~db:(db ()) {| insert DB.movie := {tag: {a, b, c}} |} in
  let tree_edges = Tree.size (Graph.to_tree g) in
  check "shared graft" true (Graph.n_edges g < tree_edges)

let insert_at_empty_path_is_noop () =
  let g = Update.run ~db:(db ()) {| insert DB.nosuch := {x} |} in
  check "no-op" true (Ssd.Bisim.equal g (db ()))

let delete_label () =
  let g = Update.run ~db:(db ()) {| delete DB.movie.year |} in
  expect g {| {movie: {title: "Casablanca"}, movie: {title: "Annie Hall"}} |}

let delete_wildcard () =
  let g = Update.run ~db:(db ()) {| delete DB.movie.% |} in
  expect g {| {movie: {}, movie: {}} |}

let delete_collects_garbage () =
  let g = Update.run ~db:(db ()) {| delete DB.% |} in
  check_int "only the root remains" 1 (Graph.n_nodes g)

let rename_label () =
  let g = Update.run ~db:(db ()) {| rename DB.movie.title to name |} in
  expect g
    {| {movie: {name: {"Casablanca"}, year: 1942}, movie: {name: {"Annie Hall"}}} |}

let rename_is_path_scoped () =
  let db = Ssd.Syntax.parse_graph {| {a: {x: {1}}, b: {x: {2}}} |} in
  let g = Update.run ~db {| rename DB.a.x to y |} in
  check "only under a" true
    (Ssd.Bisim.equal g (Ssd.Syntax.parse_graph {| {a: {y: {1}}, b: {x: {2}}} |}))

let statement_sequence () =
  let g =
    Update.run ~db:(db ())
      {| insert DB.movie := {genre: "classic"};
         delete DB.movie.year;
         rename DB.movie.genre to category |}
  in
  expect g
    {| {movie: {title: "Casablanca", category: {"classic"}},
        movie: {title: "Annie Hall", category: {"classic"}}} |}

let functional_updates () =
  let before = db () in
  let _ = Update.run ~db:before {| delete DB.movie.% |} in
  check "input untouched" true (Ssd.Bisim.equal before (db ()))

let parse_errors () =
  List.iter
    (fun (src, expected) ->
      Alcotest.(check string) (Printf.sprintf "reject %s" src) expected
        (Gen.outcome (fun () -> Update.parse src)))
    [
      ("frobnicate DB.x", "SSD002@1:1");
      ("insert DB.movie", "SSD002@1:16");
      ("delete DB", "SSD002@1:8");
      ("rename DB.movie.title", "SSD002@1:22");
      ("delete DB.movie.#", "SSD002@1:8");
      (* an error in the inserted value points into the whole update *)
      ("delete DB.a; insert DB.movie := {x: }", "SSD002@1:37");
    ]

let properties =
  [
    qtest "delete then query finds nothing" ~count:40 graph (fun g ->
        let g' = Update.run ~db:g "delete DB.a" in
        Lorel.Eval.eval_path ~db:g' ~env:[] (Lorel.Parser.parse_path "DB.a") = []);
    qtest "rename preserves edge count" ~count:40 graph (fun g ->
        let g0 = Graph.gc (Graph.eps_eliminate g) in
        let g' = Update.run ~db:g0 "rename DB.a to zz9" in
        Graph.n_edges g' = Graph.n_edges g0);
    qtest "insert adds exactly the grafted edges per target" ~count:40 graph (fun g ->
        let g0 = Graph.gc (Graph.eps_eliminate g) in
        let n_targets =
          List.length (Lorel.Eval.eval_path ~db:g0 ~env:[] (Lorel.Parser.parse_path "DB.b"))
        in
        let g' = Update.run ~db:g0 "insert DB.b := {fresh_marker}" in
        Graph.n_edges g' = Graph.n_edges g0 + n_targets);
  ]

let tests =
  [
    Alcotest.test_case "insert grafts" `Quick insert_grafts;
    Alcotest.test_case "insert value takes # comments" `Quick insert_value_comments;
    Alcotest.test_case "insert shares object identity" `Quick insert_shares_object_identity;
    Alcotest.test_case "insert at empty path is a no-op" `Quick insert_at_empty_path_is_noop;
    Alcotest.test_case "delete label" `Quick delete_label;
    Alcotest.test_case "delete wildcard" `Quick delete_wildcard;
    Alcotest.test_case "delete collects garbage" `Quick delete_collects_garbage;
    Alcotest.test_case "rename label" `Quick rename_label;
    Alcotest.test_case "rename is path-scoped" `Quick rename_is_path_scoped;
    Alcotest.test_case "statement sequence" `Quick statement_sequence;
    Alcotest.test_case "updates are functional" `Quick functional_updates;
    Alcotest.test_case "parse errors" `Quick parse_errors;
  ]
  @ properties
