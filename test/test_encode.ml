module Label = Ssd.Label
module Tree = Ssd.Tree
module Graph = Ssd.Graph
module Encode = Ssd.Encode
open Gen

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let sample_db () =
  [
    {
      Encode.rel_name = "r";
      attrs = [ "a"; "b" ];
      rows = [ [ Label.int 1; Label.str "x" ]; [ Label.int 2; Label.str "y" ] ];
    };
    { Encode.rel_name = "s"; attrs = [ "k" ]; rows = [ [ Label.bool true ] ] };
  ]

let roundtrip () =
  let db = sample_db () in
  let back = Encode.database_of_tree (Encode.tree_of_database db) in
  check_int "two relations" 2 (List.length back);
  let r = List.find (fun r -> r.Encode.rel_name = "r") back in
  check "attrs sorted but complete" true (List.sort compare r.Encode.attrs = [ "a"; "b" ]);
  check_int "rows preserved" 2 (List.length r.Encode.rows)

let duplicate_rows_collapse () =
  let rel =
    { Encode.rel_name = "r"; attrs = [ "a" ]; rows = [ [ Label.int 1 ]; [ Label.int 1 ] ] }
  in
  let back = Encode.relation_of_tree ~name:"r" (Encode.tree_of_relation rel) in
  check_int "set semantics" 1 (List.length back.Encode.rows)

let ill_formed () =
  let raises f = Gen.outcome f = "SSD522@-" in
  check "arity mismatch" true
    (raises (fun () ->
         Encode.tree_of_relation
           { Encode.rel_name = "r"; attrs = [ "a"; "b" ]; rows = [ [ Label.int 1 ] ] }));
  check "non-tuple edge" true
    (raises (fun () ->
         Encode.relation_of_tree ~name:"r" (Ssd.Syntax.parse_tree "{row: {a: {1}}}")));
  check "tuples disagree" true
    (raises (fun () ->
         Encode.relation_of_tree ~name:"r"
           (Ssd.Syntax.parse_tree "{tuple: {a: {1}}, tuple: {b: {2}}}")));
  check "missing value" true
    (raises (fun () ->
         Encode.relation_of_tree ~name:"r" (Ssd.Syntax.parse_tree "{tuple: {a: {}}}")))

let oo_sharing () =
  let objs =
    [
      { Encode.oid = 1; cls = "dept"; fields = [ ("name", Encode.Base (Label.str "CS")) ] };
      {
        Encode.oid = 2;
        cls = "emp";
        fields = [ ("dept", Encode.Ref 1); ("name", Encode.Base (Label.str "Ann")) ];
      };
      {
        Encode.oid = 3;
        cls = "emp";
        fields = [ ("dept", Encode.Ref 1); ("name", Encode.Base (Label.str "Bob")) ];
      };
    ]
  in
  let g = Encode.graph_of_objects ~roots:[ 2; 3 ] objs in
  (* The dept node is shared: root(1) + emp(2) + dept(1) + per-field value
     nodes.  Check sharing via node count vs. its unfolded tree. *)
  let tree_edges = Tree.size (Graph.to_tree g) in
  let graph_edges = Graph.n_edges g in
  check "sharing means fewer graph edges than tree edges" true (graph_edges < tree_edges);
  (* both employees reach the same CS leaf *)
  let t = Graph.to_tree g in
  check_int "CS appears twice in the unfolding" 2
    (List.length (Tree.find_paths_to t (Label.equal (Label.str "CS"))))

let oo_cycles () =
  let objs =
    [
      { Encode.oid = 1; cls = "a"; fields = [ ("next", Encode.Ref 2) ] };
      { Encode.oid = 2; cls = "b"; fields = [ ("next", Encode.Ref 1) ] };
    ]
  in
  let g = Encode.graph_of_objects ~roots:[ 1 ] objs in
  check "reference cycle preserved" false (Graph.is_acyclic g)

let oo_errors () =
  let raises f = Gen.outcome f = "SSD522@-" in
  check "dangling ref" true
    (raises (fun () ->
         Encode.graph_of_objects ~roots:[ 1 ]
           [ { Encode.oid = 1; cls = "a"; fields = [ ("r", Encode.Ref 99) ] } ]));
  check "duplicate oid" true
    (raises (fun () ->
         Encode.graph_of_objects ~roots:[ 1 ]
           [
             { Encode.oid = 1; cls = "a"; fields = [] };
             { Encode.oid = 1; cls = "b"; fields = [] };
           ]));
  check "unknown root" true
    (raises (fun () -> Encode.graph_of_objects ~roots:[ 5 ] []))

let set_fields () =
  let objs =
    [
      {
        Encode.oid = 1;
        cls = "team";
        fields =
          [ ("members", Encode.Fset [ Encode.Base (Label.str "a"); Encode.Base (Label.str "b") ]) ];
      };
    ]
  in
  let g = Encode.graph_of_objects ~roots:[ 1 ] objs in
  let t = Graph.to_tree g in
  check_int "two member edges" 2
    (List.length (Tree.find_paths_to t (Label.equal (Label.sym "member"))))

(* random relational database generator *)
let rand_relation : Encode.relation Q.t =
  let open Q in
  let* name = oneofl [ "r"; "s"; "t" ] in
  let* attrs = oneofl [ [ "a" ]; [ "a"; "b" ]; [ "x"; "y"; "z" ] ] in
  let* rows = list_size (int_range 0 6) (list_repeat (List.length attrs) label) in
  pure { Encode.rel_name = name; attrs; rows }

let properties =
  [
    qtest "relation round-trip up to row set" rand_relation (fun r ->
        let back = Encode.relation_of_tree ~name:r.Encode.rel_name (Encode.tree_of_relation r) in
        (* attrs may be reordered; compare projected row sets *)
        let normalize rel =
          List.map
            (fun row ->
              List.sort compare (List.combine rel.Encode.attrs (List.map Label.to_string row)))
            rel.Encode.rows
          |> List.sort_uniq compare
        in
        normalize back = normalize r);
    qtest "encoding conforms to the relational shape" rand_relation (fun r ->
        let t = Encode.tree_of_relation r in
        List.for_all (fun (l, _) -> Label.equal l (Label.sym "tuple")) (Tree.edges t));
  ]

let tests =
  [
    Alcotest.test_case "database round-trip" `Quick roundtrip;
    Alcotest.test_case "duplicate rows collapse" `Quick duplicate_rows_collapse;
    Alcotest.test_case "ill-formed relational trees" `Quick ill_formed;
    Alcotest.test_case "OO sharing" `Quick oo_sharing;
    Alcotest.test_case "OO cycles" `Quick oo_cycles;
    Alcotest.test_case "OO errors" `Quick oo_errors;
    Alcotest.test_case "set fields" `Quick set_fields;
  ]
  @ properties
