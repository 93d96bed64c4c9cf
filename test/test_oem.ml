module Oem = Ssd.Oem
module Graph = Ssd.Graph
module Tree = Ssd.Tree
module Label = Ssd.Label
open Gen

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let sample =
  {| <entry, set, {
       &m1 <movie, set, {
         <title, str, "Casablanca">,
         <year, int, 1942>,
         <classic, bool, true>,
         <rating, real, 4.5> }>,
       <movie, set, {
         <title, str, "Play it again, Sam">,
         <references, set, { &m1 }> }> }> |}

let parse_sample () =
  let o = Oem.parse sample in
  check "top label" true (o.Oem.label = "entry");
  match o.Oem.value with
  | Oem.Objects [ Oem.Obj m1; Oem.Obj m2 ] ->
    check "oid bound" true (m1.Oem.oid = Some "m1");
    check "no oid" true (m2.Oem.oid = None)
  | _ -> Alcotest.fail "expected two movie members"

let to_graph_semantics () =
  let g = Oem.to_graph (Oem.parse sample) in
  let t = Graph.to_tree g in
  (* atomic values become leaf edges below the labeled edge *)
  (* two occurrences: the direct title path and the one through the
     spliced &m1 reference *)
  check "title value" true
    (List.mem
       (List.map Label.of_string [ "entry"; "movie"; "title"; "\"Casablanca\"" ])
       (Tree.find_paths_to t (Label.equal (Label.str "Casablanca"))));
  check "int atom" true (Tree.mem_label t (Label.int 1942));
  check "bool atom" true (Tree.mem_label t (Label.bool true));
  check "real atom" true (Tree.mem_label t (Label.float 4.5));
  (* the &m1 reference splices: Sam's references edge reaches the title *)
  let nfa = Ssd_automata.Nfa.of_string {| entry.movie.references.title."Casablanca" |} in
  check_int "reference reaches the shared movie" 1
    (List.length (Ssd_automata.Product.accepting_nodes g nfa))

let reference_is_shared_not_copied () =
  let g = Oem.to_graph (Oem.parse sample) in
  (* m1 is stored once: with the reference spliced, graph edges < tree edges *)
  check "sharing" true (Graph.n_edges g < Tree.size (Graph.to_tree g))

let cyclic_oem () =
  let g =
    Oem.to_graph
      (Oem.parse {| &a <x, set, { <next, set, { &a }> }> |})
  in
  check "cycle preserved" false (Graph.is_acyclic g)

let parse_errors () =
  List.iter
    (fun (src, expected) ->
      Alcotest.(check string) (Printf.sprintf "reject %s" src) expected
        (Gen.outcome (fun () -> Oem.parse src)))
    [
      ("", "SSD004@1:1");
      ("<a, set, {", "SSD004@1:11");
      (* declared/actual type mismatch *)
      ("<a, int, \"oops\">", "SSD004@1:10");
      ("<a, zoo, 1>", "SSD004@1:5");
      ("<a, set, {}> trailing", "SSD004@1:14");
      (* dangling reference, at the reference *)
      ("<a, set, { &ghost }>", "SSD004@1:12");
      ("<a, set, { &x <b, int, 1>, &x <c, int, 2> }>", "SSD004@1:28");
    ]

let figure1_roundtrip () =
  let g = Ssd_workload.Movies.figure1 () in
  let doc = Oem.of_graph ~top:"db" g in
  let g' = Oem.to_graph doc in
  (* of_graph wraps everything under one top edge *)
  check "round-trip under the top edge" true
    (Ssd.Bisim.equal (Graph.edge (Label.sym "db") g) g');
  (* and the text form round-trips too *)
  let g'' = Oem.to_graph (Oem.parse (Oem.to_string doc)) in
  check "textual round-trip" true (Ssd.Bisim.equal g' g'')

let properties =
  [
    qtest "of_graph/to_graph round-trip (bisim)" ~count:60 graph (fun g ->
        let doc = Oem.of_graph g in
        Ssd.Bisim.equal (Graph.edge (Label.sym "db") g) (Oem.to_graph doc));
    qtest "print/parse/to_graph round-trip" ~count:60 graph (fun g ->
        let doc = Oem.of_graph g in
        let doc' = Oem.parse (Oem.to_string doc) in
        Ssd.Bisim.equal (Oem.to_graph doc) (Oem.to_graph doc'));
  ]

let tests =
  [
    Alcotest.test_case "parse sample" `Quick parse_sample;
    Alcotest.test_case "to_graph semantics" `Quick to_graph_semantics;
    Alcotest.test_case "references shared" `Quick reference_is_shared_not_copied;
    Alcotest.test_case "cyclic OEM" `Quick cyclic_oem;
    Alcotest.test_case "parse errors" `Quick parse_errors;
    Alcotest.test_case "figure1 round-trip" `Quick figure1_roundtrip;
  ]
  @ properties
