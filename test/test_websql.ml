module Relation = Relstore.Relation
module Label = Ssd.Label
module Graph = Ssd.Graph

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* A small handcrafted web: two hosts, known link structure.
     host0: p0 -> p1 (local), p0 => q0 (global), p1 -> p0 (local, cycle)
     host1: q0 => p1 (global) *)
let tiny_web () =
  let b = Graph.Builder.create () in
  let root = Graph.Builder.add_node b in
  Graph.Builder.set_root b root;
  let host () =
    let h = Graph.Builder.add_node b in
    Graph.Builder.add_edge b root (Label.sym "host") h;
    h
  in
  let h0 = host () and h1 = host () in
  let page h name title =
    let p = Graph.Builder.add_node b in
    Graph.Builder.add_edge b h (Label.sym "page") p;
    let urln = Graph.Builder.add_node b in
    Graph.Builder.add_edge b p (Label.sym "url") urln;
    let urll = Graph.Builder.add_node b in
    Graph.Builder.add_edge b urln (Label.str name) urll;
    let titlen = Graph.Builder.add_node b in
    Graph.Builder.add_edge b p (Label.sym "title") titlen;
    let titlel = Graph.Builder.add_node b in
    Graph.Builder.add_edge b titlen (Label.str title) titlel;
    p
  in
  let p0 = page h0 "u:p0" "Start here" in
  let p1 = page h0 "u:p1" "Second page" in
  let q0 = page h1 "u:q0" "Other host" in
  let link a b' = Graph.Builder.add_edge b a (Label.sym "link") b' in
  link p0 p1;
  link p0 q0;
  link p1 p0;
  link q0 p1;
  Graph.Builder.finish b

let rows r = Relation.rows r
let texts_of r col = List.map (fun row -> row.(col)) (rows r)

let local_navigation () =
  let r =
    Websql.Eval.run ~db:(tiny_web ())
      {| SELECT d.url FROM DOCUMENT d SUCH THAT "u:p0" ->* d |}
  in
  (* local-only closure from p0: p0 and p1 but not q0 *)
  check "p0 and p1" true
    (List.sort compare (texts_of r 0) = [ Label.str "u:p0"; Label.str "u:p1" ])

let global_navigation () =
  let r =
    Websql.Eval.run ~db:(tiny_web ())
      {| SELECT d.url FROM DOCUMENT d SUCH THAT "u:p0" => d |}
  in
  check "only the cross-host link" true (texts_of r 0 = [ Label.str "u:q0" ])

let mixed_navigation () =
  let r =
    Websql.Eval.run ~db:(tiny_web ())
      {| SELECT d.url FROM DOCUMENT d SUCH THAT "u:p0" (-> | =>)* d |}
  in
  check_int "everything reachable" 3 (Relation.cardinality r)

let chained_docspecs () =
  let r =
    Websql.Eval.run ~db:(tiny_web ())
      {| SELECT d.url, e.url
         FROM DOCUMENT d SUCH THAT "u:p0" => d,
              DOCUMENT e SUCH THAT d ~> e |}
  in
  (* d = q0; e = q0's link targets = p1 *)
  check "join through variables" true
    (rows r = [ [| Label.str "u:q0"; Label.str "u:p1" |] ])

let where_conditions () =
  let db = tiny_web () in
  let r =
    Websql.Eval.run ~db
      {| SELECT d.title FROM ANYWHERE d WHERE d.title CONTAINS "page" |}
  in
  check "contains" true (texts_of r 0 = [ Label.str "Second page" ]);
  let r =
    Websql.Eval.run ~db
      {| SELECT d.url FROM ANYWHERE d WHERE d MENTIONS "host" AND NOT d.url = "u:q0" |}
  in
  (* "host" appears in q0's title only, and q0 is excluded *)
  check_int "mentions + negation" 0 (Relation.cardinality r)

let cyclic_termination () =
  (* p0 -> p1 -> p0 is a local cycle; the star must terminate *)
  let r =
    Websql.Eval.run ~db:(tiny_web ())
      {| SELECT d.url FROM DOCUMENT d SUCH THAT "u:p0" (->)+ d |}
  in
  check "plus over a cycle" true
    (List.sort compare (texts_of r 0) = [ Label.str "u:p0"; Label.str "u:p1" ])

let against_generator () =
  (* on generated web graphs, (->|=>)* from any page equals link-closure *)
  let db = Ssd_workload.Webgraph.generate ~seed:21 ~n_pages:60 ~n_hosts:4 () in
  let w = Websql.Web.of_graph db in
  let some_page = List.hd (Websql.Web.documents w) in
  let via_websql =
    Websql.Eval.reachable w ~start:some_page Websql.Ast.(Star (Atom Any))
  in
  (* closure over link edges, computed directly *)
  let seen = Hashtbl.create 64 in
  let rec go p =
    if not (Hashtbl.mem seen p) then begin
      Hashtbl.add seen p ();
      List.iter (fun (_, q) -> go q) (Websql.Web.links w p)
    end
  in
  go some_page;
  check "star = closure" true
    (List.sort compare via_websql
    = List.sort compare (Hashtbl.fold (fun p () acc -> p :: acc) seen []))

let parse_errors () =
  List.iter
    (fun (src, expected) ->
      Alcotest.(check string) (Printf.sprintf "reject %s" src) expected
        (Gen.outcome (fun () -> Websql.Parser.parse src)))
    [
      ("", "SSD005@1:1");
      ("SELECT d.url", "SSD005@1:13");
      ("SELECT d.url FROM DOCUMENT d", "SSD005@1:29");
      (* wrong trailing var *)
      ({| SELECT d.url FROM DOCUMENT d SUCH THAT "u" -> e |}, "SSD005@1:48");
      ({| SELECT d.url FROM DOCUMENT d SUCH THAT "u" -> d WHERE |}, "SSD005@1:56");
    ]

let missing_url_is_empty () =
  let r =
    Websql.Eval.run ~db:(tiny_web ())
      {| SELECT d.url FROM DOCUMENT d SUCH THAT "no-such-url" ->* d |}
  in
  check_int "unknown start" 0 (Relation.cardinality r)

let tests =
  [
    Alcotest.test_case "local navigation" `Quick local_navigation;
    Alcotest.test_case "global navigation" `Quick global_navigation;
    Alcotest.test_case "mixed navigation" `Quick mixed_navigation;
    Alcotest.test_case "chained docspecs" `Quick chained_docspecs;
    Alcotest.test_case "where conditions" `Quick where_conditions;
    Alcotest.test_case "cyclic termination" `Quick cyclic_termination;
    Alcotest.test_case "against the generator" `Quick against_generator;
    Alcotest.test_case "parse errors" `Quick parse_errors;
    Alcotest.test_case "missing url is empty" `Quick missing_url_is_empty;
  ]
