module Label = Ssd.Label
module Relation = Relstore.Relation
module Ra = Relstore.Ra
module Triple = Relstore.Triple
module Datalog = Relstore.Datalog
module Graph = Ssd.Graph
open Gen

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Relations                                                           *)
(* ------------------------------------------------------------------ *)

let relation_basics () =
  let r = Relation.of_rows [ "a"; "b" ] [ [| Label.int 1; Label.str "x" |] ] in
  check_int "arity" 2 (Relation.arity r);
  check_int "cardinality" 1 (Relation.cardinality r);
  check_int "column" 1 (Relation.column r "b");
  check "mem" true (Relation.mem r [| Label.int 1; Label.str "x" |]);
  check "duplicate attrs rejected" true
    (match Relation.create [ "a"; "a" ] with
     | exception Ssd_diag.Fail d -> d.Ssd_diag.code = "SSD520"
     | _ -> false);
  check "arity mismatch rejected" true
    (match Relation.add (Relation.create [ "a" ]) [| Label.int 1; Label.int 2 |] with
     | exception Ssd_diag.Fail d -> d.Ssd_diag.code = "SSD520"
     | _ -> false)

let relation_set_semantics () =
  let r =
    Relation.of_rows [ "a" ] [ [| Label.int 1 |]; [| Label.int 1 |]; [| Label.int 2 |] ]
  in
  check_int "duplicates absorbed" 2 (Relation.cardinality r)

(* ------------------------------------------------------------------ *)
(* Relational algebra                                                  *)
(* ------------------------------------------------------------------ *)

let join_example () =
  let r = Relation.of_rows [ "a"; "b" ]
      [ [| Label.int 1; Label.str "x" |]; [| Label.int 2; Label.str "y" |] ] in
  let s = Relation.of_rows [ "b"; "c" ]
      [ [| Label.str "x"; Label.bool true |]; [| Label.str "z"; Label.bool false |] ] in
  let j = Ra.join r s in
  check_int "one matching row" 1 (Relation.cardinality j);
  check "combined row" true
    (Relation.mem j [| Label.int 1; Label.str "x"; Label.bool true |])

let cartesian_when_disjoint () =
  let r = Relation.of_rows [ "a" ] [ [| Label.int 1 |]; [| Label.int 2 |] ] in
  let s = Relation.of_rows [ "b" ] [ [| Label.int 3 |]; [| Label.int 4 |] ] in
  check_int "2x2 product" 4 (Relation.cardinality (Ra.join r s))

let rename_and_project () =
  let r = Relation.of_rows [ "a"; "b" ] [ [| Label.int 1; Label.int 2 |] ] in
  let r' = Ra.rename ("a", "z") r in
  check "renamed attr present" true (Array.to_list (Relation.attrs r') = [ "z"; "b" ]);
  let p = Ra.project [ "b" ] r in
  check "projection" true (Relation.mem p [| Label.int 2 |]);
  check "missing attr raises" true
    (match Ra.project [ "zz" ] r with exception Not_found -> true | _ -> false)

let abc = [ "a"; "b" ]

let ra_properties =
  [
    qtest "union commutative" (Q.pair (relation abc) (relation abc)) (fun (r, s) ->
        Relation.equal (Ra.union r s) (Ra.union s r));
    qtest "union/inter/diff partition" (Q.pair (relation abc) (relation abc)) (fun (r, s) ->
        (* r = (r - s) u (r n s) *)
        Relation.equal r (Ra.union (Ra.diff r s) (Ra.inter r s)));
    qtest "selection distributes over union"
      (Q.pair (relation abc) (relation abc))
      (fun (r, s) ->
        let p row = Label.compare row.(0) (Label.int 0) > 0 in
        Relation.equal
          (Ra.select p (Ra.union r s))
          (Ra.union (Ra.select p r) (Ra.select p s)));
    qtest "projection idempotent" (relation abc) (fun r ->
        let p = Ra.project [ "a" ] r in
        Relation.equal p (Ra.project [ "a" ] p));
    qtest "join with self on all attrs is identity" (relation abc) (fun r ->
        Relation.equal r (Ra.join r r));
    qtest "select true is identity" (relation abc) (fun r ->
        Relation.equal r (Ra.select (fun _ -> true) r));
    qtest "join cardinality bounded by product" (Q.pair (relation abc) (relation [ "b"; "c" ]))
      (fun (r, s) ->
        Relation.cardinality (Ra.join r s)
        <= Relation.cardinality r * Relation.cardinality s);
  ]

(* ------------------------------------------------------------------ *)
(* Triple encoding                                                     *)
(* ------------------------------------------------------------------ *)

let triple_roundtrip_fig1 () =
  let g = Ssd_workload.Movies.figure1 () in
  let back = Triple.to_graph ~edges:(Triple.edges g) ~root:(Triple.root g) in
  check "roundtrip bisimilar" true (Ssd.Bisim.equal g back)

let triple_properties =
  [
    qtest "to_graph inverts edges/root (bisim)" graph (fun g ->
        let g' = Triple.to_graph ~edges:(Triple.edges g) ~root:(Triple.root g) in
        Ssd.Bisim.equal g g');
    qtest "edge count matches eps-eliminated graph" graph (fun g ->
        Relation.cardinality (Triple.edges g)
        <= Graph.n_edges (Graph.eps_eliminate g));
    qtest "edb mirrors relations" graph (fun g ->
        let edb = Triple.edb g in
        let copy = Datalog.parse "e(?S, ?L, ?D) :- edge(?S, ?L, ?D). r(?N) :- root(?N)." in
        List.length (Datalog.query ~edb copy "e") = Relation.cardinality (Triple.edges g)
        && List.length (Datalog.query ~edb copy "r") = 1);
  ]

let tests =
  [
    Alcotest.test_case "relation basics" `Quick relation_basics;
    Alcotest.test_case "relation set semantics" `Quick relation_set_semantics;
    Alcotest.test_case "join example" `Quick join_example;
    Alcotest.test_case "cartesian when disjoint" `Quick cartesian_when_disjoint;
    Alcotest.test_case "rename and project" `Quick rename_and_project;
    Alcotest.test_case "triple roundtrip figure1" `Quick triple_roundtrip_fig1;
  ]
  @ ra_properties @ triple_properties
