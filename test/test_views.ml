module Views = Unql.Views
module Graph = Ssd.Graph
module Tree = Ssd.Tree
module Label = Ssd.Label

let check = Alcotest.(check bool)

let fig1 = Ssd_workload.Movies.figure1 ()

let basic_view () =
  let reg =
    Views.(empty |> define ~name:"films" {| select {film: m} where {entry.movie: \m} <- DB |})
  in
  let films = Views.materialize reg ~db:fig1 "films" in
  Alcotest.(check int) "two films" 2 (List.length (Graph.labeled_succ films (Graph.root films)));
  (* query over the view *)
  let r = Views.run reg ~db:fig1 {| select {t: \t} where {film.title.\t} <- films |} in
  check "titles via view" true (Tree.mem_label (Graph.to_tree r) (Label.str "Casablanca"))

let chained_views () =
  let reg =
    Views.(
      empty
      |> define ~name:"films" {| select {film: m} where {entry.movie: \m} <- DB |}
      |> define ~name:"titles" {| select {t: \t} where {film.title.\t} <- films |})
  in
  let titles = Views.materialize reg ~db:fig1 "titles" in
  Alcotest.(check int) "two titles" 2
    (List.length (Graph.labeled_succ titles (Graph.root titles)));
  (* a view chain is equivalent to the inlined query *)
  let direct =
    Unql.Eval.run ~db:fig1 {| select {t: \t} where {entry.movie.title.\t} <- DB |}
  in
  check "chain = inline" true (Ssd.Bisim.equal titles direct)

let restructuring_view () =
  (* views can use structural recursion: a cleaned mirror of the db *)
  let reg =
    Views.(
      empty
      |> define ~name:"clean"
           {| let sfun f({budget: T}) = {} | f({\L: T}) = {L: f(T)} in f(DB) |})
  in
  let cleaned = Views.materialize reg ~db:fig1 "clean" in
  check "no budget in the view" true
    (Unql.Eval.run ~db:cleaned {| select {hit} where {<_*.budget>} <- DB |}
    |> Graph.to_tree |> Tree.is_empty);
  check "titles survive" true
    (Tree.mem_label (Graph.unfold ~depth:5 cleaned) (Label.str "Casablanca"))

let shadowing_and_errors () =
  check "duplicate name rejected" true
    (match
       Views.(empty |> define ~name:"v" "{}" |> define ~name:"v" "{a}")
     with
     | exception Ssd_diag.Fail d -> d.Ssd_diag.code = "SSD530"
     | _ -> false);
  check "unknown view" true
    (match Views.materialize Views.empty ~db:fig1 "ghost" with
     | exception Not_found -> true
     | _ -> false);
  Alcotest.(check string) "bad source rejected at define" "SSD001@1:17"
    (Gen.outcome (fun () -> Views.(empty |> define ~name:"v" "select {x} where")))

let views_do_not_leak_into_db () =
  (* DB inside a view still refers to the original database *)
  let reg =
    Views.(
      empty
      |> define ~name:"v1" "{marker}"
      |> define ~name:"v2" {| select {found} where {marker} <- DB |})
  in
  let v2 = Views.materialize reg ~db:fig1 "v2" in
  check "DB is not the view" true (Tree.is_empty (Graph.to_tree v2))

let tests =
  [
    Alcotest.test_case "basic view" `Quick basic_view;
    Alcotest.test_case "chained views" `Quick chained_views;
    Alcotest.test_case "restructuring view" `Quick restructuring_view;
    Alcotest.test_case "shadowing and errors" `Quick shadowing_and_errors;
    Alcotest.test_case "views do not leak into DB" `Quick views_do_not_leak_into_db;
  ]
