module Label = Ssd.Label
module Tree = Ssd.Tree
module Graph = Ssd.Graph
open Gen

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let fig1 = Ssd_workload.Movies.figure1 ()

let run ?(db = fig1) src = Lorel.Eval.run ~db src
let rows g = Graph.labeled_succ g (Graph.root g)

let path_evaluation () =
  let eval src = Lorel.Eval.eval_path ~db:fig1 ~env:[] (Lorel.Parser.parse_path src) in
  check_int "two movies" 2 (List.length (eval "DB.entry.movie"));
  check_int "wildcard % spans one edge" 3 (List.length (eval "DB.entry.%"));
  (* '#' spans any path: every node reachable from the root *)
  check_int "hash reaches everything" (Graph.n_nodes (Graph.eps_eliminate fig1))
    (List.length (eval "DB.#"))

let select_from_where () =
  let r = run {| select X.title from DB.entry.movie X where X.director = "Allen" |} in
  check_int "one row" 1 (List.length (rows r));
  check "the right title" true
    (Tree.mem_label (Graph.to_tree r) (Label.str "Play it again, Sam"))

let coercion () =
  (* string/number coercion: budget is the float 1.2e6 *)
  let r = run {| select X.title from DB.entry.movie X where X.budget = "1200000" |} in
  check_int "string coerced to number" 1 (List.length (rows r));
  (* numeric comparison across int/float *)
  let r = run {| select X.title from DB.entry.movie X where X.budget > 1000000 |} in
  check_int "int bound vs float value" 1 (List.length (rows r))

let like_operator () =
  let r = run {| select X.title from DB.entry.% X where X.title like "again" |} in
  check_int "like matches substring" 1 (List.length (rows r))

let exists_and_negation () =
  let r = run {| select X.title from DB.entry.% X where exists X.episode |} in
  check_int "only the tv show has episodes" 1 (List.length (rows r));
  let r = run {| select X.title from DB.entry.% X where not exists X.episode |} in
  check_int "both movies lack episodes" 2 (List.length (rows r))

let hash_wildcard_queries () =
  (* find the movies where Bogart appears anywhere below cast, whatever
     the cast encoding (the figure's irregularity) *)
  let r = run {| select X.title from DB.entry.% X where X.cast.# = "Bogart" |} in
  check_int "Bogart in two entries" 2 (List.length (rows r))

let aliases_and_multi_items () =
  let r =
    run {| select X.title as t, X.director as d from DB.entry.movie X |}
  in
  let tree = Graph.to_tree r in
  check_int "two rows" 2 (List.length (rows r));
  check "alias labels used" true
    (Tree.mem_label tree (Label.sym "t") && Tree.mem_label tree (Label.sym "d"))

let multiple_range_vars () =
  let r =
    run
      {| select A from DB.entry.movie X, X.cast.#.% A
         where X.title = "Casablanca" |}
  in
  (* leaves under actors: Bogart/Bacall leaf objects *)
  check "rows present" true (rows r <> [])

let object_identity_preserved () =
  (* two select items reaching the same object share the node *)
  let r =
    run {| select X.references, X.references from DB.entry.movie X where exists X.references |}
  in
  let row =
    match rows r with
    | [ (_, row) ] -> row
    | _ -> Alcotest.fail "expected one row"
  in
  (match Graph.labeled_succ r row with
   | [ (_, n1); (_, n2) ] -> check "same object node" true (n1 = n2)
   | _ -> Alcotest.fail "expected two items")

let parse_errors () =
  List.iter
    (fun (src, expected) ->
      Alcotest.(check string) (Printf.sprintf "reject %s" src) expected
        (Gen.outcome (fun () -> Lorel.Parser.parse src)))
    [
      ("", "SSD002@1:1");
      ("from DB.x X", "SSD002@1:1");
      ("select", "SSD002@1:7");
      ("select X.y from DB.a select", "SSD002@1:22");
      ("select X.y from DB.a and", "SSD002@1:22");
      ("select X.title from DB.entry.movie X where", "SSD002@1:43");
    ]

let unbound_variable () =
  Alcotest.(check string) "unbound range var" "SSD401@-"
    (Gen.outcome (fun () -> run "select Y.title from DB.entry.movie X"))

let unbound_start_still_raises () =
  (* Filtering X early would leave no rows, and the range over the
     unbound Z would never run. *)
  let db = Ssd.Syntax.parse_graph "{a: {c: {2}}, a: {d: {1}}}" in
  Alcotest.(check string) "SSD401 despite an empty where" "SSD401@-"
    (Gen.outcome (fun () -> run ~db "select Y from DB.a X, Z.b Y where X.c = 1"))

(* The evaluation [where] placement must agree with: enumerate every
   range, filter with the whole condition, copy the database under a
   fresh root, add the rows, garbage-collect. *)
let reference_eval ~db (q : Lorel.Ast.query) =
  let envs =
    List.fold_left
      (fun envs (p, x) ->
        List.concat_map
          (fun env -> List.map (fun n -> (x, n) :: env) (Lorel.Eval.eval_path ~db ~env p))
          envs)
      [ [] ] q.from
  in
  let envs =
    match q.where with
    | None -> envs
    | Some c -> List.filter (fun env -> Lorel.Eval.eval_cond ~db ~env c) envs
  in
  let b = Graph.Builder.create () in
  let root = Graph.Builder.add_node b in
  Graph.Builder.set_root b root;
  let offset = Graph.import_into b db - Graph.root db in
  List.iter
    (fun env ->
      let row = Graph.Builder.add_node b in
      Graph.Builder.add_edge b root (Label.sym "row") row;
      List.iter
        (fun (it : Lorel.Ast.select_item) ->
          let lbl =
            match it.alias, List.rev it.item.comps, it.item.start with
            | Some a, _, _ -> Label.sym a
            | None, Lorel.Ast.Clabel l :: _, _ -> l
            | None, _, Some x -> Label.sym x
            | None, _, None -> Label.sym "item"
          in
          List.iter
            (fun n -> Graph.Builder.add_edge b row lbl (n + offset))
            (Lorel.Eval.eval_path ~db ~env it.item))
        q.select)
    envs;
  Graph.gc (Graph.Builder.finish b)

(* Small graphs over few labels, so that paths, comparisons and
   shadowed variables discriminate between rows. *)
let lorel_labels = [ Label.sym "a"; Label.sym "b"; Label.sym "c"; Label.int 0; Label.int 1; Label.str "a" ]

let lorel_graph : Graph.t Q.t =
  let open Q in
  let* n = int_range 1 8 in
  let edge = pair (frequency [ (3, oneofl (List.filteri (fun i _ -> i < 3) lorel_labels)); (1, oneofl lorel_labels) ]) (int_range 0 (n - 1)) in
  let* rows = list_repeat n (list_size (int_range 1 4) edge) in
  pure
    (let b = Graph.Builder.create () in
     for _ = 1 to n do
       ignore (Graph.Builder.add_node b)
     done;
     Graph.Builder.set_root b 0;
     List.iteri (fun u es -> List.iter (fun (l, v) -> Graph.Builder.add_edge b u l v) es) rows;
     Graph.gc (Graph.Builder.finish b))

(* Queries of 1-3 ranges over variables X/Y (shadowing allowed), each
   starting at DB or, mostly, at an earlier variable; '#' and '%'
   components; and a [where] of closed, one- and two-variable
   conjuncts under And/Or/Not over the bound variables, sometimes naming
   the never-bound W. *)
let lorel_query : Lorel.Ast.query Q.t =
  let open Lorel.Ast in
  let open Q in
  let comp =
    frequency
      [
        (4, Q.map (fun s -> Clabel (Label.sym s)) (oneofl [ "a"; "b"; "c" ]));
        (1, pure Cany);
        (1, pure Cpath);
      ]
  in
  let comps = list_size (int_range 0 2) comp in
  let range bound =
    let* x = oneofl [ "X"; "Y" ] in
    let* start =
      match bound with
      | [] -> frequency [ (14, pure None); (1, pure (Some "Z")) ]
      | _ -> frequency [ (4, pure None); (10, Q.map Option.some (oneofl bound)); (1, pure (Some "Z")) ]
    in
    let* comps = list_size (frequency [ (3, pure 1); (1, pure 2) ]) comp in
    pure ({ start; comps }, x)
  in
  let* n_ranges = int_range 1 3 in
  let rec ranges bound k =
    if k = 0 then pure []
    else
      let* ((_, x) as r) = range bound in
      let* rest = ranges (x :: bound) (k - 1) in
      pure (r :: rest)
  in
  let* from = ranges [] n_ranges in
  let path =
    let* start =
      frequency [ (2, pure None); (12, Q.map Option.some (oneofl (List.map snd from))); (1, pure (Some "W")) ]
    in
    let* comps = comps in
    pure { start; comps }
  in
  let operand = oneof [ Q.map (fun p -> Opath p) path; Q.map (fun l -> Olit l) (oneofl lorel_labels) ] in
  let atom =
    oneof
      [
        Q.map3 (fun op a b -> Cmp (op, a, b)) (oneofl [ Eq; Neq; Lt; Ge; Like ]) operand operand;
        Q.map (fun p -> Exists p) path;
      ]
  in
  let cond =
    sized_size (int_range 0 2)
    @@ fix (fun self n ->
           if n = 0 then atom
           else
             frequency
               [
                 (2, atom);
                 (3, Q.map2 (fun a b -> And (a, b)) (self (n - 1)) (self (n - 1)));
                 (1, Q.map2 (fun a b -> Or (a, b)) (self (n - 1)) (self (n - 1)));
                 (1, Q.map (fun a -> Not a) (self (n - 1)));
               ])
  in
  let* where = option cond in
  let* select = list_size (int_range 1 2) (Q.map (fun item -> { item; alias = None }) path) in
  pure { select; from; where }

let query_to_string (q : Lorel.Ast.query) =
  let open Lorel.Ast in
  let path = Lorel.Optimize.path_to_string in
  let operand = function Opath p -> path p | Olit l -> Label.to_string l in
  let op = function Eq -> "=" | Neq -> "!=" | Lt -> "<" | Le -> "<=" | Gt -> ">" | Ge -> ">=" | Like -> "like" in
  let rec cond = function
    | Cmp (o, a, b) -> Printf.sprintf "%s %s %s" (operand a) (op o) (operand b)
    | Exists p -> "exists " ^ path p
    | And (a, b) -> Printf.sprintf "(%s and %s)" (cond a) (cond b)
    | Or (a, b) -> Printf.sprintf "(%s or %s)" (cond a) (cond b)
    | Not c -> Printf.sprintf "not (%s)" (cond c)
  in
  Printf.sprintf "select %s from %s%s"
    (String.concat ", " (List.map (fun it -> path it.item) q.select))
    (String.concat ", " (List.map (fun (p, x) -> path p ^ " " ^ x) q.from))
    (match q.where with None -> "" | Some c -> " where " ^ cond c)

let outcome f = match f () with g -> Ok g | exception Ssd_diag.Fail d -> Error (Ssd_diag.to_string d)

let properties =
  [
    qtest "where placement = filter after enumeration" ~count:500 
      ~print:(fun (g, q) -> Graph.to_string g ^ "\n" ^ query_to_string q)
      (Q.pair lorel_graph lorel_query)
      (fun (db, q) ->
        match outcome (fun () -> Lorel.Eval.eval ~db q), outcome (fun () -> reference_eval ~db q) with
        | Ok g1, Ok g2 -> Graph.to_string g1 = Graph.to_string g2 && Graph.n_nodes g1 = Graph.n_nodes g2
        | Error e1, Error e2 -> e1 = e2
        | Ok _, Error _ | Error _, Ok _ -> false);
    qtest "DB.# = reachable nodes" graph (fun g ->
        let nodes =
          Lorel.Eval.eval_path ~db:g ~env:[] (Lorel.Parser.parse_path "DB.#")
        in
        List.length nodes = Graph.n_nodes (Graph.eps_eliminate g));
    qtest "% step = labeled successors" graph (fun g ->
        let via_lorel =
          Lorel.Eval.eval_path ~db:g ~env:[] (Lorel.Parser.parse_path "DB.%")
        in
        let direct =
          Graph.labeled_succ g (Graph.root g) |> List.map snd |> List.sort_uniq compare
        in
        List.sort compare via_lorel = direct);
    qtest "lorel exact path = unql literal path" ~count:50 graph (fun g ->
        let lorel_nodes =
          Lorel.Eval.eval_path ~db:g ~env:[] (Lorel.Parser.parse_path "DB.a.b")
        in
        let direct = Ssd_index.Path_index.traverse g [ Label.sym "a"; Label.sym "b" ] in
        List.sort compare lorel_nodes = List.sort compare direct);
  ]

let tests =
  [
    Alcotest.test_case "path evaluation" `Quick path_evaluation;
    Alcotest.test_case "select from where" `Quick select_from_where;
    Alcotest.test_case "coercion" `Quick coercion;
    Alcotest.test_case "like operator" `Quick like_operator;
    Alcotest.test_case "exists and negation" `Quick exists_and_negation;
    Alcotest.test_case "hash wildcard queries" `Quick hash_wildcard_queries;
    Alcotest.test_case "aliases and multiple items" `Quick aliases_and_multi_items;
    Alcotest.test_case "multiple range variables" `Quick multiple_range_vars;
    Alcotest.test_case "object identity preserved" `Quick object_identity_preserved;
    Alcotest.test_case "parse errors" `Quick parse_errors;
    Alcotest.test_case "unbound variable" `Quick unbound_variable;
    Alcotest.test_case "unbound start still raises" `Quick unbound_start_still_raises;
  ]
  @ properties
