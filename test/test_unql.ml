module Label = Ssd.Label
module Tree = Ssd.Tree
module Graph = Ssd.Graph
module Bisim = Ssd.Bisim
open Gen

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let fig1 = Ssd_workload.Movies.figure1 ()

let run ?options ?(db = fig1) src = Unql.Eval.run ?options ~db src

let run_tree ?db src = Graph.to_tree (run ?db src)

let expect_tree ?db src expected =
  check (Printf.sprintf "query %s" src) true
    (Tree.equal (run_tree ?db src) (Ssd.Syntax.parse_tree expected))

(* ------------------------------------------------------------------ *)
(* Expressions                                                         *)
(* ------------------------------------------------------------------ *)

let constructors () =
  expect_tree "{}" "{}";
  expect_tree "{a: {b}, c: {}}" "{a: {b}, c: {}}";
  expect_tree {| {t: "x", n: 42} |} {| {t: {"x"}, n: {42}} |};
  expect_tree "{a} union {b}" "{a, b}";
  (* union has set semantics *)
  expect_tree "{a} union {a}" "{a}";
  expect_tree "let x = {v} in {a: x, b: x}" "{a: {v}, b: {v}}";
  expect_tree "if 1 < 2 then {yes} else {no}" "{yes}";
  expect_tree "if isempty({}) then {yes} else {no}" "{yes}";
  expect_tree "if equal({a: {b}}, {a: {b}} union {a: {b}}) then {yes} else {no}" "{yes}"

let label_literal_leaves () =
  expect_tree {| "just a string" |} {| {"just a string"} |};
  expect_tree "42" "{42}"

(* ------------------------------------------------------------------ *)
(* Select / where                                                      *)
(* ------------------------------------------------------------------ *)

let select_basics () =
  expect_tree {| select {title: t} where {entry.movie.title: \t} <- DB |}
    {| {title: {"Casablanca"}, title: {"Play it again, Sam"}} |};
  (* label variable binding and reuse in the head *)
  expect_tree {| select {kind: \k} where {entry.\k: _} <- DB |}
    "{kind: {movie}, kind: {tvshow}}";
  (* multiple generators join on shared label variables *)
  expect_tree
    {| select {pair: d}
       where {<entry.movie>: \m} <- DB,
             {director.\d} <- m,
             {<cast._*>.\a} <- m,
             a = d |}
    (* only "Play it again, Sam" has its director acting *)
    {| {pair: {"Allen"}} |}

let select_conditions () =
  expect_tree
    {| select {num: \y} where {<_*>.\y} <- DB, isint(y), y > 2 |}
    "{num: {3}}";
  expect_tree
    {| select {f: \x} where {<_*>.\x} <- DB, isfloat(x) |}
    "{f: {1200000.0}}";
  expect_tree
    {| select {n: \x} where {<_*>.\x} <- DB, isstring(x), startswith(x, "Bac") |}
    {| {n: {"Bacall"}} |};
  expect_tree
    {| select {n: \x} where {<entry._.title>.\x} <- DB, contains(x, "again") |}
    {| {n: {"Play it again, Sam"}} |}

let select_patterns () =
  (* predicate steps *)
  expect_tree
    {| select {hit: \l} where {entry._.cast.<(credit)?>.startswith("act").\l} <- DB |}
    {| {hit: {"Bogart"}, hit: {"Bacall"}, hit: {"Allen"}} |};
  (* nested patterns with conjunctive entries *)
  expect_tree
    {| select {both: {ti: \t, di: \d}}
       where {entry.movie: {title: {\t}, director: {\d}}} <- DB |}
    {| {both: {ti: {"Casablanca"}, di: {"Curtiz"}},
        both: {ti: {"Play it again, Sam"}, di: {"Allen"}}} |}

let select_empty_when_no_match () =
  expect_tree {| select {x} where {nosuch: \t} <- DB |} "{}"

let nested_select () =
  expect_tree
    {| select {movie: (select {title: \t} where {title.\t} <- m)}
       where {<entry.movie>: \m} <- DB |}
    {| {movie: {title: {"Casablanca"}}, movie: {title: {"Play it again, Sam"}}} |}

(* ------------------------------------------------------------------ *)
(* Regular path patterns on cyclic data                                *)
(* ------------------------------------------------------------------ *)

let regex_patterns () =
  (* through the references cycle, bounded by the automaton *)
  expect_tree
    {| select {found: \t}
       where {<entry.movie.(references)*.title>.\t} <- DB, t = "Casablanca" |}
    {| {found: {"Casablanca"}, found: {"Casablanca"}} |};
  (* termination on the cyclic references/is_referenced_in pair *)
  check "star over the full cycle terminates" true
    (Tree.depth (run_tree {| select {n: \t} where {<entry.movie.(references|is_referenced_in)*.title>.\t} <- DB |}) = 2)

let browsing_queries () =
  (* section 1.3, on figure 1: are there integers > 2^16? (episodes are
     1..3, so no) *)
  expect_tree {| select {big: \l} where {<_*>.\l} <- DB, isint(l), l > 65536 |} "{}";
  (* attribute names starting with "act" *)
  expect_tree
    {| select {attr: \l} where {<_*>.\l} <- DB, issymbol(l), startswith(l, "act") |}
    "{attr: {actors}, attr: {actors}}"

(* ------------------------------------------------------------------ *)
(* Structural recursion                                                *)
(* ------------------------------------------------------------------ *)

let sfun_on_finite_data () =
  let db = Ssd.Syntax.parse_graph "{a: {b: {c}}, d}" in
  check "relabel leaves structure" true
    (Tree.equal
       (Graph.to_tree (run ~db "let sfun f({b: T}) = {bb: f(T)} | f({\\L: T}) = {L: f(T)} in f(DB)"))
       (Ssd.Syntax.parse_tree "{a: {bb: {c}}, d}"))

let sfun_well_defined_on_cycles () =
  let db = Ssd.Syntax.parse_graph "&r {a: {b: *r}}" in
  let result = run ~db "let sfun f({a: T}) = {x: f(T)} | f({\\L: T}) = {L: f(T)} in f(DB)" in
  check "cyclic result" false (Graph.is_acyclic result);
  check "relabeled cycle" true (Bisim.equal result (Ssd.Syntax.parse_graph "&r {x: {b: *r}}"))

let sfun_delete_and_collapse () =
  let db = Ssd.Syntax.parse_graph "{keep: {drop: {x}, keep: {y}}, drop: {z}}" in
  check "delete prunes subtrees" true
    (Tree.equal
       (Graph.to_tree (run ~db (Unql.Restructure.As_query.delete ~label:"drop")))
       (Ssd.Syntax.parse_tree "{keep: {keep: {y}}}"));
  check "collapse splices subtrees" true
    (Tree.equal
       (Graph.to_tree (run ~db (Unql.Restructure.As_query.collapse ~label:"drop")))
       (Ssd.Syntax.parse_tree "{keep: {x, keep: {y}}, z}"))

let sfun_case_order () =
  (* first matching case wins *)
  let db = Ssd.Syntax.parse_graph "{a: {}, b: {}}" in
  expect_tree ~db
    "let sfun f({a: T}) = {first} | f({_: T}) = {rest} in f(DB)"
    "{first, rest}"

let sfun_unmatched_edges_vanish () =
  let db = Ssd.Syntax.parse_graph "{a: {}, b: {}}" in
  expect_tree ~db "let sfun f({a: T}) = {a} in f(DB)" "{a}"

let sfun_composition () =
  (* apply a previously-defined sfun inside another: g(f(T)) composes *)
  let db = Ssd.Syntax.parse_graph "{a: {a: {a}}}" in
  expect_tree ~db
    {| let sfun f({a: T}) = {b: f(T)} | f({\L: T}) = {L: f(T)}
       in let sfun g({b: T}) = {c: g(T)} | g({\L: T}) = {L: g(T)}
       in g(f(DB)) |}
    "{c: {c: {c}}}"

let short_circuit () =
  (* "adding new edges to short-circuit various paths" (section 3) *)
  let db = Ssd.Syntax.parse_graph {| {entry: {movie: {title: "Casablanca"}}} |} in
  let g =
    Unql.Restructure.short_circuit ~first:(Label.sym "entry") ~second:(Label.sym "movie")
      ~via:(Label.sym "direct") db
  in
  check "shortcut edge added" true
    (Ssd.Bisim.equal g
       (Ssd.Syntax.parse_graph
          {| {entry: {movie: &m {title: "Casablanca"}}, direct: *m} |}));
  (* original paths survive; the shortcut shares the target node *)
  check "idempotent on re-run" true
    (Ssd.Bisim.equal
       (Unql.Restructure.short_circuit ~first:(Label.sym "entry")
          ~second:(Label.sym "movie") ~via:(Label.sym "direct") g)
       g)

let sfun_ill_formed () =
  let rejects code src =
    Alcotest.(check string) (Printf.sprintf "reject %s" src) (code ^ "@-")
      (Gen.outcome (fun () -> run src))
  in
  (* recursive call on something other than the case variable *)
  rejects "SSD306" "let sfun f({\\L: T}) = {L: f({})} in f(DB)";
  (* free variable in the body *)
  rejects "SSD307" "let x = {v} in let sfun f({\\L: T}) = {L: x} in f(DB)"

let sfun_agrees_with_direct =
  [
    qtest "sfun relabel = direct relabel" ~count:30 graph (fun g ->
        let via_q =
          Unql.Eval.run ~db:g (Unql.Restructure.As_query.relabel ~from_:"a" ~to_:"z")
        in
        let direct =
          Unql.Restructure.relabel
            (fun l -> if Label.equal l (Label.sym "a") then Label.sym "z" else l)
            g
        in
        Bisim.equal via_q direct);
    qtest "sfun delete = direct delete" ~count:30 graph (fun g ->
        Bisim.equal
          (Unql.Eval.run ~db:g (Unql.Restructure.As_query.delete ~label:"a"))
          (Unql.Restructure.delete_edges (Label.equal (Label.sym "a")) g));
    qtest "sfun collapse = direct collapse" ~count:30 graph (fun g ->
        Bisim.equal
          (Unql.Eval.run ~db:g (Unql.Restructure.As_query.collapse ~label:"a"))
          (Unql.Restructure.collapse_edges (Label.equal (Label.sym "a")) g));
    qtest "identity sfun is the identity" ~count:30 graph (fun g ->
        Bisim.equal (Unql.Eval.run ~db:g "let sfun f({\\L: T}) = {L: f(T)} in f(DB)") g);
  ]

(* ------------------------------------------------------------------ *)
(* Optimizer                                                           *)
(* ------------------------------------------------------------------ *)

let optimizer_preserves_results () =
  let queries =
    [
      {| select {t: \t} where {<entry.movie>: \m} <- DB, {title.\t} <- m, t != "zzz" |};
      {| select {y: \y} where isint(3), {<_*>.\y} <- DB, isint(y), y > 1 |};
      {| select {x: \a} where {entry._.cast.<(credit)?>.actors.\a} <- DB, startswith(a, "B") |};
    ]
  in
  List.iter
    (fun q ->
      let q = Unql.Parser.parse q in
      check "reorder preserves result" true
        (Bisim.equal (Unql.Eval.eval ~db:fig1 q) (Unql.Eval.eval ~db:fig1 (Unql.Optimize.reorder q))))
    queries

let options_equivalence () =
  let guide = Ssd_schema.Dataguide.build fig1 in
  let q =
    Unql.Parser.parse
      {| select {t: \t} where {entry.movie.title: \x} <- DB, {\t} <- x |}
  in
  let base = Unql.Eval.eval ~db:fig1 q in
  List.iter
    (fun options ->
      check "same result under all option combinations" true
        (Bisim.equal base (Unql.Eval.eval ~options ~db:fig1 q)))
    [
      { Unql.Eval.default_options with reorder_clauses = false; cache_nfa = false };
      { Unql.Eval.default_options with dataguide = Some guide };
      { Unql.Eval.default_options with reorder_clauses = false; dataguide = Some guide };
      { Unql.Eval.default_options with path_index = Some (Ssd_index.Path_index.build ~depth:4 fig1) };
    ]

let guide_pruning () =
  let guide = Ssd_schema.Dataguide.build fig1 in
  let dead = Unql.Parser.parse {| select {x} where {entry.movie.nosuch: \t} <- DB |} in
  let pruned, n = Unql.Optimize.prune_with_guide guide dead in
  check_int "one select pruned" 1 n;
  check "pruned to empty" true (Bisim.equal (Unql.Eval.eval ~db:fig1 pruned) Graph.empty);
  let live = Unql.Parser.parse {| select {x} where {entry.movie.title: \t} <- DB |} in
  let kept, n = Unql.Optimize.prune_with_guide guide live in
  check_int "live select kept" 0 n;
  check "kept query unchanged" true
    (Bisim.equal (Unql.Eval.eval ~db:fig1 kept) (Unql.Eval.eval ~db:fig1 live))

(* ------------------------------------------------------------------ *)
(* Parser round-trips and errors                                       *)
(* ------------------------------------------------------------------ *)

let pretty_roundtrip () =
  List.iter
    (fun src ->
      let q = Unql.Parser.parse src in
      let q' = Unql.Parser.parse (Unql.Pretty.expr_to_string q) in
      check (Printf.sprintf "pretty/parse: %s" src) true
        (Bisim.equal (Unql.Eval.eval ~db:fig1 q) (Unql.Eval.eval ~db:fig1 q')))
    [
      {| select {ti: \t} where {<entry.movie.title>: \t} <- DB |};
      {| let sfun f({movie: T}) = {film: f(T)} | f({\L: T}) = {L: f(T)} in f(DB) |};
      {| if isempty(DB) then {} else {nonempty} |};
      {| select {a: \l, b: t} where {\l: \t} <- DB, {\l2.<(~x)*>} <- DB, l = l2, not (l = title) |};
      {| {lit: "s", n: 42, f: {}} union {g} |};
    ]

let parse_errors () =
  List.iter
    (fun (src, expected) ->
      Alcotest.(check string) (Printf.sprintf "reject %s" src) expected
        (Gen.outcome (fun () -> Unql.Parser.parse src)))
    [
      ("", "SSD001@1:1");
      (* missing where *)
      ("select {x}", "SSD001@1:11");
      ("select {x} where", "SSD001@1:17");
      ("let x = {} in", "SSD001@1:14");
      ("{a: }", "SSD001@1:5");
      (* mixed names *)
      ("let sfun f({a: T}) = {} | g({b: T}) = {} in f(DB)", "SSD001@1:27");
      (* cond expected *)
      ("if {} then {a} else {b}", "SSD001@1:4");
      (* a regex error points into the whole query, under the query's code *)
      ("select {t: \\T} where\n  {<a.(b|>: \\T} <- DB", "SSD001@2:11");
    ]

let runtime_errors () =
  let rejects code src =
    Alcotest.(check string) (Printf.sprintf "runtime reject %s" src) (code ^ "@-")
      (Gen.outcome (fun () -> run src))
  in
  rejects "SSD303" "undefined_variable";
  rejects "SSD305" "undefined_fun({})";
  (* head variable never bound by any generator *)
  rejects "SSD303" {| select t where {entry: _} <- DB |}

let tree_var_in_label_position () =
  Alcotest.(check string) "tree variable in label position rejected" "SSD304@-"
    (Gen.outcome (fun () -> run {| select {t: {x}} where {entry: \t} <- DB |}))

(* ------------------------------------------------------------------ *)
(* Store                                                               *)
(* ------------------------------------------------------------------ *)

let store_basics () =
  let st = Unql.Store.create () in
  let r1 = Unql.Store.import st fig1 in
  let r2 = Unql.Store.import st fig1 in
  check_int "import memoized on identity" r1 r2;
  let n = Unql.Store.add_node st in
  Unql.Store.add_edge st n (Label.sym "wrap") r1;
  let g = Unql.Store.to_graph st ~root:n in
  check "snapshot contains the db" true
    (Bisim.equal g (Graph.edge (Label.sym "wrap") fig1))

let store_eps () =
  let st = Unql.Store.create () in
  let a = Unql.Store.add_node st in
  let b = Unql.Store.add_node st in
  let c = Unql.Store.add_node st in
  Unql.Store.add_eps st a b;
  Unql.Store.add_edge st b (Label.sym "x") c;
  check_int "labeled_succ through eps" 1 (List.length (Unql.Store.labeled_succ st a))

(* A store overlaid on [g] reads exactly what a store holding a copy of
   [g] at offset 0 holds, before and after the same arena growth; and
   the base is read-only.  [ops] adds arena nodes with edges from the
   new nodes into the base and among themselves. *)
let overlay_equals_copy =
  let arena_op = Q.triple (Q.int_range 0 50) (Q.option (Q.map Label.sym small_symbol)) (Q.int_range 0 50) in
  qtest "store overlay = imported copy" ~count:200
    (Q.pair eps_graph (Q.pair (Q.int_range 1 4) (Q.list_size (Q.int_range 0 10) arena_op)))
    (fun (g, (n_new, ops)) ->
      let module S = Unql.Store in
      let overlay = S.create ~base:g () in
      let copy = S.create () in
      let same_root = S.import overlay g = Graph.root g && S.import copy g = Graph.root g in
      let grow st =
        let fresh = List.init n_new (fun _ -> S.add_node st) in
        let n = S.n_nodes st in
        List.iter
          (fun (i, l, j) ->
            let u = List.nth fresh (i mod n_new) and v = j mod n in
            match l with Some l -> S.add_edge st u l v | None -> S.add_eps st u v)
          ops;
        List.hd fresh
      in
      let reads_agree () =
        S.n_nodes overlay = S.n_nodes copy
        && List.for_all
             (fun u ->
               S.succ overlay u = S.succ copy u && S.labeled_succ overlay u = S.labeled_succ copy u)
             (List.init (S.n_nodes copy) Fun.id)
      in
      let before = reads_agree () in
      let r1 = grow overlay and r2 = grow copy in
      let after = reads_agree () in
      let g1 = S.to_graph overlay ~root:r1 and g2 = S.to_graph copy ~root:r2 in
      let base_read_only =
        match S.add_edge overlay (Graph.root g) (Label.sym "x") r1 with
        | exception Invalid_argument _ -> true
        | () -> false
      in
      same_root && before && after && r1 = r2
      && Graph.to_string g1 = Graph.to_string g2
      && Graph.n_nodes g1 = Graph.n_nodes g2
      && base_read_only)

let tests =
  [
    Alcotest.test_case "constructors" `Quick constructors;
    Alcotest.test_case "label literal leaves" `Quick label_literal_leaves;
    Alcotest.test_case "select basics" `Quick select_basics;
    Alcotest.test_case "select conditions" `Quick select_conditions;
    Alcotest.test_case "select patterns" `Quick select_patterns;
    Alcotest.test_case "select empty when no match" `Quick select_empty_when_no_match;
    Alcotest.test_case "nested select" `Quick nested_select;
    Alcotest.test_case "regex patterns" `Quick regex_patterns;
    Alcotest.test_case "browsing queries" `Quick browsing_queries;
    Alcotest.test_case "sfun on finite data" `Quick sfun_on_finite_data;
    Alcotest.test_case "sfun well-defined on cycles" `Quick sfun_well_defined_on_cycles;
    Alcotest.test_case "sfun delete and collapse" `Quick sfun_delete_and_collapse;
    Alcotest.test_case "sfun case order" `Quick sfun_case_order;
    Alcotest.test_case "sfun unmatched edges vanish" `Quick sfun_unmatched_edges_vanish;
    Alcotest.test_case "sfun composition" `Quick sfun_composition;
    Alcotest.test_case "short circuit" `Quick short_circuit;
    Alcotest.test_case "sfun ill-formed" `Quick sfun_ill_formed;
    Alcotest.test_case "optimizer preserves results" `Quick optimizer_preserves_results;
    Alcotest.test_case "options equivalence" `Quick options_equivalence;
    Alcotest.test_case "guide pruning" `Quick guide_pruning;
    Alcotest.test_case "pretty/parse round-trip" `Quick pretty_roundtrip;
    Alcotest.test_case "parse errors" `Quick parse_errors;
    Alcotest.test_case "runtime errors" `Quick runtime_errors;
    Alcotest.test_case "tree var in label position" `Quick tree_var_in_label_position;
    Alcotest.test_case "store basics" `Quick store_basics;
    Alcotest.test_case "store eps" `Quick store_eps;
  ]
  @ sfun_agrees_with_direct
  @ [ overlay_equals_copy ]
