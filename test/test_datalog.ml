module Label = Ssd.Label
module Datalog = Relstore.Datalog
module Triple = Relstore.Triple
module Graph = Ssd.Graph
open Gen

let check = Alcotest.(check bool)
let no_facts = Datalog.edb_of_list []
let check_int = Alcotest.(check int)

let sort_tuples = List.sort_uniq compare
let norm r = List.map (fun (p, ts) -> (p, sort_tuples ts)) r

let parse_and_print () =
  let p =
    Datalog.parse
      {| % a comment
         tc(?X, ?Y) :- edge(?X, _, ?Y).
         tc(?X, ?Z) :- tc(?X, ?Y), edge(?Y, _, ?Z).
         big(?N)    :- tc(?X, ?N), ?N > 65536.
         odd(?X)    :- node(?X), not even(?X).
         fact(a, "s", 42). |}
  in
  check_int "five rules" 5 (List.length p);
  (* pp then re-parse is stable *)
  let printed = Format.asprintf "%a" Datalog.pp_program p in
  check "pp/parse stable" true (Datalog.parse printed = p)

(* A syntax error's span starts at the failing offset. *)
let parse_errors () =
  List.iter
    (fun (src, expected) ->
      Alcotest.(check string) (Printf.sprintf "reject %s" src) expected
        (Gen.outcome (fun () -> Datalog.parse src)))
    [
      ("p(?X) :- edge(?X ?L, ?Y).", "SSD003@1:18");
      ("p(?X :-", "SSD003@1:6");
      ("p(?X) :- q(?X)", "SSD003@1:15");
      ("% a comment\np(X) :- !", "SSD003@2:9");
      ("p(?) :- q(1.5.).", "SSD003@1:4");
    ]

let safety () =
  let rejects name code src =
    Alcotest.(check string) name (code ^ "@-")
      (Gen.outcome (fun () -> Datalog.eval ~edb:no_facts (Datalog.parse src)))
  in
  rejects "head var unbound" "SSD201" "p(?X) :- q(?Y).";
  rejects "negated var unbound" "SSD202" "p(?X) :- q(?X), not r(?Z).";
  rejects "compared var unbound" "SSD203" "p(?X) :- q(?X), ?Z > 1."

let stratification () =
  Alcotest.(check string) "negation through recursion rejected" "SSD210@-"
    (Gen.outcome (fun () ->
         Datalog.eval ~edb:no_facts (Datalog.parse "p(?X) :- q(?X), not p(?X).")));
  let p =
    Datalog.parse
      {| reach(?X) :- start(?X).
         reach(?Y) :- reach(?X), e(?X, ?Y).
         unreach(?X) :- node(?X), not reach(?X). |}
  in
  check_int "two strata" 2 (Datalog.n_strata p)

let edb_chain n =
  Datalog.edb_of_list
    [
      ("e", List.init (n - 1) (fun i -> [ Label.int i; Label.int (i + 1) ]));
      ("start", [ [ Label.int 0 ] ]);
      ("node", List.init n (fun i -> [ Label.int i ]));
    ]

let transitive_closure () =
  let program =
    Datalog.parse
      {| reach(?X) :- start(?X).
         reach(?Y) :- reach(?X), e(?X, ?Y). |}
  in
  let result = Datalog.query ~edb:(edb_chain 50) program "reach" in
  check_int "all 50 reached" 50 (List.length result)

let stratified_negation () =
  let program =
    Datalog.parse
      {| reach(?X) :- start(?X).
         reach(?Y) :- reach(?X), e(?X, ?Y).
         unreach(?X) :- node(?X), not reach(?X). |}
  in
  let edb =
    Datalog.edb_of_list
      [
        ("e", [ [ Label.int 0; Label.int 1 ] ]);
        ("start", [ [ Label.int 0 ] ]);
        ("node", [ [ Label.int 0 ]; [ Label.int 1 ]; [ Label.int 2 ]; [ Label.int 3 ] ]);
      ]
  in
  check "unreachable = {2,3}" true
    (sort_tuples (Datalog.query ~edb program "unreach")
    = [ [ Label.int 2 ]; [ Label.int 3 ] ])

let comparisons () =
  let program = Datalog.parse {| big(?X) :- n(?X), ?X > 10. eq(?X) :- n(?X), ?X = 5. |} in
  let edb = Datalog.edb_of_list [ ("n", List.init 20 (fun i -> [ Label.int i ])) ] in
  check_int "nine big" 9 (List.length (Datalog.query ~edb program "big"));
  check_int "one eq" 1 (List.length (Datalog.query ~edb program "eq"))

let facts_and_constants () =
  let program =
    Datalog.parse
      {| color(red). color(blue).
         nice(?C) :- color(?C), ?C != red. |}
  in
  check "blue is nice" true
    (Datalog.query ~edb:no_facts program "nice" = [ [ Label.sym "blue" ] ])

let missing_predicate_is_empty () =
  let program = Datalog.parse "p(?X) :- q(?X)." in
  check "no q facts, empty p" true (Datalog.query ~edb:no_facts program "p" = []);
  check "unknown predicate" true (Datalog.query ~edb:no_facts program "zzz" = [])

let cyclic_graph_reachability () =
  let g = Ssd.Syntax.parse_graph "&r {a: {b: *r}, c: {}}" in
  let program =
    Datalog.parse
      {| reach(?X) :- root(?X).
         reach(?Y) :- reach(?X), edge(?X, ?L, ?Y). |}
  in
  let n = List.length (Datalog.query ~edb:(Triple.edb g) program "reach") in
  check_int "terminates on cycles, finds all" (Graph.n_nodes (Graph.eps_eliminate g)) n

(* Programs the shared-EDB property runs in sequence over one EDB; the
   symbol [LBL] stands for a generated label constant. *)
let edb_programs =
  List.map Datalog.parse
    [
      (* full scan: no bound position *)
      {| all(?X, ?L, ?Y) :- edge(?X, ?L, ?Y). |};
      (* probes on a constant, then on a bound variable *)
      {| hop(?Y, ?Z) :- edge(?X, LBL, ?Y), edge(?Y, ?L, ?Z). |};
      (* recursion *)
      {| reach(?X) :- root(?X).
         reach(?Y) :- reach(?X), edge(?X, ?L, ?Y). |};
      {| tc(?X, ?Y) :- edge(?X, ?L, ?Y).
         tc(?X, ?Z) :- tc(?X, ?Y), edge(?Y, ?L, ?Z). |};
      (* negation over edge and root *)
      {| oneway(?X, ?Y) :- edge(?X, ?L, ?Y), not edge(?Y, ?L, ?X).
         src(?X) :- edge(?X, ?L, ?Y).
         leaf(?Y) :- edge(?X, ?L, ?Y), not src(?Y).
         inner(?X) :- edge(?X, ?L, ?Y), not root(?X). |};
      (* heads naming EDB predicates *)
      {| edge(?Y, LBL, ?X) :- edge(?X, ?L, ?Y).
         back(?X, ?Y) :- edge(?X, LBL, ?Y). |};
      {| root(?Y) :- root(?X), edge(?X, ?L, ?Y).
         top(?X) :- root(?X). |};
      (* a mixed-arity predicate, nullary tuple included *)
      {| m0() :- mix().
         m1(?X) :- mix(?X).
         m2(?X, ?L) :- mix(?X, ?L).
         m3(?X, ?L) :- mix(?X, ?L), not mix(?X).
         m4(?X) :- mix(?X, LBL, ?Y).
         m5(?X) :- root(?X), not mix(). |};
      (* comparisons *)
      {| big(?L) :- edge(?X, ?L, ?Y), ?L > LBL. |};
    ]

let with_label l program =
  let term = function Datalog.Const (Label.Sym "LBL") -> Datalog.Const l | t -> t in
  let atom (a : Datalog.atom) = { a with Datalog.args = List.map term a.args } in
  let literal = function
    | Datalog.Pos a -> Datalog.Pos (atom a)
    | Datalog.Neg a -> Datalog.Neg (atom a)
    | Datalog.Cmp (op, t1, t2) -> Datalog.Cmp (op, term t1, term t2)
  in
  List.map
    (fun (r : Datalog.rule) -> { Datalog.head = atom r.head; body = List.map literal r.body })
    program

(* The triple encoding (as {!Triple.edb} builds it) plus a mixed-arity
   [mix] and a second [root] entry (a predicate listed twice is the
   union of its entries). *)
let edb_tuples g =
  let g = Graph.eps_eliminate g in
  let edge =
    Graph.fold_labeled_edges (fun acc u l v -> [ Label.Int u; l; Label.Int v ] :: acc) [] g
  in
  let mix =
    []
    :: List.concat_map
         (function [ u; l; v ] -> [ [ v ]; [ u; l ]; [ u; l; v ]; [ v ] ] | t -> [ t ])
         edge
  in
  [
    ("edge", edge);
    ("root", [ [ Label.Int (Graph.root g) ] ]);
    ("mix", mix);
    ("root", [ [ Label.int 0 ] ]);
  ]

(* Does a positive body literal read a predicate the program derives? *)
let recursive program =
  let heads = List.map (fun (r : Datalog.rule) -> r.head.pred) program in
  List.exists
    (fun (r : Datalog.rule) ->
      List.exists (function Datalog.Pos a -> List.mem a.Datalog.pred heads | _ -> false) r.body)
    program

(* One EDB shared by a sequence of evaluations answers each exactly as
   an EDB built afresh for it: no evaluation writes the EDB (heads naming
   [edge]/[root] included), tuple order and budget outcomes agree.  A
   complete answer also equals [eval_naive]'s, which reads mutable copies
   of every EDB predicate: in content, and for a program without
   positive recursion (naive's first pass is then semi-naive's round 0)
   in tuple order too, so the frozen relations enumerate exactly as
   mutable sets do. *)
let shared_edb_is_fresh =
  qtest "shared EDB = fresh EDB, tuple order and budget included" ~count:80
    QCheck2.Gen.(
      quad graph
        (list_size (int_range 1 6)
           (pair (int_range 0 (List.length edb_programs - 1)) label))
        (oneofl [ 1; 4 ])
        (opt (int_range 1 300)))
    (fun (g, picks, jobs, max_steps) ->
      let tuples = edb_tuples g in
      let shared = Datalog.edb_of_list tuples in
      let same program =
        let fresh = Datalog.edb_of_list tuples in
        match max_steps with
        | None ->
          let answer = Datalog.eval ~edb:shared program in
          let naive = Datalog.eval_naive ~edb:shared program in
          answer = Datalog.eval ~edb:fresh program
          && if recursive program then norm answer = norm naive else answer = naive
        | Some max_steps ->
          let b1 = Ssd.Budget.create ~max_steps () and b2 = Ssd.Budget.create ~max_steps () in
          Datalog.eval_outcome ~budget:b1 ~edb:shared program
          = Datalog.eval_outcome ~budget:b2 ~edb:fresh program
      in
      let programs =
        List.map (fun (i, l) -> with_label l (List.nth edb_programs i)) picks
        (* the shared EDB is still the original after every program *)
        @ [ List.hd edb_programs; Datalog.parse "top(?X) :- root(?X)." ]
      in
      Ssd_par.Pool.set_default_jobs jobs;
      Fun.protect
        ~finally:(fun () -> Ssd_par.Pool.set_default_jobs 1)
        (fun () -> List.for_all same programs))

let properties =
  [
    shared_edb_is_fresh;
    qtest "semi-naive = naive on random graphs" ~count:60 graph (fun g ->
        let program =
          Datalog.parse
            {| reach(?X) :- root(?X).
               reach(?Y) :- reach(?X), edge(?X, ?L, ?Y).
               sym(?L)   :- edge(?X, ?L, ?Y).
               far(?Y)   :- reach(?X), edge(?X, ?L, ?Y), edge(?Y, ?L2, ?Z), ?L != ?L2. |}
        in
        let edb = Triple.edb g in
        norm (Datalog.eval ~edb program) = norm (Datalog.eval_naive ~edb program));
    qtest "datalog reach = graph reachability" ~count:60 graph (fun g ->
        let program =
          Datalog.parse
            {| reach(?X) :- root(?X).
               reach(?Y) :- reach(?X), edge(?X, ?L, ?Y). |}
        in
        let n = List.length (Datalog.query ~edb:(Triple.edb g) program "reach") in
        n = Graph.n_nodes (Graph.eps_eliminate g));
    qtest "regular path via datalog = product" ~count:40 graph (fun g ->
        (* reach over only 'a'-labeled edges *)
        let program =
          Datalog.parse
            {| r(?X) :- root(?X).
               r(?Y) :- r(?X), edge(?X, a, ?Y). |}
        in
        let from_datalog =
          Datalog.query ~edb:(Triple.edb g) program "r"
          |> List.filter_map (function [ Label.Int n ] -> Some n | _ -> None)
          |> List.sort_uniq compare
        in
        let g' = Graph.eps_eliminate g in
        let from_product =
          Ssd_automata.Product.accepting_nodes g' (Ssd_automata.Nfa.of_string "(a)*")
          |> List.sort_uniq compare
        in
        from_datalog = from_product);
  ]

let tests =
  [
    Alcotest.test_case "parse and print" `Quick parse_and_print;
    Alcotest.test_case "parse errors" `Quick parse_errors;
    Alcotest.test_case "safety" `Quick safety;
    Alcotest.test_case "stratification" `Quick stratification;
    Alcotest.test_case "transitive closure" `Quick transitive_closure;
    Alcotest.test_case "stratified negation" `Quick stratified_negation;
    Alcotest.test_case "comparisons" `Quick comparisons;
    Alcotest.test_case "facts and constants" `Quick facts_and_constants;
    Alcotest.test_case "missing predicate is empty" `Quick missing_predicate_is_empty;
    Alcotest.test_case "cyclic graph reachability" `Quick cyclic_graph_reachability;
  ]
  @ properties
