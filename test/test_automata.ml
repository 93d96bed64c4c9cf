module Label = Ssd.Label
module Lpred = Ssd_automata.Lpred
module Regex = Ssd_automata.Regex
module Nfa = Ssd_automata.Nfa
module Dfa = Ssd_automata.Dfa
module Product = Ssd_automata.Product
module Graph = Ssd.Graph
open Gen

let check = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Label predicates                                                    *)
(* ------------------------------------------------------------------ *)

let predicate_basics () =
  let m p l = Lpred.matches p l in
  check "any" true (m Lpred.Any (Label.int 1));
  check "exact" true (m (Lpred.Exact (Label.sym "movie")) (Label.sym "movie"));
  check "exact rejects" false (m (Lpred.Exact (Label.sym "movie")) (Label.str "movie"));
  check "of_type" true (m (Lpred.Of_type "int") (Label.int 5));
  check "startswith sym" true (m (Lpred.Starts_with "act") (Label.sym "actors"));
  check "startswith str" true (m (Lpred.Starts_with "Casa") (Label.str "Casablanca"));
  check "startswith rejects int" false (m (Lpred.Starts_with "1") (Label.int 12));
  check "contains" true (m (Lpred.Contains "sab") (Label.str "Casablanca"));
  check "not" true (m (Lpred.Not (Lpred.Exact (Label.sym "a"))) (Label.sym "b"));
  check "and" true
    (m (Lpred.And (Lpred.Of_type "int", Lpred.Gt (Label.int 10))) (Label.int 11));
  check "or" true
    (m (Lpred.Or (Lpred.Exact (Label.sym "a"), Lpred.Exact (Label.sym "b"))) (Label.sym "b"))

let numeric_comparisons () =
  let m p l = Lpred.matches p l in
  check "int > int" true (m (Lpred.Gt (Label.int 65536)) (Label.int 70000));
  check "int/float promote" true (m (Lpred.Gt (Label.int 1)) (Label.float 1.5));
  check "string order" true (m (Lpred.Lt (Label.str "b")) (Label.str "a"));
  (* no silly cross-type matches *)
  check "string vs int never orders" false (m (Lpred.Gt (Label.int 0)) (Label.str "zzz"))

(* ------------------------------------------------------------------ *)
(* Regexes                                                             *)
(* ------------------------------------------------------------------ *)

let word_of_syms s = List.map Label.sym s

let regex_matching () =
  let m src w = Regex.matches (Regex.parse src) (word_of_syms w) in
  check "literal path" true (m "entry.movie.title" [ "entry"; "movie"; "title" ]);
  check "wrong path" false (m "entry.movie.title" [ "entry"; "movie" ]);
  check "star empty" true (m "(link)*" []);
  check "star many" true (m "(link)*" [ "link"; "link"; "link" ]);
  check "plus not empty" false (m "(link)+" []);
  check "opt" true (m "a.(b)?.c" [ "a"; "c" ]);
  check "alt" true (m "(movie|tvshow).title" [ "tvshow"; "title" ]);
  check "negation" false (m "(~movie)*" [ "a"; "movie"; "b" ]);
  check "negation passes" true (m "(~movie)*" [ "a"; "b" ]);
  check "underscore" true (m "_._" [ "x"; "y" ]);
  check "conjunction of preds" true
    (m "(#symbol & startswith(\"act\"))" [ "actors" ])

let regex_parse_errors () =
  List.iter
    (fun (src, expected) ->
      Alcotest.(check string) (Printf.sprintf "reject %s" src) expected
        (Gen.outcome (fun () -> Regex.parse src)))
    [
      ("", "SSD006@1:1");
      ("(", "SSD006@1:2");
      ("a |", "SSD006@1:4");
      ("a..", "SSD006@1:3");
      ("*", "SSD006@1:1");
      ("startswith(act)", "SSD006@1:12");
    ]

let alphabet_syms = List.map Label.sym [ "a"; "b"; "c"; "movie"; "title"; "x" ]

let minimize_all_accepting_regression () =
  (* Regression: an all-accepting DFA (e.g. of {eps, len-1, len-2 words})
     starts with a non-dense block labeling; the early version of
     minimize stopped refining one round early and merged the length
     counter, accepting words of every length. *)
  let r = Regex.parse "((((~_)*|_)._))?" in
  let dfa = Dfa.of_nfa ~alphabet:alphabet_syms (Nfa.of_regex r) in
  let mdfa = Dfa.minimize dfa in
  List.iter
    (fun w ->
      check
        (Printf.sprintf "same verdict on %d-letter word" (List.length w))
        true
        (Dfa.matches mdfa w = Dfa.matches dfa w))
    [ []; [ Label.sym "a" ]; List.init 2 (fun _ -> Label.sym "a");
      List.init 3 (fun _ -> Label.sym "a") ]

let nullable_and_deriv () =
  let r = Regex.parse "a.(b)*" in
  check "not nullable" false (Regex.nullable r);
  let r' = Regex.deriv r (Label.sym "a") in
  check "deriv nullable" true (Regex.nullable r');
  check "deriv b stays" true (Regex.nullable (Regex.deriv r' (Label.sym "b")));
  check "deriv dead" false (Regex.nullable (Regex.deriv r' (Label.sym "c")))

(* ------------------------------------------------------------------ *)
(* NFA / DFA                                                           *)
(* ------------------------------------------------------------------ *)

let automata_properties =
  [
    qtest "NFA agrees with regex derivatives" ~count:200
      (Q.pair regex word)
      (fun (r, w) -> Nfa.matches (Nfa.of_regex r) w = Regex.matches r w);
    qtest "DFA agrees with NFA over the alphabet" ~count:200
      (Q.pair regex word)
      (fun (r, w) ->
        let nfa = Nfa.of_regex r in
        let dfa = Dfa.of_nfa ~alphabet:alphabet_syms nfa in
        Dfa.matches dfa w = Nfa.matches nfa w);
    qtest "minimization preserves the language" ~count:200
      (Q.pair regex word)
      (fun (r, w) ->
        let dfa = Dfa.of_nfa ~alphabet:alphabet_syms (Nfa.of_regex r) in
        Dfa.matches (Dfa.minimize dfa) w = Dfa.matches dfa w);
    qtest "minimization never grows" regex (fun r ->
        let dfa = Dfa.of_nfa ~alphabet:alphabet_syms (Nfa.of_regex r) in
        Dfa.n_states (Dfa.minimize dfa) <= Dfa.n_states dfa);
    qtest "closures match eps_closure" regex (fun r ->
        let nfa = Nfa.of_regex r in
        let closures = Nfa.closures nfa in
        let ok = ref true in
        for q = 0 to nfa.Nfa.n - 1 do
          if closures.(q) <> Nfa.eps_closure nfa [ q ] then ok := false
        done;
        !ok);
    qtest "pp/parse preserves the language" ~count:200 ~print:(fun (r, _) -> Ssd_automata.Regex.to_string r) (Q.pair regex word) (fun (r, w) ->
        match Regex.parse (Regex.to_string r) with
        | r' -> Regex.matches r' w = Regex.matches r w
        | exception Ssd_diag.Fail _ -> false);
  ]

(* ------------------------------------------------------------------ *)
(* Product: regular path queries on graphs                             *)
(* ------------------------------------------------------------------ *)

let product_on_figure1 () =
  let db = Ssd_workload.Movies.figure1 () in
  let hits = Product.accepting_nodes db (Nfa.of_string {| _* . "Casablanca" |}) in
  Alcotest.(check int) "Casablanca reached at 2 nodes" 2 (List.length hits);
  let witness = Product.witness db (Nfa.of_string {| _* . "Casablanca" |}) (List.hd hits) in
  check "witness exists" true (witness <> None);
  (* witness path must end with the Casablanca label *)
  (match witness with
   | Some path ->
     check "witness ends at needle" true
       (List.nth path (List.length path - 1) = Label.str "Casablanca")
   | None -> ())

let product_terminates_on_cycles () =
  let g = Ssd.Syntax.parse_graph "&r {a: *r}" in
  let hits = Product.accepting_nodes g (Nfa.of_string "(a)*") in
  Alcotest.(check int) "one node, always accepting" 1 (List.length hits)

let product_properties =
  [
    qtest "product = derivative search on graphs" ~count:100
      (Q.pair graph regex)
      (fun (g, r) ->
        Product.accepting_nodes g (Nfa.of_regex r) = Product.accepting_nodes_deriv g r);
    qtest "product = DFA product on graphs" ~count:100
      (Q.pair graph regex)
      (fun (g, r) ->
        let nfa = Nfa.of_regex r in
        let dfa = Dfa.of_nfa ~alphabet:(Product.alphabet g) nfa in
        Product.accepting_nodes g nfa = Product.accepting_nodes_dfa g dfa);
    qtest "witness path is accepted and reaches its node" ~count:60
      (Q.pair graph regex)
      (fun (g, r) ->
        let nfa = Nfa.of_regex r in
        List.for_all
          (fun node ->
            match Product.witness g nfa node with
            | None -> false
            | Some path ->
              Regex.matches r path
              && List.mem node (Ssd_index.Path_index.traverse g path))
          (Product.accepting_nodes g nfa));
    qtest "accepting nodes from root subset of reachable" (Q.pair graph regex)
      (fun (g, r) ->
        let reach = Graph.reachable g in
        List.for_all (fun u -> reach.(u)) (Product.accepting_nodes g (Nfa.of_regex r)));
  ]

let tests =
  [
    Alcotest.test_case "predicate basics" `Quick predicate_basics;
    Alcotest.test_case "numeric comparisons" `Quick numeric_comparisons;
    Alcotest.test_case "regex matching" `Quick regex_matching;
    Alcotest.test_case "regex parse errors" `Quick regex_parse_errors;
    Alcotest.test_case "minimize regression: all-accepting DFA" `Quick
      minimize_all_accepting_regression;
    Alcotest.test_case "nullable and derivatives" `Quick nullable_and_deriv;
    Alcotest.test_case "product on figure 1" `Quick product_on_figure1;
    Alcotest.test_case "product terminates on cycles" `Quick product_terminates_on_cycles;
  ]
  @ automata_properties @ product_properties
