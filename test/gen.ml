(* QCheck generators shared by the property-based suites. *)

module Label = Ssd.Label
module Tree = Ssd.Tree
module Graph = Ssd.Graph
module Q = QCheck2.Gen

let small_symbol = Q.oneofl [ "a"; "b"; "c"; "movie"; "title"; "x" ]

(* Finite floats that stress exact printing: more than 12 significant
   digits, exponents, -0.0, a denormal and the extremes. *)
let floats =
  Q.oneof
    [
      Q.oneofl
        [ 0.0; 1.5; -2.25; 1e6; 0.1; 1. /. 3.; 0.1234567890123; -0.0; 1e16; 1e-7;
          123456789.123456; 5e-324; max_float; -.min_float ];
      Q.map (fun (m, e) -> ldexp m e) (Q.pair (Q.float_range (-1.) 1.) (Q.int_range (-60) 60));
    ]

let label : Label.t Q.t =
  Q.oneof
    [
      Q.map Label.int (Q.int_range (-50) 50);
      Q.map Label.float floats;
      Q.map Label.str (Q.oneofl [ ""; "hi"; "Casablanca"; "a b"; "quo\"te"; "\\slash"; "tab\there" ]);
      Q.map Label.bool Q.bool;
      Q.map Label.sym small_symbol;
    ]

(* The outcome of a front-end call, for golden diagnostics: "ok", or
   "SSDxxx@line:col" for an [Ssd_diag.Fail] (the span's start; "-" when
   it has none), or the name of any other exception. *)
let outcome f =
  match f () with
  | _ -> "ok"
  | exception Ssd_diag.Fail d ->
    d.Ssd_diag.code
    ^ (match d.Ssd_diag.span with
      | Some s -> Printf.sprintf "@%d:%d" s.Ssd_diag.line s.Ssd_diag.col
      | None -> "@-")
  | exception e -> Printexc.to_string e

(* Trees: size-bounded, branching limited so canonical forms stay small. *)
let tree : Tree.t Q.t =
  let open Q in
  sized
  @@ fix (fun self n ->
         if n <= 0 then pure Tree.empty
         else
           let* width = int_range 0 (min 3 n) in
           let* edges = list_repeat width (pair label (self (n / 2))) in
           pure (Tree.of_edges edges))

(* Rooted graphs, possibly cyclic: n nodes, random labeled edges among
   them, node 0 the root, with a spine making most nodes reachable. *)
let graph : Graph.t Q.t =
  let open Q in
  let* n = int_range 1 12 in
  let* spine = list_repeat (n - 1) label in
  let* extra = int_range 0 (2 * n) in
  let* edges = list_repeat extra (triple (int_range 0 (n - 1)) label (int_range 0 (n - 1))) in
  pure
    (let b = Graph.Builder.create () in
     for _ = 1 to n do
       ignore (Graph.Builder.add_node b)
     done;
     Graph.Builder.set_root b 0;
     List.iteri (fun i l -> Graph.Builder.add_edge b i l (i + 1)) spine;
     List.iter (fun (u, l, v) -> Graph.Builder.add_edge b u l v) edges;
     Graph.gc (Graph.Builder.finish b))

(* Like [graph], plus up to [n] random ε-edges (self-loops and ε-cycles
   included). *)
let eps_graph : Graph.t Q.t =
  let open Q in
  let* n = int_range 1 12 in
  let* spine = list_repeat (n - 1) label in
  let* extra = int_range 0 (2 * n) in
  let* edges = list_repeat extra (triple (int_range 0 (n - 1)) label (int_range 0 (n - 1))) in
  let* n_eps = int_range 0 n in
  let* eps = list_repeat n_eps (pair (int_range 0 (n - 1)) (int_range 0 (n - 1))) in
  pure
    (let b = Graph.Builder.create () in
     for _ = 1 to n do
       ignore (Graph.Builder.add_node b)
     done;
     Graph.Builder.set_root b 0;
     List.iteri (fun i l -> Graph.Builder.add_edge b i l (i + 1)) spine;
     List.iter (fun (u, l, v) -> Graph.Builder.add_edge b u l v) edges;
     List.iter (fun (u, v) -> Graph.Builder.add_eps b u v) eps;
     Graph.gc (Graph.Builder.finish b))

(* Acyclic rooted graphs (DAGs): edges only point to higher ids. *)
let dag : Graph.t Q.t =
  let open Q in
  let* n = int_range 1 12 in
  let* spine = list_repeat (n - 1) label in
  let* extra = int_range 0 (2 * n) in
  let* edges =
    list_repeat extra (triple (int_range 0 (n - 1)) label (int_range 0 (n - 1)))
  in
  pure
    (let b = Graph.Builder.create () in
     for _ = 1 to n do
       ignore (Graph.Builder.add_node b)
     done;
     Graph.Builder.set_root b 0;
     List.iteri (fun i l -> Graph.Builder.add_edge b i l (i + 1)) spine;
     List.iter
       (fun (u, l, v) -> if u < v then Graph.Builder.add_edge b u l v)
       edges;
     Graph.gc (Graph.Builder.finish b))

(* Regexes over a small symbol alphabet plus a few predicates. *)
let regex : Ssd_automata.Regex.t Q.t =
  let module R = Ssd_automata.Regex in
  let module P = Ssd_automata.Lpred in
  let open Q in
  let atom =
    oneof
      [
        Q.map (fun s -> R.Atom (P.Exact (Label.Sym s))) small_symbol;
        pure (R.Atom P.Any);
        Q.map (fun s -> R.Atom (P.Not (P.Exact (Label.Sym s)))) small_symbol;
        pure (R.Atom (P.Of_type "symbol"));
        pure R.Eps;
      ]
  in
  sized_size (int_range 0 8)
  @@ fix (fun self n ->
         if n <= 1 then atom
         else
           oneof
             [
               atom;
               Q.map2 (fun a b -> R.Seq (a, b)) (self (n / 2)) (self (n / 2));
               Q.map2 (fun a b -> R.Alt (a, b)) (self (n / 2)) (self (n / 2));
               Q.map (fun a -> R.Star a) (self (n / 2));
               Q.map (fun a -> R.Plus a) (self (n / 2));
               Q.map (fun a -> R.Opt a) (self (n / 2));
             ])

(* Words over the same small alphabet (so regex matches are non-trivial). *)
let word : Label.t list Q.t =
  Q.list_size (Q.int_range 0 6) (Q.map Label.sym small_symbol)

(* JSON documents. *)
let json : Ssd.Json.t Q.t =
  let module J = Ssd.Json in
  let open Q in
  let scalar =
    oneof
      [
        pure J.Null;
        Q.map (fun b -> J.Bool b) bool;
        Q.map (fun i -> J.Int i) (int_range (-1000) 1000);
        Q.map (fun s -> J.String s) (oneofl [ ""; "x"; "hello world"; "\"q\"" ]);
      ]
  in
  sized
  @@ fix (fun self n ->
         if n <= 0 then scalar
         else
           oneof
             [
               scalar;
               Q.map (fun l -> J.List l) (list_size (int_range 0 4) (self (n / 2)));
               Q.map
                 (fun kvs ->
                   (* JSON objects need distinct keys. *)
                   let seen = Hashtbl.create 4 in
                   J.Obj
                     (List.filter
                        (fun (k, _) ->
                          if Hashtbl.mem seen k then false
                          else begin
                            Hashtbl.add seen k ();
                            true
                          end)
                        kvs))
                 (list_size (int_range 0 4)
                    (pair (oneofl [ "k1"; "k2"; "key"; "nested" ]) (self (n / 2))));
             ])

(* Small random relations for the RA algebra laws. *)
let relation attrs : Relstore.Relation.t Q.t =
  let open Q in
  let arity = List.length attrs in
  let* rows = list_size (int_range 0 8) (list_repeat arity label) in
  pure (Relstore.Relation.of_rows attrs (List.map Array.of_list rows))

(* Literal symbol paths over the small alphabet (for the differential
   path-query suites). *)
let sym_path : Label.t list Q.t =
  Q.list_size (Q.int_range 1 3) (Q.map Label.sym small_symbol)

(* A smaller regex than {!regex}: exact-symbol and wildcard atoms only,
   so the same path query can be phrased in Lorel and datalog. *)
let small_regex : Ssd_automata.Regex.t Q.t =
  let module R = Ssd_automata.Regex in
  let module P = Ssd_automata.Lpred in
  let open Q in
  let atom =
    oneof
      [
        Q.map (fun s -> R.Atom (P.Exact (Label.Sym s))) small_symbol;
        pure (R.Atom P.Any);
      ]
  in
  sized_size (int_range 1 4)
  @@ fix (fun self n ->
         if n <= 1 then atom
         else
           oneof
             [
               atom;
               Q.map2 (fun a b -> R.Seq (a, b)) (self (n / 2)) (self (n / 2));
               Q.map2 (fun a b -> R.Alt (a, b)) (self (n / 2)) (self (n / 2));
               Q.map (fun a -> R.Star a) (self (n / 2));
             ])

(* Recursion-free {!small_regex}: no [Star], so a regex step visits a
   bounded frontier and the static cardinality estimate is a true upper
   bound — the estimate-vs-actual property needs this subset. *)
let small_regex_norec : Ssd_automata.Regex.t Q.t =
  let module R = Ssd_automata.Regex in
  let module P = Ssd_automata.Lpred in
  let open Q in
  let atom =
    oneof
      [
        Q.map (fun s -> R.Atom (P.Exact (Label.Sym s))) small_symbol;
        pure (R.Atom P.Any);
      ]
  in
  sized_size (int_range 1 4)
  @@ fix (fun self n ->
         if n <= 1 then atom
         else
           oneof
             [
               atom;
               Q.map2 (fun a b -> R.Seq (a, b)) (self (n / 2)) (self (n / 2));
               Q.map2 (fun a b -> R.Alt (a, b)) (self (n / 2)) (self (n / 2));
             ])

(* UnQL select queries, built directly as ASTs: one or two generators
   (the second ranging over the first binder), steps mixing literal
   labels, label binders and regexes, and 0–2 conditions.  Tree binders
   are "t0"/"t1" and label binders "lu"/"lv" — disjoint pools, so a name
   is never both, and condition atoms avoid the tree pool (an unbound
   name in a condition just denotes a symbol literal, which is safe). *)
let unql_query_with (regex : Ssd_automata.Regex.t Q.t) : Unql.Ast.expr Q.t =
  let module A = Unql.Ast in
  let open Q in
  let step =
    frequency
      [
        (3, Q.map (fun s -> A.Slit (A.Llit (Label.Sym s))) small_symbol);
        (2, Q.map (fun x -> A.Sbind x) (oneofl [ "lu"; "lv" ]));
        (2, Q.map (fun r -> A.Sregex (r, None)) regex);
      ]
  in
  let steps = list_size (int_range 1 2) step in
  let atom =
    oneof
      [
        Q.map (fun s -> A.Aname s) (oneofl [ "lu"; "lv"; "a"; "b" ]);
        Q.map (fun s -> A.Alit (Label.Sym s)) small_symbol;
        Q.map (fun i -> A.Alit (Label.Int i)) (int_range (-3) 3);
      ]
  in
  let cond =
    oneof
      [
        Q.map3
          (fun op a b -> A.Ccmp (op, a, b))
          (oneofl [ A.Eq; A.Neq; A.Lt; A.Le ])
          atom atom;
        Q.map2 (fun t a -> A.Cistype (t, a)) (oneofl [ "int"; "symbol"; "string" ]) atom;
        Q.map2 (fun a p -> A.Cstarts (a, p)) atom (oneofl [ "a"; "m"; "ti" ]);
      ]
  in
  let* g1 = steps in
  let* with_second = bool in
  let* g2 = steps in
  let* conds = list_size (int_range 0 2) cond in
  let tvar = if with_second then "t1" else "t0" in
  let clauses =
    (A.Gen (A.Pedges [ (g1, A.Pbind "t0") ], A.Db)
     ::
     (if with_second then [ A.Gen (A.Pedges [ (g2, A.Pbind "t1") ], A.Var "t0") ] else []))
    @ List.map (fun c -> A.Where c) conds
  in
  pure (A.Select (A.Tree [ (A.Llit (Label.sym "r"), A.Var tvar) ], clauses))

let unql_query : Unql.Ast.expr Q.t = unql_query_with small_regex

(* Recursion-free queries (regex steps without [Star]) for the
   cardinality upper-bound property. *)
let unql_query_norec : Unql.Ast.expr Q.t = unql_query_with small_regex_norec

(* Corrupted segment inputs: [encode g] for a random graph [g], with a
   seeded mutation — truncation, bit flips, or a byte stomp — paired
   with [g], from which a decoder can rebuild its context (the graph
   segment's dictionary).  Decoding one must either succeed or raise
   [Ssd_storage.Bytesio.Corrupt]; anything else (generic Failure,
   Invalid_argument, out-of-memory array sizes) is a bug. *)
let corrupted_encoding (encode : Graph.t -> bytes) : (Graph.t * bytes) Q.t =
  let open Q in
  let* g = eps_graph in
  let data = encode g in
  let n = Bytes.length data in
  let* choice = int_range 0 2 in
  match choice with
  | 0 ->
    let* k = int_range 0 (n - 1) in
    pure (g, Bytes.sub data 0 k)
  | 1 ->
    let* flips = list_size (int_range 1 4) (pair (int_range 0 (n - 1)) (int_range 0 7)) in
    let b = Bytes.copy data in
    List.iter
      (fun (i, bit) -> Bytes.set_uint8 b i (Bytes.get_uint8 b i lxor (1 lsl bit)))
      flips;
    pure (g, b)
  | _ ->
    let* i = int_range 0 (n - 1) in
    let* v = int_range 0 255 in
    let b = Bytes.copy data in
    Bytes.set_uint8 b i v;
    pure (g, b)

(* A fault-plan spec for the distributed evaluator, in the CLI grammar.
   Probabilities stay below 1 so every run still quiesces. *)
let fault_spec : string Q.t =
  let open Q in
  let* seed = int_range 0 999 in
  let* drop = oneofl [ "0"; "0.1"; "0.3"; "0.5" ] in
  let* dup = oneofl [ "0"; "0.1" ] in
  let* reorder = oneofl [ "0"; "0.2" ] in
  let* ckpt = int_range 1 3 in
  let* backoff = oneofl [ ""; ",backoff:exp"; ",backoff:fixed@2" ] in
  let* crashes =
    list_size (int_range 0 2) (triple (int_range 0 3) (int_range 1 4) (int_range 1 2))
  in
  let crash_s =
    String.concat ""
      (List.map (fun (s, r, d) -> Printf.sprintf ",crash:%d@%d+%d" s r d) crashes)
  in
  pure
    (Printf.sprintf "seed:%d,drop:%s,dup:%s,reorder:%s,ckpt:%d%s%s" seed drop dup
       reorder ckpt backoff crash_s)

(* Wrap a QCheck2 property as an alcotest case. *)
let qtest name ?(count = 100) ?print gen prop =
  QCheck_alcotest.to_alcotest ~speed_level:`Quick
    (QCheck2.Test.make ~name ~count ?print gen prop)
