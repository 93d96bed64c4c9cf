(* Benchmark harness: one experiment per entry in DESIGN.md's reconstructed
   evaluation index (the paper is a tutorial with no tables or figures of
   its own; see EXPERIMENTS.md).

   Usage:
     dune exec bench/main.exe            # all experiments, default sizes
     dune exec bench/main.exe -- e3 e7   # a subset
     dune exec bench/main.exe -- --full  # larger sizes

   Several experiments run one after another, each in a fresh child
   process of this executable ([main.exe NAME [--full] --json PATH]). *)

module Graph = Ssd.Graph
module Label = Ssd.Label
module Tree = Ssd.Tree
module Ra = Relstore.Ra
open Bench_util

let full = ref false

let scale xs small = if !full then xs else small

(* ------------------------------------------------------------------ *)
(* E1 — browsing: where is the string X?  (section 1.3 / section 4)    *)
(* ------------------------------------------------------------------ *)

let e1 () =
  section "E1 value/text indexes vs full scan (browsing queries, sec. 1.3)";
  let sizes = scale [ 100; 1000; 10000 ] [ 100; 1000; 5000 ] in
  let rows =
    List.map
      (fun n ->
        let db = Ssd_workload.Movies.generate ~seed:1 ~n_entries:n () in
        let needle = Label.Str (Printf.sprintf "Movie %d" (n / 2)) in
        let vidx, v_build = time_once (fun () -> Ssd_index.Value_index.build db) in
        let tidx, t_build = time_once (fun () -> Ssd_index.Text_index.build db) in
        let timings =
          measure
            [
              ("scan", fun () -> ignore (Ssd_index.Value_index.scan db needle));
              ("value-index", fun () -> ignore (Ssd_index.Value_index.find vidx needle));
              ("text-word", fun () -> ignore (Ssd_index.Text_index.find_word tidx "movie"));
              ("text-prefix", fun () -> ignore (Ssd_index.Text_index.find_prefix tidx "act"));
            ]
        in
        let t name = List.assoc name timings in
        let speedup = t "scan" /. t "value-index" in
        [
          string_of_int n;
          ns_to_string (t "scan");
          ns_to_string (t "value-index");
          ns_to_string (t "text-word");
          ns_to_string (t "text-prefix");
          Printf.sprintf "%.0fx" speedup;
          s_to_string v_build;
          s_to_string t_build;
        ])
      sizes
  in
  print_table ~title:"lookup of one string value"
    ~header:
      [ "entries"; "scan"; "value-idx"; "text-word"; "text-prefix"; "speedup"; "v-build"; "t-build" ]
    rows

(* ------------------------------------------------------------------ *)
(* E2 — regular path expressions (section 3)                           *)
(* ------------------------------------------------------------------ *)

let e2 () =
  section "E2 regular path queries: derivatives vs NFA product; exact paths via indexes";
  let sizes = scale [ 1000; 5000; 20000 ] [ 500; 2000 ] in
  let regex_text = {| host.page.(link)*.title._ |} in
  let r = Ssd_automata.Regex.parse regex_text in
  let nfa = Ssd_automata.Nfa.of_regex r in
  let rows =
    List.map
      (fun n ->
        let g = Ssd_workload.Webgraph.generate ~seed:2 ~n_pages:n () in
        let dfa, dfa_build =
          time_once (fun () ->
              Ssd_automata.Dfa.minimize
                (Ssd_automata.Dfa.of_nfa ~alphabet:(Ssd_automata.Product.alphabet g) nfa))
        in
        let via_nfa = Ssd_automata.Product.accepting_nodes g nfa in
        assert (via_nfa = Ssd_automata.Product.accepting_nodes_dfa g dfa);
        let timings =
          measure ~quota:0.4
            [
              ("derivatives", fun () -> ignore (Ssd_automata.Product.accepting_nodes_deriv g r));
              ("nfa-product", fun () -> ignore (Ssd_automata.Product.accepting_nodes g nfa));
              ("dfa-product", fun () -> ignore (Ssd_automata.Product.accepting_nodes_dfa g dfa));
            ]
        in
        let t name = List.assoc name timings in
        [
          string_of_int n;
          string_of_int (List.length via_nfa);
          ns_to_string (t "nfa-product");
          ns_to_string (t "derivatives");
          ns_to_string (t "dfa-product");
          s_to_string dfa_build;
          Printf.sprintf "%.1fx" (t "nfa-product" /. t "dfa-product");
        ])
      sizes
  in
  print_table ~title:(Printf.sprintf "cyclic web graph, query %s" (String.trim regex_text))
    ~header:[ "pages"; "answers"; "nfa"; "deriv"; "min-dfa"; "dfa-build"; "nfa/dfa" ]
    rows;
  (* Exact literal paths: traversal vs path index vs dataguide. *)
  let sizes = scale [ 1000; 10000 ] [ 500; 2000 ] in
  let path = [ Label.Sym "entry"; Label.Sym "movie"; Label.Sym "title" ] in
  let rows =
    List.map
      (fun n ->
        let db = Ssd_workload.Movies.generate ~seed:3 ~n_entries:n () in
        let pidx, p_build = time_once (fun () -> Ssd_index.Path_index.build ~depth:4 db) in
        let guide, g_build = time_once (fun () -> Ssd_schema.Dataguide.build db) in
        let timings =
          measure
            [
              ("traverse", fun () -> ignore (Ssd_index.Path_index.traverse db path));
              ("path-index", fun () -> ignore (Ssd_index.Path_index.find pidx path));
              ("dataguide", fun () -> ignore (Ssd_schema.Dataguide.find guide path));
            ]
        in
        let t name = List.assoc name timings in
        [
          string_of_int n;
          ns_to_string (t "traverse");
          ns_to_string (t "path-index");
          ns_to_string (t "dataguide");
          s_to_string p_build;
          s_to_string g_build;
        ])
      sizes
  in
  print_table ~title:"exact path entry.movie.title"
    ~header:[ "entries"; "traverse"; "path-idx"; "dataguide"; "pidx-build"; "guide-build" ]
    rows

(* ------------------------------------------------------------------ *)
(* E3 — the relational strategy: graph datalog (section 3)             *)
(* ------------------------------------------------------------------ *)

let e3 () =
  section "E3 recursive datalog over the triple encoding vs direct product";
  let sizes = scale [ 2000; 8000; 20000 ] [ 1000; 4000 ] in
  (* Descendants in a deep taxonomy: recursion depth = tree depth, which
     is where semi-naive evaluation pays off over naive re-derivation. *)
  let program =
    Relstore.Datalog.parse
      {| desc(?T)   :- root(?R), edge(?R, taxon, ?T).
         desc(?C)   :- desc(?T), edge(?T, child, ?C).
         answer(?N) :- desc(?T), edge(?T, name, ?N). |}
  in
  let nfa = Ssd_automata.Nfa.of_string "taxon.(child)*.name" in
  let rows =
    List.map
      (fun n ->
        let g = Ssd_workload.Biodb.generate ~seed:4 ~n_taxa:n () in
        let edb = Relstore.Triple.edb g in
        let semi = Relstore.Datalog.query ~edb program "answer" in
        let direct = Ssd_automata.Product.accepting_nodes g nfa in
        assert (List.length semi = List.length direct);
        (* the EDB is built once and shared by every evaluation; its
           one-off build cost is its own column *)
        let timings =
          measure ~quota:0.4
            [
              ("datalog-semi-naive", fun () -> ignore (Relstore.Datalog.eval ~edb program));
              ("datalog-naive", fun () -> ignore (Relstore.Datalog.eval_naive ~edb program));
              ("direct-product", fun () -> ignore (Ssd_automata.Product.accepting_nodes g nfa));
              ("triple-edb-build", fun () -> ignore (Relstore.Triple.edb g));
            ]
        in
        let t name = List.assoc name timings in
        [
          string_of_int n;
          string_of_int (List.length semi);
          ns_to_string (t "datalog-naive");
          ns_to_string (t "datalog-semi-naive");
          ns_to_string (t "direct-product");
          ns_to_string (t "triple-edb-build");
          Printf.sprintf "%.1fx" (t "datalog-naive" /. t "datalog-semi-naive");
        ])
      sizes
  in
  print_table ~title:"taxonomy descendants, three strategies over one shared EDB (+ its build)"
    ~header:[ "taxa"; "answers"; "naive"; "semi-naive"; "product"; "edb-build"; "naive/semi" ]
    rows

(* ------------------------------------------------------------------ *)
(* E4 — structural recursion on cyclic data (section 3)                *)
(* ------------------------------------------------------------------ *)

let e4 () =
  section "E4 deep restructuring: sfun bulk semantics vs direct transformation";
  let sizes = scale [ 500; 2000; 8000 ] [ 200; 1000 ] in
  let relabel_q = Unql.Parser.parse (Unql.Restructure.As_query.relabel ~from_:"movie" ~to_:"film") in
  let delete_q = Unql.Parser.parse (Unql.Restructure.As_query.delete ~label:"budget") in
  let collapse_q = Unql.Parser.parse (Unql.Restructure.As_query.collapse ~label:"credit") in
  let movie = Label.Sym "movie" and film = Label.Sym "film" in
  let rows =
    List.map
      (fun n ->
        let db = Ssd_workload.Movies.generate ~seed:5 ~n_entries:n () in
        (* agreement checked once per size *)
        let via_q = Unql.Eval.eval ~db relabel_q in
        let direct =
          Unql.Restructure.relabel (fun l -> if Label.equal l movie then film else l) db
        in
        assert (Ssd.Bisim.equal via_q direct);
        let timings =
          measure ~quota:0.4
            [
              ("sfun-relabel", fun () -> ignore (Unql.Eval.eval ~db relabel_q));
              ( "direct-relabel",
                fun () ->
                  ignore
                    (Unql.Restructure.relabel
                       (fun l -> if Label.equal l movie then film else l) db) );
              ("sfun-delete", fun () -> ignore (Unql.Eval.eval ~db delete_q));
              ( "direct-delete",
                fun () ->
                  ignore (Unql.Restructure.delete_edges (Label.equal (Label.Sym "budget")) db) );
              ("sfun-collapse", fun () -> ignore (Unql.Eval.eval ~db collapse_q));
            ]
        in
        let t name = List.assoc name timings in
        [
          string_of_int n;
          ns_to_string (t "sfun-relabel");
          ns_to_string (t "direct-relabel");
          ns_to_string (t "sfun-delete");
          ns_to_string (t "direct-delete");
          ns_to_string (t "sfun-collapse");
        ])
      sizes
  in
  print_table ~title:"relabel / delete / collapse on cyclic movie data"
    ~header:[ "entries"; "sfun-rel"; "direct-rel"; "sfun-del"; "direct-del"; "sfun-col" ]
    rows

(* ------------------------------------------------------------------ *)
(* E5 — the three model variants (section 2)                           *)
(* ------------------------------------------------------------------ *)

let e5 () =
  section "E5 model variants: conversion round-trips";
  let sizes = scale [ 1000; 10000; 50000 ] [ 1000; 5000 ] in
  let rows =
    List.map
      (fun n ->
        let g = Ssd_workload.Randtree.generate ~seed:6 ~regularity:0.5 ~n_edges:n () in
        let t = Graph.to_tree g in
        let leafy = Ssd.Variant.leafy_of_v1 t in
        let nodelab = Ssd.Variant.nodelab_of_v1 ~root:(Label.Sym "root") t in
        (* Round-trip identities (the paper's "easy to define mappings"). *)
        assert (Ssd.Variant.Leafy.equal leafy (Ssd.Variant.leafy_of_v1 (Ssd.Variant.v1_of_leafy leafy)));
        assert (
          Ssd.Variant.Nodelab.equal nodelab
            (Ssd.Variant.nodelab_of_v1 ~root:(Label.Sym "root")
               (Ssd.Variant.v1_of_nodelab nodelab)));
        let timings =
          measure ~quota:0.3
            [
              ("to-leafy", fun () -> ignore (Ssd.Variant.leafy_of_v1 t));
              ("from-leafy", fun () -> ignore (Ssd.Variant.v1_of_leafy leafy));
              ("to-nodelab", fun () -> ignore (Ssd.Variant.nodelab_of_v1 ~root:(Label.Sym "root") t));
              ("from-nodelab", fun () -> ignore (Ssd.Variant.v1_of_nodelab nodelab));
            ]
        in
        let t' name = List.assoc name timings in
        [
          string_of_int n;
          ns_to_string (t' "to-leafy");
          ns_to_string (t' "from-leafy");
          ns_to_string (t' "to-nodelab");
          ns_to_string (t' "from-nodelab");
        ])
      sizes
  in
  print_table ~title:"edge-labeled <-> leaf-valued <-> node-labeled"
    ~header:[ "edges"; "to-v2"; "from-v2"; "to-v3"; "from-v3" ]
    rows

(* ------------------------------------------------------------------ *)
(* E6 — object identity and bisimulation (section 2)                   *)
(* ------------------------------------------------------------------ *)

let e6 () =
  section "E6 bisimulation: value equality and minimization of shared data";
  let sizes = scale [ 200; 1000; 4000 ] [ 100; 500 ] in
  let rows =
    List.map
      (fun n ->
        let bib = Ssd_workload.Bibdb.generate ~seed:7 ~n_papers:n () in
        let g = Graph.eps_eliminate bib in
        let minimized, t_min = time_once (fun () -> Ssd.Bisim.minimize bib) in
        let (_ : bool), t_eq = time_once (fun () -> Ssd.Bisim.equal bib minimized) in
        let tree_size =
          (* size of the value (tree unfolding): DAG, so count via memo *)
          let memo = Hashtbl.create 64 in
          let rec sz u =
            match Hashtbl.find_opt memo u with
            | Some s -> s
            | None ->
              let s =
                List.fold_left (fun acc (_, v) -> acc + 1 + sz v) 0 (Graph.labeled_succ g u)
              in
              Hashtbl.add memo u s;
              s
          in
          sz (Graph.root g)
        in
        [
          string_of_int n;
          string_of_int (Graph.n_nodes g);
          string_of_int (Graph.n_nodes minimized);
          Printf.sprintf "%.2f" (float_of_int (Graph.n_nodes g) /. float_of_int (Graph.n_nodes minimized));
          string_of_int tree_size;
          s_to_string t_min;
          s_to_string t_eq;
        ])
      sizes
  in
  print_table ~title:"bibliography DAG with shared authors"
    ~header:[ "papers"; "nodes"; "min-nodes"; "ratio"; "tree-unfold-edges"; "minimize"; "bisim-eq" ]
    rows

(* ------------------------------------------------------------------ *)
(* E7 — DataGuides and representative objects (section 5)              *)
(* ------------------------------------------------------------------ *)

let e7 () =
  section "E7 summary size vs data regularity (DataGuide, k-RO, inferred schema)";
  let n = if !full then 5000 else 2000 in
  let rows =
    List.map
      (fun regularity ->
        let g = Ssd_workload.Randtree.generate ~seed:8 ~regularity ~n_edges:n () in
        let guide, t_guide = time_once (fun () -> Ssd_schema.Dataguide.build g) in
        let ro2 = Ssd_schema.Ro.build ~k:2 g in
        let ro4 = Ssd_schema.Ro.build ~k:4 g in
        let schema_n = Ssd_schema.Infer.schema_size ~k:3 g in
        [
          Printf.sprintf "%.2f" regularity;
          string_of_int (Graph.n_nodes g);
          string_of_int (Ssd_schema.Dataguide.n_nodes guide);
          s_to_string t_guide;
          string_of_int (Ssd_schema.Ro.n_classes ro2);
          string_of_int (Ssd_schema.Ro.n_classes ro4);
          string_of_int schema_n;
        ])
      [ 0.0; 0.25; 0.5; 0.75; 1.0 ]
  in
  print_table
    ~title:(Printf.sprintf "random trees, %d edges, regularity sweep" n)
    ~header:[ "regularity"; "nodes"; "guide"; "guide-t"; "2-RO"; "4-RO"; "schema(k=3)" ]
    rows

(* ------------------------------------------------------------------ *)
(* E8 — optimization ablation (section 4)                              *)
(* ------------------------------------------------------------------ *)

let e8 () =
  section "E8 optimization ablation: clause reordering, NFA caching, DataGuide use";
  let n = if !full then 5000 else 1500 in
  let db = Ssd_workload.Movies.generate ~seed:9 ~n_entries:n () in
  let guide, _ = time_once ~runs:1 (fun () -> Ssd_schema.Dataguide.build db) in
  (* A query whose conditions can move before an expensive regex step. *)
  let q =
    Unql.Parser.parse
      {| select {hit: {title: t, year: y}}
         where {entry.movie: \m} <- DB,
               {year.\y} <- m,
               {title: \t} <- m,
               {<cast.(credit)?.actors>.\a} <- m,
               y > 2010,
               startswith(a, "Lauren") |}
  in
  let opts ?(reorder = true) ?(cache = true) ?guide () =
    { Unql.Eval.default_options with reorder_clauses = reorder; cache_nfa = cache; dataguide = guide }
  in
  let timings =
    measure ~quota:0.6
      [
        ("all-on", fun () -> ignore (Unql.Eval.eval ~options:(opts ~guide ()) ~db q));
        ("no-guide", fun () -> ignore (Unql.Eval.eval ~options:(opts ()) ~db q));
        ("no-reorder", fun () -> ignore (Unql.Eval.eval ~options:(opts ~reorder:false ()) ~db q));
        ("no-nfa-cache", fun () -> ignore (Unql.Eval.eval ~options:(opts ~cache:false ()) ~db q));
        ( "none",
          fun () ->
            ignore (Unql.Eval.eval ~options:(opts ~reorder:false ~cache:false ()) ~db q) );
      ]
  in
  print_table ~title:(Printf.sprintf "select with regex + conditions, %d entries" n)
    ~header:[ "configuration"; "time" ]
    (List.map (fun (name, t) -> [ name; ns_to_string t ]) timings);
  (* DataGuide pruning of impossible paths. *)
  let dead = Unql.Parser.parse {| select t where {entry.movie.nosuchlabel: \t} <- DB |} in
  let _, pruned = Unql.Optimize.prune_with_guide guide dead in
  Printf.printf "\nimpossible-path selects pruned by the guide: %d (of 1)\n" pruned;
  (* Automaton sizes before/after minimization. *)
  let alphabet =
    Graph.fold_labeled_edges (fun acc _ l _ -> l :: acc) [] (Graph.eps_eliminate db)
    |> List.sort_uniq Label.compare
  in
  List.iter
    (fun (text, nfa_states, dfa_states) ->
      Printf.printf "regex %-40s NFA states %3d -> min-DFA states %d\n" text nfa_states
        dfa_states)
    (Unql.Optimize.automaton_sizes ~alphabet q)

(* ------------------------------------------------------------------ *)
(* E9 — query decomposition across sites (section 4)                   *)
(* ------------------------------------------------------------------ *)

let e9 () =
  section "E9 decomposed evaluation: sites sweep (Suciu VLDB'96)";
  let n = if !full then 10000 else 3000 in
  let g = Ssd_workload.Webgraph.generate ~seed:10 ~n_pages:n () in
  let nfa = Ssd_automata.Nfa.of_string "host.page.(link)*.title._" in
  let central = Ssd_automata.Product.accepting_nodes g nfa in
  let rows =
    List.map
      (fun (k, random) ->
        let partition =
          if random then Ssd_dist.Decompose.partition_random ~seed:1 ~k g
          else Ssd_dist.Decompose.partition_bfs ~k g
        in
        let answers, stats = Ssd_dist.Decompose.eval g partition nfa in
        assert (answers = central);
        [
          string_of_int k;
          (if random then "random" else "bfs");
          string_of_int stats.Ssd_dist.Decompose.cross_edges;
          string_of_int stats.Ssd_dist.Decompose.rounds;
          string_of_int stats.Ssd_dist.Decompose.messages;
          string_of_int (Array.fold_left max 0 stats.Ssd_dist.Decompose.local_work);
          string_of_int stats.Ssd_dist.Decompose.sequential_work;
          Printf.sprintf "%.2f"
            (float_of_int stats.Ssd_dist.Decompose.sequential_work
            /. float_of_int stats.Ssd_dist.Decompose.makespan);
        ])
      [ (1, false); (2, false); (4, false); (8, false); (16, false); (4, true); (16, true) ]
  in
  print_table
    ~title:(Printf.sprintf "web graph %d pages, multi-round decomposition" n)
    ~header:
      [ "sites"; "partition"; "cross-edges"; "rounds"; "messages"; "max-site"; "seq-work"; "speedup" ]
    rows

(* ------------------------------------------------------------------ *)
(* E10 — relational data through the model (sections 1.2 / 2)          *)
(* ------------------------------------------------------------------ *)

let e10 () =
  section "E10 relational encoding: SQL-shaped query in RA vs UnQL on encoded data";
  let sizes = scale [ 200; 1000; 5000 ] [ 100; 500 ] in
  let make_db n =
    let customers =
      {
        Ssd.Encode.rel_name = "customer";
        attrs = [ "cid"; "name"; "city" ];
        rows =
          List.init n (fun i ->
              [
                Label.Int i;
                Label.Str (Printf.sprintf "Customer %d" i);
                Label.Str (Printf.sprintf "City %d" (i mod 10));
              ]);
      }
    in
    let orders =
      {
        Ssd.Encode.rel_name = "order";
        attrs = [ "oid"; "cid"; "amount" ];
        rows =
          List.init (3 * n) (fun i ->
              [ Label.Int i; Label.Int (i mod n); Label.Int (10 + (i * 7 mod 990)) ]);
      }
    in
    (customers, orders)
  in
  let rows =
    List.map
      (fun n ->
        let customers, orders = make_db n in
        let rel_c = Relstore.Relation.of_rows customers.Ssd.Encode.attrs
            (List.map Array.of_list customers.Ssd.Encode.rows)
        and rel_o = Relstore.Relation.of_rows orders.Ssd.Encode.attrs
            (List.map Array.of_list orders.Ssd.Encode.rows) in
        let tree = Ssd.Encode.tree_of_database [ customers; orders ] in
        let db = Graph.of_tree tree in
        let q =
          Unql.Parser.parse
            {| select {hit: {name: nm, amount: a}}
               where {order.tuple: \o} <- DB,
                     {amount.\a} <- o, {cid.\c} <- o,
                     {customer.tuple: \cu} <- DB,
                     {cid.\c2} <- cu, {name.\nm} <- cu,
                     c = c2, a > 900 |}
        in
        let ra () =
          let big = Ra.select (fun _ -> true) rel_o in
          ignore big;
          let sel = Ra.select (fun row -> Label.compare row.(2) (Label.Int 900) > 0) rel_o in
          Ra.project [ "name"; "amount" ] (Ra.join sel rel_c)
        in
        let ra_result = ra () in
        let unql_result = Unql.Eval.eval ~db q in
        let unql_rows = List.length (Graph.labeled_succ unql_result (Graph.root unql_result)) in
        let timings =
          measure ~quota:0.4
            [ ("relational-algebra", fun () -> ignore (ra ())); ("unql-on-encoding", fun () -> ignore (Unql.Eval.eval ~db q)) ]
        in
        let t name = List.assoc name timings in
        [
          string_of_int n;
          string_of_int (Relstore.Relation.cardinality ra_result);
          string_of_int unql_rows;
          ns_to_string (t "relational-algebra");
          ns_to_string (t "unql-on-encoding");
        ])
      sizes
  in
  print_table ~title:"join + selection + projection, both strategies"
    ~header:[ "customers"; "ra-rows"; "unql-rows"; "ra"; "unql" ]
    rows

(* ------------------------------------------------------------------ *)
(* E11 — disk layout and clustering (section 4, direct representation)  *)
(* ------------------------------------------------------------------ *)

let e11 () =
  section "E11 storage: segment codec size; clustering vs page faults (sec. 4)";
  let module Seg = Ssd_storage.Seg in
  let n = if !full then 20000 else 5000 in
  let datasets =
    [
      ("movies", Ssd_workload.Movies.generate ~seed:11 ~n_entries:(n / 10) ());
      ("biodb", Ssd_workload.Biodb.generate ~seed:11 ~n_taxa:(n / 4) ());
      ("web", Ssd_workload.Webgraph.generate ~seed:11 ~n_pages:(n / 5) ());
    ]
  in
  (* What a store commit writes for a graph: its dictionary, then the
     CSR graph encoded against it. *)
  let encode g =
    let dict = Seg.dict_of_graph g in
    (Seg.encode_dict dict, Seg.encode_graph ~dict g)
  in
  let decode (dict_b, graph_b) = Seg.decode_graph ~dict:(Seg.decode_dict dict_b) graph_b in
  let rows =
    List.map
      (fun (name, g) ->
        let ((dict_b, graph_b) as data) = encode g in
        let g' = decode data in
        if Graph.n_nodes g' <> Graph.n_nodes g || Graph.n_edges g' <> Graph.n_edges g
           || not (Bytes.equal graph_b (snd (encode g')))
        then failwith ("e11: segment round-trip differs on " ^ name);
        let timings =
          measure ~quota:0.4
            [
              ("seg-encode", fun () -> ignore (encode g));
              ("seg-decode", fun () -> ignore (decode data));
            ]
        in
        let t case = ns_to_string (List.assoc case timings) in
        let size = Bytes.length dict_b + Bytes.length graph_b in
        [
          name;
          string_of_int (Graph.n_nodes g);
          string_of_int (Graph.n_edges g);
          string_of_int (Bytes.length dict_b);
          string_of_int (Bytes.length graph_b);
          Printf.sprintf "%.1f" (float_of_int size /. float_of_int (Graph.n_edges g));
          t "seg-encode";
          t "seg-decode";
        ])
      datasets
  in
  print_table ~title:"segment codec (dictionary + CSR graph)"
    ~header:[ "dataset"; "nodes"; "edges"; "dict B"; "graph B"; "B/edge"; "encode"; "decode" ]
    rows;
  (* Clustering: path-shaped workload over the deep taxonomy. *)
  let g = Ssd_workload.Biodb.generate ~seed:12 ~n_taxa:n () in
  let walks = Ssd_storage.Pager.random_walks ~seed:13 ~n_walks:(n / 4) ~depth:16 g in
  let rows =
    List.concat_map
      (fun clustering ->
        List.map
          (fun buffer ->
            let t = Ssd_storage.Pager.layout clustering ~page_capacity:64 g in
            let s = Ssd_storage.Pager.replay t ~buffer_pages:buffer walks in
            [
              Ssd_storage.Pager.clustering_name clustering;
              string_of_int buffer;
              string_of_int s.Ssd_storage.Pager.accesses;
              string_of_int s.Ssd_storage.Pager.faults;
              Printf.sprintf "%.1f%%"
                (100. *. float_of_int s.Ssd_storage.Pager.faults
                /. float_of_int s.Ssd_storage.Pager.accesses);
            ])
          [ 4; 16 ])
      [ Ssd_storage.Pager.Dfs; Ssd_storage.Pager.Bfs; Ssd_storage.Pager.Insertion;
        Ssd_storage.Pager.Scatter 7 ]
  in
  print_table
    ~title:
      (Printf.sprintf "LRU page faults, taxonomy %d taxa, 64 nodes/page, random root walks" n)
    ~header:[ "clustering"; "buffer"; "accesses"; "faults"; "fault-rate" ]
    rows

(* ------------------------------------------------------------------ *)
(* E12 — one query, four languages (section 3's survey, quantified)     *)
(* ------------------------------------------------------------------ *)

let e12 () =
  section "E12 the same query in UnQL, Lorel and datalog (+ WebSQL on web data)";
  let sizes = scale [ 1000; 5000 ] [ 500; 2000 ] in
  let actor = "Humphrey Bogart 0" in
  let unql_q =
    Unql.Parser.parse
      (Printf.sprintf
         {| select {t: \t}
            where {<entry.movie>: \m} <- DB,
                  {<cast._*.%S>} <- m,
                  {title.\t} <- m |}
         actor)
  in
  let lorel_q =
    Printf.sprintf {| select X.title from DB.entry.movie X where X.cast.# = %S |} actor
  in
  let datalog_q =
    Relstore.Datalog.parse
      (Printf.sprintf
         {| mcast(?M, ?C) :- edge(?E, movie, ?M), edge(?M, cast, ?C).
            mcast(?M, ?D) :- mcast(?M, ?C), edge(?C, ?L, ?D).
            hit(?T) :- mcast(?M, ?C), edge(?C, %S, ?X),
                       edge(?M, title, ?TN), edge(?TN, ?T, ?L2). |}
         actor)
  in
  let rows =
    List.map
      (fun n ->
        let db = Ssd_workload.Movies.generate ~seed:12 ~n_entries:n () in
        let edb = Relstore.Triple.edb db in
        let unql_result = Unql.Eval.eval ~db unql_q in
        let count_unql =
          List.length (Graph.labeled_succ unql_result (Graph.root unql_result))
        in
        let lorel_result = Lorel.Eval.run ~db lorel_q in
        let count_lorel =
          List.length (Graph.labeled_succ lorel_result (Graph.root lorel_result))
        in
        let count_datalog = List.length (Relstore.Datalog.query ~edb datalog_q "hit") in
        assert (count_unql = count_lorel && count_lorel = count_datalog);
        let timings =
          measure ~quota:0.4
            [
              ("unql", fun () -> ignore (Unql.Eval.eval ~db unql_q));
              ("lorel", fun () -> ignore (Lorel.Eval.run ~db lorel_q));
              ("datalog", fun () -> ignore (Relstore.Datalog.query ~edb datalog_q "hit"));
            ]
        in
        let t name = List.assoc name timings in
        [
          string_of_int n;
          string_of_int count_unql;
          ns_to_string (t "unql");
          ns_to_string (t "lorel");
          ns_to_string (t "datalog");
        ])
      sizes
  in
  print_table
    ~title:(Printf.sprintf "movies with actor %S: titles, three languages agree" actor)
    ~header:[ "entries"; "answers"; "unql"; "lorel"; "datalog" ]
    rows;
  (* WebSQL vs the generic automaton product on web-shaped data. *)
  let n = if !full then 5000 else 1500 in
  let web = Ssd_workload.Webgraph.generate ~seed:13 ~n_pages:n () in
  let w = Websql.Web.of_graph web in
  let start_url = "http://host0.example/p0" in
  let websql_q =
    Printf.sprintf {| SELECT d.url FROM DOCUMENT d SUCH THAT %S (-> | =>)* d |} start_url
  in
  let start = Option.get (Websql.Web.by_url w start_url) in
  let count_websql = Relstore.Relation.cardinality (Websql.Eval.run ~db:web websql_q) in
  let timings =
    measure ~quota:0.4
      [
        ("websql", fun () -> ignore (Websql.Eval.run ~db:web websql_q));
        ( "automata-product",
          fun () ->
            ignore
              (Ssd_automata.Product.accepting_nodes_from web
                 (Ssd_automata.Nfa.of_string "(link)*")
                 ~starts:[ start ]) );
      ]
  in
  print_table
    ~title:
      (Printf.sprintf "web reachability from %s (%d pages reachable of %d)" start_url
         count_websql n)
    ~header:[ "evaluator"; "time" ]
    (List.map (fun (name, t) -> [ name; ns_to_string t ]) timings)

(* ------------------------------------------------------------------ *)
(* E13 — plan/result cache on a repeated-query workload               *)
(* ------------------------------------------------------------------ *)

let e13 () =
  section "E13 plan/result cache: repeated query workload, cache on vs off";
  let sizes = scale [ 1000; 5000 ] [ 500; 2000 ] in
  let queries =
    List.map Unql.Parser.parse
      [
        {| select {title: \t} where {entry.movie.title: \t} <- DB |};
        {| select {hit: \t}
           where {<entry.movie>: \m} <- DB,
                 {<cast._*."Humphrey Bogart 0">} <- m,
                 {title.\t} <- m |};
        {| select {year: \y} where {entry.movie.year.\y} <- DB |};
      ]
  in
  let rows =
    List.map
      (fun n ->
        let db = Ssd_workload.Movies.generate ~seed:14 ~n_entries:n () in
        let cache = Unql.Cache.create ~capacity:64 () in
        (* The cache must be invisible up to bisimulation. *)
        List.iter
          (fun q ->
            assert (Ssd.Bisim.equal (Unql.Cache.eval ~cache ~db q) (Unql.Eval.eval ~db q)))
          queries;
        let run_workload eval = List.iter (fun q -> ignore (eval q)) queries in
        let timings =
          measure ~quota:0.4
            [
              ("cache-off", fun () -> run_workload (fun q -> Unql.Eval.eval ~db q));
              ("cache-on", fun () -> run_workload (fun q -> Unql.Cache.eval ~cache ~db q));
            ]
        in
        let t name = List.assoc name timings in
        let s = Unql.Cache.stats cache in
        let lookups = s.Unql.Cache.hits + s.Unql.Cache.misses in
        [
          string_of_int n;
          ns_to_string (t "cache-off");
          ns_to_string (t "cache-on");
          Printf.sprintf "%.0fx" (t "cache-off" /. t "cache-on");
          Printf.sprintf "%d/%d (%.1f%%)" s.Unql.Cache.hits lookups
            (100. *. float_of_int s.Unql.Cache.hits /. float_of_int (max 1 lookups));
        ])
      sizes
  in
  print_table ~title:"repeated 3-query workload (movies data)"
    ~header:[ "entries"; "cache-off"; "cache-on"; "speedup"; "hits/lookups" ]
    rows;
  (* Updates change the graph fingerprint, so a cached result is never
     served for the mutated database; [invalidate] reclaims stale entries. *)
  let db = Ssd_workload.Movies.generate ~seed:14 ~n_entries:200 () in
  let cache = Unql.Cache.create ~capacity:64 () in
  let q = List.hd queries in
  ignore (Unql.Cache.eval ~cache ~db q);
  ignore (Unql.Cache.eval ~cache ~db q);
  let db' = Lorel.Update.run ~db {| insert DB.entry := {seen: true} |} in
  let before = (Unql.Cache.stats cache).Unql.Cache.misses in
  ignore (Unql.Cache.eval ~cache ~db:db' q);
  let after = (Unql.Cache.stats cache).Unql.Cache.misses in
  Printf.printf
    "\nafter an update the lookup was a %s; invalidate dropped %d stale entries\n"
    (if after > before then "miss (fingerprint changed, as required)" else "HIT (BUG)")
    (Unql.Cache.invalidate cache db)

(* ------------------------------------------------------------------ *)
(* E14 — lint-informed dead-path pruning on irregular web data         *)
(* ------------------------------------------------------------------ *)

let e14 () =
  section "E14 static dead-path pruning: lint-informed vs blind evaluation";
  let sizes = scale [ 2000; 8000 ] [ 500; 2000 ] in
  (* A workload with a regex-path select that can never match (the
     webgraph has no [movie] edges): blind evaluation still explores the
     (link)* product; the analyzer proves the product empty against the
     DataGuide and pruning replaces the select by [{}].  Guide-based
     literal-path pruning (E8's [prune_with_guide]) cannot see through
     the regex step, so it keeps the dead select. *)
  let live =
    Unql.Parser.parse {| select {u: \t} where {<host.page.(link)*.url>: \t} <- DB |}
  in
  let dead =
    Unql.Parser.parse
      {| select {m: \t} where {<host.page.(link)*.movie.title>: \t} <- DB |}
  in
  let q = Unql.Ast.Union (live, dead) in
  let rows =
    List.map
      (fun n ->
        let db = Ssd_workload.Webgraph.generate ~seed:14 ~n_pages:n () in
        let guide = Ssd_schema.Dataguide.build db in
        let target = Ssd_lint.Guide guide in
        let q', lint_pruned = Ssd_lint.prune target q in
        let _, blind_pruned = Unql.Optimize.prune_with_guide guide q in
        (* pruning must be invisible up to bisimulation *)
        assert (Ssd.Bisim.equal (Unql.Eval.eval ~db q) (Unql.Eval.eval ~db q'));
        let timings =
          measure ~quota:0.4
            [
              ("blind", fun () -> ignore (Unql.Eval.eval ~db q));
              ( "lint+prune+eval",
                fun () ->
                  let q', _ = Ssd_lint.prune target q in
                  ignore (Unql.Eval.eval ~db q') );
              ("lint-only", fun () -> ignore (Ssd_lint.prune target q));
            ]
        in
        let t name = List.assoc name timings in
        [
          string_of_int n;
          ns_to_string (t "blind");
          ns_to_string (t "lint+prune+eval");
          ns_to_string (t "lint-only");
          Printf.sprintf "%d vs %d" lint_pruned blind_pruned;
          Printf.sprintf "%.1fx" (t "blind" /. t "lint+prune+eval");
        ])
      sizes
  in
  print_table
    ~title:
      "union of a live and a dead regex-path select (webgraph; guide built once, \
       analysis re-run per evaluation)"
    ~header:
      [ "pages"; "blind eval"; "lint+prune+eval"; "lint alone"; "pruned lint/blind";
        "speedup" ]
    rows

(* ------------------------------------------------------------------ *)
(* E15 — fault-tolerant distributed evaluation                         *)
(* ------------------------------------------------------------------ *)

let e15 () =
  section "E15 fault tolerance: message loss, crashes, backoff, budgets";
  let n = if !full then 5000 else 1500 in
  let g = Ssd_workload.Webgraph.generate ~seed:15 ~n_pages:n () in
  let nfa = Ssd_automata.Nfa.of_string "host.page.(link)*.title._" in
  let partition = Ssd_dist.Decompose.partition_bfs ~k:4 g in
  let central = Ssd_automata.Product.accepting_nodes g nfa in
  let faulty_run ?budget spec =
    Ssd_dist.Decompose.run ~plan:(Ssd_fault.Plan.parse spec) ?budget g partition nfa
  in
  let verdict = function
    | Ssd.Budget.Complete a -> if a = central then "complete" else "WRONG"
    | Ssd.Budget.Partial (a, why) ->
      Printf.sprintf "partial/%s (%d/%d)"
        (Ssd.Budget.exhaustion_to_string why)
        (List.length a) (List.length central)
  in
  let open Ssd_dist.Decompose in
  (* 1. Loss sweep: the answer never changes; only rounds and retry
     traffic grow with the drop rate. *)
  let rows =
    List.map
      (fun drop ->
        let outcome, s = faulty_run (Printf.sprintf "seed:1,drop:%g" drop) in
        [
          Printf.sprintf "%g" drop;
          string_of_int s.rounds;
          string_of_int s.messages;
          string_of_int s.retries;
          string_of_int s.dropped;
          Printf.sprintf "%.2fx"
            (float_of_int (s.messages + s.retries) /. float_of_int (max 1 s.messages));
          verdict outcome;
        ])
      [ 0.; 0.1; 0.3; 0.5; 0.7 ]
  in
  print_table
    ~title:
      (Printf.sprintf
         "drop-rate sweep (web graph %d pages, 4 sites, seed 1; overhead = \
          transmissions/messages)" n)
    ~header:[ "drop"; "rounds"; "messages"; "retries"; "dropped"; "overhead"; "answer" ]
    rows;
  (* 2. Crash/recovery: work since the last checkpoint is lost and
     re-derived; a denser checkpoint interval bounds the waste. *)
  let rows =
    List.map
      (fun (crashes, ckpt) ->
        let spec =
          "seed:2,drop:0.1,ckpt:" ^ string_of_int ckpt
          ^ String.concat ""
              (List.map (fun (s, r) -> Printf.sprintf ",crash:%d@%d+2" s r) crashes)
        in
        let outcome, s = faulty_run spec in
        [
          string_of_int (List.length crashes);
          string_of_int ckpt;
          string_of_int s.rounds;
          string_of_int s.recoveries;
          string_of_int s.wasted_work;
          string_of_int s.checkpoints;
          verdict outcome;
        ])
      [
        ([], 1);
        ([ (1, 3) ], 1);
        ([ (1, 3) ], 4);
        ([ (1, 3); (2, 5) ], 1);
        ([ (1, 3); (2, 5) ], 4);
        ([ (0, 2); (1, 3); (2, 5) ], 4);
      ]
  in
  print_table
    ~title:"crash schedule sweep (drop 0.1 throughout; wasted = re-derived pairs)"
    ~header:[ "crashes"; "ckpt-every"; "rounds"; "recoveries"; "wasted"; "ckpts"; "answer" ]
    rows;
  (* 3. Retransmission policy: exponential backoff trades rounds for
     retry traffic against a fixed timer. *)
  let rows =
    List.map
      (fun (label, spec) ->
        let outcome, s = faulty_run ("seed:3,drop:0.3," ^ spec) in
        [
          label;
          string_of_int s.rounds;
          string_of_int s.retries;
          Printf.sprintf "%.2fx"
            (float_of_int (s.messages + s.retries) /. float_of_int (max 1 s.messages));
          verdict outcome;
        ])
      [
        ("exponential", "backoff:exp");
        ("fixed@1", "backoff:fixed@1");
        ("fixed@4", "backoff:fixed@4");
      ]
  in
  print_table ~title:"retransmission policy under drop 0.3"
    ~header:[ "backoff"; "rounds"; "retries"; "overhead"; "answer" ]
    rows;
  (* 4. Budgeted evaluation: the partial answer is a sound, growing
     lower bound of the complete one. *)
  let rows =
    List.map
      (fun steps ->
        let budget = Ssd.Budget.create ~max_steps:steps () in
        let outcome, s = faulty_run ~budget "seed:4,drop:0.1" in
        let answers =
          match outcome with Ssd.Budget.Complete a | Ssd.Budget.Partial (a, _) -> a
        in
        assert (List.for_all (fun u -> List.mem u central) answers);
        [
          string_of_int steps;
          string_of_int s.rounds;
          Printf.sprintf "%d/%d" (List.length answers) (List.length central);
          verdict outcome;
        ])
      [ 2000; 12000; 12500; 13000; 20000 ]
  in
  print_table
    ~title:"step-budget sweep (drop 0.1; every partial answer checked against central)"
    ~header:[ "max-steps"; "rounds"; "answers"; "status" ]
    rows

(* ------------------------------------------------------------------ *)
(* E16 — observability: tracing overhead and a trace-driven finding     *)
(* ------------------------------------------------------------------ *)

let e16 () =
  section "E16 observability: tracing overhead; where dist wall-clock goes under loss";
  let module T = Ssd_obs.Trace in
  (* 1. Overhead: e13's repeated-query workload with tracing off vs on.
     The off case is the cost everyone pays (one ref read per
     instrumentation point); the on case additionally allocates span
     nodes and instants. *)
  let n = if !full then 5000 else 1500 in
  let db = Ssd_workload.Movies.generate ~seed:14 ~n_entries:n () in
  let queries =
    List.map Unql.Parser.parse
      [
        {| select {title: \t} where {entry.movie.title: \t} <- DB |};
        {| select {hit: \t}
           where {<entry.movie>: \m} <- DB,
                 {<cast._*."Humphrey Bogart 0">} <- m,
                 {title.\t} <- m |};
        {| select {year: \y} where {entry.movie.year.\y} <- DB |};
      ]
  in
  let run_workload () = List.iter (fun q -> ignore (Unql.Eval.eval ~db q)) queries in
  T.disable ();
  T.clear ();
  let timings =
    measure ~quota:0.6
      [
        ("tracing-off", run_workload);
        ( "tracing-on",
          fun () ->
            T.enable ();
            T.clear ();
            run_workload ();
            T.disable () );
      ]
  in
  let t name = List.assoc name timings in
  let overhead_pct = 100. *. (t "tracing-on" -. t "tracing-off") /. t "tracing-off" in
  record "tracing_overhead_pct" overhead_pct;
  print_table
    ~title:(Printf.sprintf "e13 workload (%d entries), tracing off vs on" n)
    ~header:[ "tracing"; "ns/workload" ]
    (List.map (fun (name, v) -> [ name; ns_to_string v ]) timings);
  Printf.printf "\ntracing overhead: %.1f%% (target < 10%%)\n" overhead_pct;
  (* 2. Trace-driven finding: at drop 0.2, what share of the dist
     wall-clock sits in rounds that are doing retransmission work?  Read
     straight off the trace: dist.round spans vs dist.retransmit
     instants falling inside them. *)
  let g = Ssd_workload.Webgraph.generate ~seed:15 ~n_pages:n () in
  let nfa = Ssd_automata.Nfa.of_string "host.page.(link)*.title._" in
  let partition = Ssd_dist.Decompose.partition_bfs ~k:4 g in
  T.enable ();
  T.clear ();
  ignore
    (Ssd_dist.Decompose.run ~plan:(Ssd_fault.Plan.parse "seed:1,drop:0.2") g partition
       nfa);
  let retrans =
    List.filter (fun i -> i.T.i_name = "dist.retransmit") (T.instants ())
  in
  let rounds =
    List.concat_map
      (fun s -> if s.T.name = "dist.run" then s.T.children else [])
      (T.spans ())
    |> List.filter (fun s -> s.T.name = "dist.round")
  in
  let total_round_ns = List.fold_left (fun a s -> a +. s.T.dur_ns) 0. rounds in
  let in_span s i =
    i.T.i_ts_ns >= s.T.start_ns && i.T.i_ts_ns <= s.T.start_ns +. s.T.dur_ns
  in
  let retrans_rounds = List.filter (fun s -> List.exists (in_span s) retrans) rounds in
  let retrans_ns = List.fold_left (fun a s -> a +. s.T.dur_ns) 0. retrans_rounds in
  let share = 100. *. retrans_ns /. Float.max 1. total_round_ns in
  T.disable ();
  T.clear ();
  record "retransmit_rounds" (float_of_int (List.length retrans_rounds));
  record "rounds" (float_of_int (List.length rounds));
  record "retransmit_wallclock_pct" share;
  Printf.printf
    "\ndist drop=0.2 (web graph %d pages, 4 sites), read off the trace:\n\
     rounds: %d total, %d with retransmissions (%d retransmit events)\n\
     share of dist wall-clock in retransmitting rounds: %.1f%%\n"
    n (List.length rounds)
    (List.length retrans_rounds)
    (List.length retrans) share

(* ------------------------------------------------------------------ *)
(* E17 — multicore scaling of the four parallel paths                  *)
(* ------------------------------------------------------------------ *)

let e17 () =
  section "E17 parallel evaluation: jobs sweep over the four pooled paths";
  let module Pool = Ssd_par.Pool in
  let jobs_sweep = [ 1; 2; 4; 8 ] in
  let n = if !full then 3000 else 800 in
  let web = Ssd_workload.Webgraph.generate ~seed:17 ~n_pages:n () in
  let movies = Ssd_workload.Movies.generate ~seed:17 ~n_entries:n () in
  let nfa = Ssd_automata.Nfa.of_string "host.page.(link)*.title._" in
  let unql_q =
    Unql.Parser.parse
      {| select {t: \T} where {<host.page.(link)*.title>: \T} <- DB |}
  in
  let edges =
    Graph.fold_labeled_edges (fun acc s _ d -> [ Label.int s; Label.int d ] :: acc) [] web
  in
  let edb =
    Relstore.Datalog.edb_of_list [ ("e", edges); ("start", [ [ Label.int (Graph.root web) ] ]) ]
  in
  let datalog_p =
    Relstore.Datalog.parse
      {| reach(?X) :- start(?X).  reach(?Y) :- reach(?X), e(?X, ?Y). |}
  in
  let paths =
    [
      ("product", fun () -> ignore (Ssd_automata.Product.accepting_nodes web nfa));
      ("unql_select", fun () -> ignore (Unql.Eval.eval ~db:web unql_q));
      ("datalog", fun () -> ignore (Relstore.Datalog.eval ~edb datalog_p));
      ("index_build", fun () -> ignore (Ssd_index.Value_index.build movies));
    ]
  in
  (* Equivalence first: every path's answer at every jobs value must
     equal the sequential one — the scaling numbers below are only
     meaningful because of this. *)
  Pool.set_default_jobs 1;
  let baseline =
    ( Ssd_automata.Product.accepting_nodes web nfa,
      Graph.to_string (Unql.Eval.eval ~db:web unql_q),
      Relstore.Datalog.eval ~edb datalog_p )
  in
  List.iter
    (fun jobs ->
      Pool.set_default_jobs jobs;
      let here =
        ( Ssd_automata.Product.accepting_nodes web nfa,
          Graph.to_string (Unql.Eval.eval ~db:web unql_q),
          Relstore.Datalog.eval ~edb datalog_p )
      in
      if here <> baseline then failwith (Printf.sprintf "jobs=%d answers differ!" jobs))
    jobs_sweep;
  let rows =
    List.map
      (fun (name, f) ->
        let timings =
          measure ~quota:0.4
            (List.map
               (fun jobs ->
                 ( Printf.sprintf "%s_jobs%d" name jobs,
                   fun () ->
                     Pool.set_default_jobs jobs;
                     f () ))
               jobs_sweep)
        in
        let t j = List.assoc (Printf.sprintf "%s_jobs%d" name j) timings in
        record (Printf.sprintf "%s_speedup_x4" name) (t 1 /. t 4);
        name :: List.map (fun j -> ns_to_string (t j)) jobs_sweep
        @ [ Printf.sprintf "%.2fx" (t 1 /. t 4) ])
      paths
  in
  Pool.set_default_jobs 1;
  print_table
    ~title:
      (Printf.sprintf
         "answers verified identical for all jobs; web graph %d pages (%d cores here)"
         n (Domain.recommended_domain_count ()))
    ~header:([ "path" ] @ List.map (Printf.sprintf "jobs=%d ns/op") jobs_sweep
             @ [ "speedup@4" ])
    rows

(* ------------------------------------------------------------------ *)
(* E18 — serving: open-loop latency; shed vs collapse under overload   *)
(* ------------------------------------------------------------------ *)

let e18 () =
  section "E18 serve: open-loop request latency; admission control vs queue collapse";
  let module Engine = Ssd_serve.Engine in
  let module Proto = Ssd_serve.Proto in
  let n_entries = if !full then 2000 else 500 in
  let n_reqs = if !full then 400 else 200 in
  let db = Ssd_workload.Movies.generate ~seed:18 ~n_entries () in
  let q = {| select {t: \T} where {entry.movie.title: \T} <- DB |} in
  (* cache off: every request pays the evaluation, like distinct tenants *)
  let req = "QUERY cache=off " ^ q in
  let percentile a p =
    let a = Array.of_list a in
    Array.sort compare a;
    let n = Array.length a in
    if n = 0 then nan
    else a.(max 0 (min (n - 1) (int_of_float (ceil (p /. 100. *. float n)) - 1)))
  in
  (* Open-loop generator in virtual time: request i arrives at i*ia
     regardless of the server (that is what makes overload overload);
     the single-server loop handles them in order, so
     latency_i = finish_i - arrival_i includes queueing delay.  The
     backlog the transport would report is the arrivals not yet served
     when request i starts. *)
  let open_loop ~config ~ia_ns =
    let engine = Engine.create ~config (Engine.store ~db ()) in
    let all_lat = ref [] and admit_lat = ref [] in
    let n_shed = ref 0 and n_partial = ref 0 and n_err = ref 0 in
    let now = ref 0. in
    for i = 0 to n_reqs - 1 do
      let arrive = float_of_int i *. ia_ns in
      let start = Float.max !now arrive in
      let arrived = min n_reqs (1 + int_of_float (start /. ia_ns)) in
      let queued = max 0 (arrived - i - 1) in
      let t0 = Ssd_obs.Clock.now_ns () in
      let resp, _ = Engine.handle ~queued engine req in
      let dt = Ssd_obs.Clock.now_ns () -. t0 in
      (* every answer, under any load, must be a well-formed frame *)
      (match Proto.parse_response (Proto.render_response resp) 0 with
      | Result.Ok _ -> ()
      | Result.Error _ -> incr n_err);
      let finish = start +. dt in
      let lat = finish -. arrive in
      all_lat := lat :: !all_lat;
      (match resp.Proto.status with
      | Proto.Shed -> incr n_shed
      | Proto.Partial ->
        incr n_partial;
        admit_lat := lat :: !admit_lat
      | Proto.Complete -> admit_lat := lat :: !admit_lat
      | Proto.Error | Proto.Delta -> incr n_err);
      now := finish
    done;
    (!all_lat, !admit_lat, !n_shed, !n_partial, !n_err)
  in
  (* calibrate the service time on a warm engine *)
  let warm = Engine.create (Engine.store ~db ()) in
  ignore (Engine.handle warm req);
  let _, svc_s = time_once (fun () -> ignore (Engine.handle warm req)) in
  let svc_ns = Float.max 1e4 (svc_s *. 1e9) in
  let admission =
    {
      Engine.default_config with
      Engine.shed_at = 12;
      pressure_at = 4;
      pressure_max_steps = 200;
    }
  in
  let no_admission =
    { Engine.default_config with Engine.shed_at = max_int; pressure_at = max_int }
  in
  (* A: under capacity (arrivals at half the service rate) *)
  let lat_a, _, shed_a, _, err_a = open_loop ~config:admission ~ia_ns:(2. *. svc_ns) in
  (* B: 8x overload, admission on — degrade into partial, then shed *)
  let lat_b, admit_b, shed_b, partial_b, err_b =
    open_loop ~config:admission ~ia_ns:(svc_ns /. 8.)
  in
  (* C: the same overload with admission off — the queue collapses *)
  let lat_c, _, shed_c, _, err_c = open_loop ~config:no_admission ~ia_ns:(svc_ns /. 3.) in
  if err_a + err_b + err_c > 0 then
    failwith (Printf.sprintf "e18: %d protocol errors under load!" (err_a + err_b + err_c));
  if shed_a > 0 then failwith "e18: shed under capacity!";
  if shed_c > 0 then failwith "e18: shed with admission off!";
  record "serve_p50_ns" (percentile lat_a 50.);
  record "serve_p99_ns" (percentile lat_a 99.);
  record "serve_over_shed" (float_of_int shed_b);
  record "serve_over_partial" (float_of_int partial_b);
  record "serve_over_p99_admit_ns" (percentile admit_b 99.);
  record "serve_over_p99_collapse_ns" (percentile lat_c 99.);
  print_table
    ~title:
      (Printf.sprintf
         "open loop, %d requests, service time %s; overload = 8x (admission) / 3x \
          (collapse) arrival rate"
         n_reqs (ns_to_string svc_ns))
    ~header:[ "phase"; "p50"; "p99"; "shed"; "partial" ]
    [
      [ "under capacity"; ns_to_string (percentile lat_a 50.);
        ns_to_string (percentile lat_a 99.); string_of_int shed_a; "0" ];
      [ "overload+admission"; ns_to_string (percentile lat_b 50.);
        ns_to_string (percentile lat_b 99.); string_of_int shed_b;
        string_of_int partial_b ];
      [ "overload, no admission"; ns_to_string (percentile lat_c 50.);
        ns_to_string (percentile lat_c 99.); string_of_int shed_c; "0" ];
    ];
  Printf.printf
    "(admitted p99 under overload %s vs collapsed p99 %s: shedding converts \
     queueing delay into typed refusals)\n"
    (ns_to_string (percentile admit_b 99.))
    (ns_to_string (percentile lat_c 99.))

(* ------------------------------------------------------------------ *)
(* E19 — statistics-driven planner: adversarial conjunct order         *)
(* ------------------------------------------------------------------ *)

(* A haystack: [hay] fans out to [k] distinct labels (a cheap but WIDE
   generator) and a [deep] chain of [n] nodes hides one [needle] at the
   bottom (an expensive SINGLETON regex generator).  With the wide
   generator written first, nested-loop evaluation re-runs the
   full-traversal regex once per hay binding — k * O(n) work.  The
   cardinality-annotated DataGuide tells the planner the regex yields
   one binding, so it moves that generator first: O(n) + k. *)
let e19 () =
  section "E19 planner: conjunct order chosen from DataGuide cardinalities";
  let k = if !full then 96 else 64 in
  let n = if !full then 4000 else 1500 in
  let b = Graph.Builder.create () in
  let root = Graph.Builder.add_node b in
  Graph.Builder.set_root b root;
  let hay = Graph.Builder.add_node b in
  Graph.Builder.add_edge b root (Label.sym "hay") hay;
  for i = 0 to k - 1 do
    let leaf = Graph.Builder.add_node b in
    Graph.Builder.add_edge b hay (Label.int i) leaf
  done;
  let deep = ref root in
  for _ = 1 to n do
    let next = Graph.Builder.add_node b in
    Graph.Builder.add_edge b !deep (Label.sym "deep") next;
    deep := next
  done;
  Graph.Builder.add_edge b !deep (Label.sym "needle") (Graph.Builder.add_node b);
  let db = Graph.Builder.finish b in
  let q =
    Unql.Parser.parse
      {| select {r: u} where {hay.\x: \t} <- DB, {<_*.needle>: \u} <- DB |}
  in
  let ann, t_stats = time_once (fun () -> Ssd_schema.Annotated.build db) in
  let planned, t_plan =
    time_once (fun () -> Unql.Optimize.reorder_generators ann q)
  in
  (* the rewrite must be answer-invariant before it may be fast *)
  let raw = { Unql.Eval.default_options with reorder_clauses = false } in
  if
    not
      (Ssd.Bisim.equal
         (Unql.Eval.eval ~options:raw ~db q)
         (Unql.Eval.eval ~options:raw ~db planned))
  then failwith "e19: planned answer differs from syntactic answer!";
  let timings =
    measure ~quota:0.4
      [
        ("syntactic", fun () -> ignore (Unql.Eval.eval ~options:raw ~db q));
        ("planned", fun () -> ignore (Unql.Eval.eval ~options:raw ~db planned));
      ]
  in
  let t name = List.assoc name timings in
  let speedup = t "syntactic" /. t "planned" in
  record "planner_syntax_ns" (t "syntactic");
  record "planner_planned_ns" (t "planned");
  record "planner_speedup" speedup;
  print_table
    ~title:
      (Printf.sprintf
         "answers bisimilar; %d-wide hay conjunct vs 1-result needle regex over a \
          %d-node chain"
         k n)
    ~header:[ "order"; "ns/op"; "speedup" ]
    [
      [ "as written (wide first)"; ns_to_string (t "syntactic"); "1.00x" ];
      [ "planned (singleton first)"; ns_to_string (t "planned");
        Printf.sprintf "%.2fx" speedup ];
    ];
  Printf.printf
    "(one-off planning cost: statistics %s + reorder %s; plans are cached per \
     (db, query) in Unql.Cache)\n"
    (s_to_string t_stats) (s_to_string t_plan)

(* ------------------------------------------------------------------ *)
(* E20 — persistent store: cold open vs rebuild, recovery, commits     *)
(* ------------------------------------------------------------------ *)

let e20 () =
  section "E20 store: cold open vs index rebuild, recovery cost, WAL commit latency";
  let module Store = Ssd_store.Store in
  let n = scale 400 150 in
  let db = Ssd_workload.Movies.generate ~seed:5 ~n_entries:n () in
  let db' = Ssd_workload.Movies.generate ~seed:6 ~n_entries:n () in
  let dir = Filename.temp_file "ssd_bench_store" "" in
  Sys.remove dir;
  let vfs = Ssd_store.Vfs.real dir in
  Store.close (Store.create vfs db);
  let counters =
    List.map Ssd_obs.Metrics.counter
      [ "index.value.builds"; "index.text.builds"; "index.path.builds" ]
  in
  let snapshot () = List.map Ssd_obs.Metrics.value counters in
  let entry_movie_title = List.map Label.sym [ "entry"; "movie"; "title" ] in
  (* Cold open, then the figure-1 browsing workload straight off the
     checkpointed segments — any index rebuild is a failure. *)
  let before = snapshot () in
  let (st, titles, movies), t_cold =
    time_once ~runs:1 (fun () ->
        let st = Store.open_ ~checkpoint_every:8 vfs in
        let titles =
          match Ssd_index.Path_index.find (Store.path_index st) entry_movie_title with
          | Some nodes -> nodes
          | None -> Ssd_index.Path_index.traverse (Store.graph st) entry_movie_title
        in
        let movies =
          Ssd_index.Value_index.find_nodes (Store.value_index st) (Label.sym "movie")
        in
        (st, titles, movies))
  in
  (* The untouched segments stay lazy; touching them now must still
     deserialize, not rebuild. *)
  ignore (Store.dataguide st);
  ignore (Store.text_index st);
  if snapshot () <> before then failwith "e20: cold open rebuilt an index!";
  if titles = [] || movies = [] then failwith "e20: cold open answered nothing!";
  if Store.fingerprint st <> Store.fingerprint_graph db then
    failwith "e20: cold open is not byte-identical!";
  (* The alternative a store-less start pays: rebuild everything. *)
  let g = Store.graph st in
  let _, t_rebuild =
    time_once (fun () ->
        ignore (Ssd_index.Value_index.build g);
        ignore (Ssd_index.Text_index.build g);
        ignore (Ssd_index.Path_index.build ~depth:3 g);
        ignore (Ssd_schema.Dataguide.build g))
  in
  (* Durable commit latency: alternate two versions; every commit diffs
     pages, appends to the WAL and fsyncs before returning. *)
  let flip = ref false in
  let timings =
    measure ~quota:0.4
      [
        ("commit", fun () ->
            flip := not !flip;
            Store.commit st (if !flip then db' else db));
      ]
  in
  let t_commit = List.assoc "commit" timings in
  (* Recovery: leave the handle un-checkpointed (the kill -9 shape) and
     time the ARIES open that replays the log. *)
  Store.commit st db;
  Store.commit st db';
  let st2, t_recover = time_once ~runs:1 (fun () -> Store.open_ vfs) in
  let r = Store.recovery st2 in
  if r.Store.was_clean then failwith "e20: expected recovery after an unclean stop!";
  Store.close st2;
  record "store_cold_open_ns" (t_cold *. 1e9);
  record "store_rebuild_ns" (t_rebuild *. 1e9);
  record "store_commit_ns" t_commit;
  record "store_recovery_ns" (t_recover *. 1e9);
  print_table
    ~title:
      (Printf.sprintf
         "%d-entry movie db; store holds dict+graph+value+text+path+guide segments" n)
    ~header:[ "operation"; "time" ]
    [
      [ "cold open + browse (segments)"; s_to_string t_cold ];
      [ "index rebuild from graph"; s_to_string t_rebuild ];
      [ "durable commit (WAL+fsync)"; ns_to_string t_commit ];
      [ "recovery open (redo log)"; s_to_string t_recover ];
    ];
  Printf.printf "(recovery replayed %d committed txns, discarded %d torn bytes)\n"
    r.Store.recovered_txns r.Store.torn_bytes;
  Array.iter
    (fun f ->
      try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
    (Sys.readdir dir);
  try Unix.rmdir dir with Unix.Unix_error _ -> ()

(* ------------------------------------------------------------------ *)
(* E21 — observability: scrape under load, event-log overhead          *)
(* ------------------------------------------------------------------ *)

let e21 () =
  section "E21 observability: /metrics scrape under load; event-log overhead";
  let module Engine = Ssd_serve.Engine in
  let module Metrics = Ssd_obs.Metrics in
  let module Export = Ssd_obs.Export in
  let module Events = Ssd_obs.Events in
  let n_entries = scale 2000 500 in
  let n_reqs = scale 600 300 in
  let db = Ssd_workload.Movies.generate ~seed:21 ~n_entries () in
  let q = {| select {t: \T} where {entry.movie.title: \T} <- DB |} in
  let req = "QUERY cache=off " ^ q in
  let percentile a p =
    let a = Array.of_list a in
    Array.sort compare a;
    let n = Array.length a in
    if n = 0 then nan
    else a.(max 0 (min (n - 1) (int_of_float (ceil (p /. 100. *. float n)) - 1)))
  in
  (* One scrape: snapshot the whole default registry and render the
     exposition. *)
  let scrape () = Export.openmetrics (Metrics.snapshot Metrics.default) in
  (match Export.parse (scrape ()) with
  | Result.Ok _ -> ()
  | Result.Error e -> failwith ("e21: scrape does not re-parse: " ^ e));
  let timings = measure ~quota:0.3 [ ("scrape", fun () -> ignore (scrape ())) ] in
  let t_scrape = List.assoc "scrape" timings in
  (* Request latency with and without a concurrent scraper.  The scraper
     polls at ~100 Hz — two orders of magnitude above the 1 Hz a real
     Prometheus would use — so the measured impact is a hard ceiling for
     the deployment target (<5% p99 at 1 Hz). *)
  let run_phase ~config ~scraping =
    let engine = Engine.create ~config (Engine.store ~db ()) in
    (* long enough warm-up to get allocation and lazy-init effects out of
       the measured window — the phases are compared against each other *)
    for _ = 1 to 30 do
      ignore (Engine.handle engine req)
    done;
    (* level the GC between phases: without this, garbage left by the
       preceding phase (or by bechamel) lands in this phase's tail *)
    Gc.compact ();
    let stop = Atomic.make false in
    let scraper =
      if scraping then
        Some
          (Domain.spawn (fun () ->
               let n = ref 0 in
               while not (Atomic.get stop) do
                 ignore (scrape ());
                 incr n;
                 Unix.sleepf 0.01
               done;
               !n))
      else None
    in
    let lat = ref [] in
    for _ = 1 to n_reqs do
      let t0 = Ssd_obs.Clock.now_ns () in
      ignore (Engine.handle engine req);
      lat := (Ssd_obs.Clock.now_ns () -. t0) :: !lat
    done;
    Atomic.set stop true;
    let scrapes = match scraper with Some d -> Domain.join d | None -> 0 in
    (!lat, scrapes)
  in
  let quiet = { Engine.default_config with Engine.slow_query_ms = 1e9 } in
  (* throwaway phase: the first batch after process start (and after
     bechamel's churn) carries one-time tail noise whoever runs it *)
  ignore (run_phase ~config:quiet ~scraping:false);
  let lat_base, _ = run_phase ~config:quiet ~scraping:false in
  let lat_scraped, n_scrapes = run_phase ~config:quiet ~scraping:true in
  if n_scrapes = 0 then failwith "e21: the scraper never ran!";
  (* Slow-query telemetry on every request: threshold 0 makes each query
     pay the full event path (plan, cardinality estimate, ring emit). *)
  let chatty = { Engine.default_config with Engine.slow_query_ms = 0. } in
  let lat_events, _ = run_phase ~config:chatty ~scraping:false in
  let impact p a b =
    let pa = percentile a p and pb = percentile b p in
    (pb -. pa) /. pa *. 100.
  in
  let scrape_impact = impact 99. lat_base lat_scraped in
  let events_impact = impact 50. lat_base lat_events in
  let events_impact_p99 = impact 99. lat_base lat_events in
  (* The deployment target is a 1 Hz scrape; its CPU duty cycle is one
     scrape per second.  That is the machine-independent overhead bound —
     the concurrent-domain numbers above it also carry this host's
     scheduler and stop-the-world noise (pronounced on few-core boxes). *)
  let duty_1hz_pct = t_scrape /. 1e9 *. 100. in
  if duty_1hz_pct > 5. then
    failwith
      (Printf.sprintf "e21: a 1 Hz scrape costs %.2f%% of a core (target <5%%)!"
         duty_1hz_pct);
  (* Raw emit cost, ring only (no sink): the price of leaving events on. *)
  let log = Events.create ~registry:(Metrics.create ()) () in
  let fields = [ ("tenant", Ssd.Json.String "bench"); ("i", Ssd.Json.Int 0) ] in
  let emit_timings =
    measure ~quota:0.3 [ ("emit", fun () -> Events.emit log "bench" fields) ]
  in
  let t_emit = List.assoc "emit" emit_timings in
  record "admin_scrape_ns" t_scrape;
  record "admin_scrape_duty_1hz_pct" duty_1hz_pct;
  record "events_emit_ns" t_emit;
  record "events_slowlog_p50_impact_pct" events_impact;
  print_table
    ~title:
      (Printf.sprintf
         "%d requests against a %d-entry db; scraper at ~100 Hz (%d scrapes during \
          the run)"
         n_reqs n_entries n_scrapes)
    ~header:[ "measurement"; "value" ]
    [
      [ "one /metrics scrape (snapshot+render)"; ns_to_string t_scrape ];
      [ "CPU duty of a 1 Hz scrape"; Printf.sprintf "%.4f%%" duty_1hz_pct ];
      [ "request p99, no scraper"; ns_to_string (percentile lat_base 99.) ];
      [ "request p99, scraper at ~100 Hz"; ns_to_string (percentile lat_scraped 99.) ];
      [ "p99 interference at 100 Hz (host-dependent)";
        Printf.sprintf "%+.1f%%" scrape_impact ];
      [ "slow-query telemetry p50 / p99 impact";
        Printf.sprintf "%+.1f%% / %+.1f%%" events_impact events_impact_p99 ];
      [ "one event emit (ring only)"; ns_to_string t_emit ];
    ]

(* ------------------------------------------------------------------ *)
(* E22 — incremental maintenance: 1-edge update vs full rebuild        *)
(* ------------------------------------------------------------------ *)

let e22 () =
  section "E22 incremental maintenance: delta-driven updates vs full rebuild";
  let module State = Ssd_incr.State in
  let module Delta = Ssd_incr.Delta in
  let depth = 3 in
  let names = Ssd_store.Store.all_indexes in
  (* One inserted edge: a fresh string-labeled leaf hung off the root.
     Node ids are preserved (import_into), so the delta is monotone and
     the maintainer must take the insert-only fast path. *)
  let add_edit g k =
    let b = Graph.Builder.create () in
    let (_ : int) = Graph.import_into b g in
    Graph.Builder.set_root b (Graph.root g);
    let v = Graph.Builder.add_node b in
    Graph.Builder.add_edge b (Graph.root g) (Label.str (Printf.sprintf "edit %d" k)) v;
    Graph.Builder.finish b
  in
  let k_steps = scale 128 64 in
  let sizes = scale [ 1000; 4000; 16000 ] [ 500; 2000 ] in
  let builds g =
    ( Ssd_index.Value_index.build g,
      Ssd_index.Text_index.build g,
      Ssd_index.Path_index.build ~depth g,
      Ssd_schema.Dataguide.build g )
  in
  let last_speedup = ref nan in
  let rows =
    List.map
      (fun n ->
        let g0 = Ssd_workload.Webgraph.generate ~seed:22 ~n_pages:n () in
        (* a chain of k_steps single-edge versions, deltas precomputed *)
        let steps =
          let rec go g k acc =
            if k = k_steps then List.rev acc
            else begin
              let g' = add_edit g k in
              let d = Delta.diff g g' in
              if not (Delta.monotone d) || Delta.n_added d <> 1 then
                failwith "e22: the 1-edge insert is not a monotone 1-edge delta!";
              go g' (k + 1) ((g', d) :: acc)
            end
          in
          go g0 0 []
        in
        let final = fst (List.nth steps (k_steps - 1)) in
        let v0, t0, p0, d0 = builds g0 in
        let vb = Ssd_index.Value_index.to_bytes v0
        and tb = Ssd_index.Text_index.to_bytes t0
        and pb = Ssd_index.Path_index.to_bytes p0
        and db = Ssd_schema.Dataguide.to_bytes d0 in
        (* The value and path indexes are mutated in place by [advance],
           so every timed pass adopts fresh deserialized copies; the
           adoption happens outside the timed window. *)
        let fresh_state () =
          State.create ~path_depth:depth ~names
            ~vindex:(Ssd_index.Value_index.of_bytes vb)
            ~tindex:(Ssd_index.Text_index.of_bytes tb)
            ~pindex:(Ssd_index.Path_index.of_bytes pb)
            ~guide:(Ssd_schema.Dataguide.of_bytes db)
            g0
        in
        let advance_pass st =
          List.iter
            (fun (g', d) ->
              match State.advance st g' d with
              | State.Fast_path -> ()
              | State.Rebuilt -> failwith "e22: a 1-edge insert fell back to rebuild!")
            steps
        in
        (* Differential sanity: after the whole chain, every maintained
           structure is byte-identical to a fresh build of the final
           graph. *)
        let check =
          let st = fresh_state () in
          advance_pass st;
          let vf, tf, pf, df = builds final in
          Bytes.equal (Ssd_index.Value_index.to_bytes (Option.get (State.value_index st)))
            (Ssd_index.Value_index.to_bytes vf)
          && Bytes.equal (Ssd_index.Text_index.to_bytes (Option.get (State.text_index st)))
               (Ssd_index.Text_index.to_bytes tf)
          && Bytes.equal (Ssd_index.Path_index.to_bytes (Option.get (State.path_index st)))
               (Ssd_index.Path_index.to_bytes pf)
          && Bytes.equal (Ssd_schema.Dataguide.to_bytes (Option.get (State.dataguide st)))
               (Ssd_schema.Dataguide.to_bytes df)
        in
        if not check then failwith "e22: maintained structures differ from fresh builds!";
        (* ns per 1-edge advance: one pass over the chain, best of 5 *)
        let t_advance =
          let best = ref infinity in
          for _ = 1 to 5 do
            let st = fresh_state () in
            let w0 = Unix.gettimeofday () in
            advance_pass st;
            let dt = Unix.gettimeofday () -. w0 in
            if dt < !best then best := dt
          done;
          !best /. float k_steps *. 1e9
        in
        (* what the store's commit path pays to find the delta, and what
           a maintenance-free engine pays instead of the advance *)
        let g1, _ = List.hd steps in
        let timings =
          measure ~quota:0.3
            [
              ("diff", fun () -> ignore (Delta.diff g0 g1));
              ("rebuild", fun () -> ignore (builds final));
            ]
        in
        let t_diff = List.assoc "diff" timings in
        let t_rebuild = List.assoc "rebuild" timings in
        let speedup = t_rebuild /. t_advance in
        last_speedup := speedup;
        record "incr_advance_1edge_ns" t_advance;
        record "incr_diff_ns" t_diff;
        record "incr_rebuild_ns" t_rebuild;
        record "incr_speedup" speedup;
        [
          string_of_int n;
          string_of_int (Graph.n_edges g0);
          ns_to_string t_advance;
          ns_to_string t_diff;
          ns_to_string t_rebuild;
          Printf.sprintf "%.0fx" speedup;
        ])
      sizes
  in
  print_table
    ~title:
      (Printf.sprintf
         "webgraph, 1-edge insert: incremental value+text+path+guide vs full rebuild \
          (%d-step chains)"
         k_steps)
    ~header:[ "pages"; "edges"; "advance"; "diff"; "rebuild"; "speedup" ]
    rows;
  (* The claim of the incremental plane: maintenance cost tracks the
     delta, not the database.  At the largest size the fast path must
     beat a full rebuild by an order of magnitude. *)
  if !last_speedup < 10. then
    failwith
      (Printf.sprintf "e22: incremental advance only %.1fx faster than rebuild (need 10x)!"
         !last_speedup)

let experiments =
  [
    ("e1", e1); ("e2", e2); ("e3", e3); ("e4", e4); ("e5", e5);
    ("e6", e6); ("e7", e7); ("e8", e8); ("e9", e9); ("e10", e10); ("e11", e11);
    ("e12", e12); ("e13", e13); ("e14", e14); ("e15", e15); ("e16", e16);
    ("e17", e17); ("e18", e18); ("e19", e19); ("e20", e20); ("e21", e21);
    ("e22", e22);
  ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let args =
    List.filter
      (fun a ->
        if a = "--full" then begin
          full := true;
          false
        end
        else true)
      args
  in
  let json_path = ref "BENCH.json" in
  let rec strip_json acc = function
    | "--json" :: path :: rest ->
      json_path := path;
      strip_json acc rest
    | a :: rest -> strip_json (a :: acc) rest
    | [] -> List.rev acc
  in
  let args = strip_json [] args in
  let selected = if args = [] then List.map fst experiments else args in
  List.iter
    (fun name ->
      if not (List.mem_assoc name experiments) then begin
        Printf.eprintf "unknown experiment %s\n" name;
        exit 2
      end)
    selected;
  match selected with
  | [ name ] ->
    set_experiment name;
    (List.assoc name experiments) ();
    write_bench_json !json_path
  | _ ->
    (* One child process per experiment, so no experiment's heap, metrics
       registry or warm caches bleed into the next one's timings; each
       child merges its own entries into the JSON record. *)
    Printf.printf "# Semistructured Data (PODS'97) — reconstructed evaluation\n";
    Printf.printf "(sizes: %s; see EXPERIMENTS.md for the experiment index)\n%!"
      (if !full then "full" else "default");
    List.iter
      (fun name ->
        let argv =
          Array.of_list
            ((Sys.executable_name :: name :: (if !full then [ "--full" ] else []))
            @ [ "--json"; !json_path ])
        in
        let pid =
          Unix.create_process Sys.executable_name argv Unix.stdin Unix.stdout Unix.stderr
        in
        match Unix.waitpid [] pid with
        | _, Unix.WEXITED 0 -> ()
        | _ ->
          Printf.eprintf "experiment %s failed\n%!" name;
          exit 1)
      selected
