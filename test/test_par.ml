(* Parallel-vs-sequential equivalence.

   The contract under test: for every evaluator threaded through
   lib/par, the answer is a pure function of the query and the data —
   [--jobs N] changes wall-clock time only.  Sequential (jobs=1) runs
   are the specification; parallel runs with jobs ∈ {2,4,8} must agree
   exactly (same answer sets, bisimilar result graphs, identical
   stats counters, identical cache fingerprints). *)

module Pool = Ssd_par.Pool
module Graph = Ssd.Graph
module Label = Ssd.Label
module Metrics = Ssd_obs.Metrics
module Nfa = Ssd_automata.Nfa
module Product = Ssd_automata.Product
open Gen

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* Run [f] with the shared pool sized to [jobs], restoring jobs=1 after. *)
let with_jobs jobs f =
  Pool.set_default_jobs jobs;
  Fun.protect ~finally:(fun () -> Pool.set_default_jobs 1) f

let all_jobs = [ 2; 4; 8 ]

(* ------------------------------------------------------------------ *)
(* Pool primitives                                                     *)
(* ------------------------------------------------------------------ *)

let map_range_is_init =
  qtest "pool: map_range = Array.init for any jobs" ~count:60
    (Q.pair (Q.int_range 0 300) (Q.oneofl [ 1; 2; 3; 4; 8 ]))
    (fun (n, jobs) ->
      let pool = Pool.create ~jobs in
      let expect = Array.init n (fun i -> (i * 7) mod 13) in
      let got = Pool.map_range ~pool ~min_par:1 n (fun i -> (i * 7) mod 13) in
      Pool.shutdown pool;
      got = expect)

let fold_chunks_is_seq_fold =
  (* combine is chunking-invariant (list concat in ascending order), so
     every chunking must reproduce the sequential left fold. *)
  qtest "pool: fold_chunks = sequential fold for any jobs" ~count:60
    (Q.pair (Q.int_range 0 200) (Q.oneofl [ 1; 2; 4; 8 ]))
    (fun (n, jobs) ->
      let pool = Pool.create ~jobs in
      let chunk lo hi = List.init (hi - lo) (fun k -> lo + k) in
      let got =
        Pool.fold_chunks ~pool ~n ~chunk ~combine:(fun acc part -> acc @ part) []
      in
      Pool.shutdown pool;
      got = List.init n Fun.id)

(* ------------------------------------------------------------------ *)
(* NFA-product path search                                             *)
(* ------------------------------------------------------------------ *)

let product_jobs_invariant =
  qtest "product: accepting_nodes identical for all jobs" ~count:40
    (Q.pair graph small_regex)
    (fun (g, r) ->
      let nfa = Nfa.of_regex r in
      let seq = Product.accepting_nodes g nfa in
      List.for_all
        (fun jobs -> with_jobs jobs (fun () -> Product.accepting_nodes g nfa) = seq)
        all_jobs)

(* ------------------------------------------------------------------ *)
(* UnQL evaluation                                                     *)
(* ------------------------------------------------------------------ *)

let unql_jobs_invariant =
  qtest "unql: parallel eval bisimilar to sequential" ~count:40
    (Q.pair graph unql_query)
    (fun (db, q) ->
      let seq = Unql.Eval.eval ~db q in
      List.for_all
        (fun jobs ->
          let par = with_jobs jobs (fun () -> Unql.Eval.eval ~db q) in
          Ssd.Bisim.equal par seq)
        all_jobs)

let unql_sfun_jobs_invariant =
  (* Structural recursion: the parallel edge scan must leave the result
     graph — including its printed form, which exposes node sharing —
     byte-identical. *)
  let db = Ssd_workload.Webgraph.generate ~n_pages:120 () in
  let q = Unql.Parser.parse {| let sfun f({\l: t}) = {l: f(t)} in f(DB) |} in
  Alcotest.test_case "unql: sfun result printed identically for all jobs" `Quick
    (fun () ->
      let seq = Graph.to_string (Unql.Eval.eval ~db q) in
      List.iter
        (fun jobs ->
          let par =
            with_jobs jobs (fun () -> Graph.to_string (Unql.Eval.eval ~db q))
          in
          check (Printf.sprintf "jobs=%d byte-identical" jobs) true (par = seq))
        all_jobs)

(* ------------------------------------------------------------------ *)
(* Datalog                                                             *)
(* ------------------------------------------------------------------ *)

let datalog_jobs_invariant =
  let edb =
    [
      ("e", List.init 60 (fun i -> [ Label.int i; Label.int ((i * 3 + 1) mod 60) ]));
      ("start", [ [ Label.int 0 ] ]);
      ("node", List.init 60 (fun i -> [ Label.int i ]));
    ]
    |> Relstore.Datalog.edb_of_list
  in
  let program =
    Relstore.Datalog.parse
      {| reach(?X) :- start(?X).
         reach(?Y) :- reach(?X), e(?X, ?Y).
         unreach(?X) :- node(?X), not reach(?X). |}
  in
  Alcotest.test_case "datalog: least model identical for all jobs" `Quick
    (fun () ->
      let seq = Relstore.Datalog.eval ~edb program in
      List.iter
        (fun jobs ->
          let par = with_jobs jobs (fun () -> Relstore.Datalog.eval ~edb program) in
          check (Printf.sprintf "jobs=%d exact equality" jobs) true (par = seq))
        all_jobs)

(* ------------------------------------------------------------------ *)
(* Indexes                                                             *)
(* ------------------------------------------------------------------ *)

let indexes_jobs_invariant =
  qtest "index: value/text/path builds identical for all jobs" ~count:25 graph
    (fun g ->
      let module V = Ssd_index.Value_index in
      let module T = Ssd_index.Text_index in
      let module P = Ssd_index.Path_index in
      let probe_labels =
        Graph.fold_labeled_edges (fun acc _ l _ -> l :: acc) [] g
      in
      let snapshot () =
        let v = V.build g in
        let t = T.build g in
        let p = P.build ~depth:3 g in
        ( List.map (fun l -> V.find v l) probe_labels,
          V.n_labels v,
          T.find_prefix t "a",
          T.find_word t "movie",
          T.n_entries t,
          P.n_paths p )
      in
      let seq = snapshot () in
      List.for_all (fun jobs -> with_jobs jobs snapshot = seq) all_jobs)

(* ------------------------------------------------------------------ *)
(* Determinism: stats counters                                         *)
(* ------------------------------------------------------------------ *)

let stats_jobs_invariant =
  (* Counter totals — not just answers — must be independent of jobs:
     worker-side increments commute and the work set is deterministic. *)
  let db = Ssd_workload.Webgraph.generate ~n_pages:150 () in
  let q =
    Unql.Parser.parse
      {| select {t: \T} where {<host.page.(link)*.title>: \T} <- DB |}
  in
  let counters_after jobs =
    Metrics.reset Metrics.default;
    let g = with_jobs jobs (fun () -> Unql.Eval.eval ~db q) in
    (Graph.to_string g, Metrics.counters Metrics.default)
  in
  Alcotest.test_case "stats: counters identical for all jobs" `Quick
    (fun () ->
      let seq = counters_after 1 in
      List.iter
        (fun jobs ->
          let par = counters_after jobs in
          check (Printf.sprintf "jobs=%d answer+counters" jobs) true (par = seq))
        all_jobs)

let runs_at_same_jobs_deterministic =
  qtest "determinism: two jobs=4 runs identical" ~count:30
    (Q.pair graph unql_query)
    (fun (db, q) ->
      with_jobs 4 (fun () ->
          let a = Graph.to_string (Unql.Eval.eval ~db q) in
          let b = Graph.to_string (Unql.Eval.eval ~db q) in
          a = b))

(* ------------------------------------------------------------------ *)
(* Cache keys are jobs-free                                            *)
(* ------------------------------------------------------------------ *)

let cache_hits_across_jobs =
  (* Regression: the cache key (query fingerprint × data fingerprint)
     must not incorporate the jobs count — a result computed at jobs=1
     is served from cache at jobs=4 and vice versa. *)
  let db = Ssd_workload.Movies.figure1 () in
  let q =
    Unql.Parser.parse {| select {t: \T} where {entry.movie.title: \T} <- DB |}
  in
  Alcotest.test_case "cache: hits across differing jobs values" `Quick
    (fun () ->
      check_int "fingerprint is jobs-free" (Unql.Cache.query_fingerprint q)
        (with_jobs 4 (fun () -> Unql.Cache.query_fingerprint q));
      let cache = Unql.Cache.create () in
      let g1 = Unql.Cache.eval ~cache ~db q in
      let stats1 = Unql.Cache.stats cache in
      check_int "first run misses" 1 stats1.Unql.Cache.misses;
      let g4 = with_jobs 4 (fun () -> Unql.Cache.eval ~cache ~db q) in
      let stats4 = Unql.Cache.stats cache in
      check_int "jobs=4 run hits the jobs=1 entry" 1 stats4.Unql.Cache.hits;
      check_int "no extra miss" 1 stats4.Unql.Cache.misses;
      check "same result" true (Ssd.Bisim.equal g1 g4))

let tests =
  [
    map_range_is_init;
    fold_chunks_is_seq_fold;
    product_jobs_invariant;
    unql_jobs_invariant;
    unql_sfun_jobs_invariant;
    datalog_jobs_invariant;
    indexes_jobs_invariant;
    stats_jobs_invariant;
    runs_at_same_jobs_deterministic;
    cache_hits_across_jobs;
  ]
