(* Differential testing of the incremental maintainer (lib/incr): over
   random graphs and random update sequences, the incrementally
   maintained value/text/path indexes and DataGuide must stay
   byte-identical (canonical [to_bytes]) to structures rebuilt from
   scratch after every single step — and insert-only steps must actually
   take the fast path, or the whole exercise proves nothing. *)

module Graph = Ssd.Graph
module Label = Ssd.Label
module Delta = Ssd_incr.Delta
module State = Ssd_incr.State
module Guide_inc = Ssd_incr.Guide_inc
module Value_index = Ssd_index.Value_index
module Text_index = Ssd_index.Text_index
module Path_index = Ssd_index.Path_index
module Dataguide = Ssd_schema.Dataguide
module Q = QCheck2.Gen

let all_names = [ "value"; "text"; "path"; "guide" ]
let path_depth = 3

(* ------------------------------------------------------------------ *)
(* Update operations                                                   *)
(* ------------------------------------------------------------------ *)

type op =
  | Add_edges of (int * Label.t * int) list  (* between existing nodes *)
  | Graft of int * Label.t list  (* chain of fresh nodes off an existing one *)
  | Add_eps of int * int
  | Del_edge of int  (* drop the k-th edge (mod n_edges) *)

let monotone_op = function Del_edge _ -> false | _ -> true

(* Apply an op, preserving every existing node id (inserts reuse the
   builder-import identity; deletion rebuilds all nodes and drops one
   edge — same ids, so only the edge multiset changes). *)
let apply_op g op =
  let n = Graph.n_nodes g in
  match op with
  | Del_edge k ->
    let n_e = Graph.n_edges g in
    if n_e = 0 then g
    else begin
      let k = k mod n_e in
      let b = Graph.Builder.create () in
      for _ = 1 to n do
        ignore (Graph.Builder.add_node b)
      done;
      Graph.Builder.set_root b (Graph.root g);
      let (_ : int) =
        Graph.fold_edges
          (fun i u l v ->
            if i <> k then begin
              match l with
              | Graph.Eps -> Graph.Builder.add_eps b u v
              | Graph.Lab l -> Graph.Builder.add_edge b u l v
            end;
            i + 1)
          0 g
      in
      Graph.Builder.finish b
    end
  | _ ->
    let b = Graph.Builder.create () in
    let (_ : int) = Graph.import_into b g in
    Graph.Builder.set_root b (Graph.root g);
    (match op with
    | Add_edges es ->
      List.iter
        (fun (u, l, v) -> Graph.Builder.add_edge b (u mod n) l (v mod n))
        es
    | Graft (u, labs) ->
      let cur = ref (u mod n) in
      List.iter
        (fun l ->
          let v = Graph.Builder.add_node b in
          Graph.Builder.add_edge b !cur l v;
          cur := v)
        labs
    | Add_eps (u, v) -> Graph.Builder.add_eps b (u mod n) (v mod n)
    | Del_edge _ -> assert false);
    Graph.Builder.finish b

let op_gen : op Q.t =
  let open Q in
  oneof
    [
      map
        (fun es -> Add_edges es)
        (list_size (int_range 1 3)
           (triple (int_range 0 100) Gen.label (int_range 0 100)));
      map2 (fun u labs -> Graft (u, labs))
        (int_range 0 100)
        (list_size (int_range 1 3) Gen.label);
      map2 (fun u v -> Add_eps (u, v)) (int_range 0 100) (int_range 0 100);
      map (fun k -> Del_edge k) (int_range 0 1000);
    ]

let insert_op_gen : op Q.t =
  let open Q in
  oneof
    [
      map (fun es -> Add_edges es)
        (list_size (int_range 1 3)
           (triple (int_range 0 100) Gen.label (int_range 0 100)));
      map2 (fun u labs -> Graft (u, labs))
        (int_range 0 100)
        (list_size (int_range 1 3) Gen.label);
      map2 (fun u v -> Add_eps (u, v)) (int_range 0 100) (int_range 0 100);
    ]

(* ------------------------------------------------------------------ *)
(* The byte-identity oracle                                            *)
(* ------------------------------------------------------------------ *)

let scratch_equal st g =
  let beq a b = Bytes.equal a b in
  (match State.value_index st with
  | None -> true
  | Some vi -> beq (Value_index.to_bytes vi) (Value_index.to_bytes (Value_index.build g)))
  && (match State.text_index st with
     | None -> true
     | Some ti -> beq (Text_index.to_bytes ti) (Text_index.to_bytes (Text_index.build g)))
  && (match State.path_index st with
     | None -> true
     | Some pi ->
       beq (Path_index.to_bytes pi)
         (Path_index.to_bytes (Path_index.build ~depth:path_depth g)))
  && (match State.dataguide st with
     | None -> true
     | Some dg ->
       beq (Dataguide.to_bytes dg) (Dataguide.to_bytes (Dataguide.build g)))

(* Run a sequence of ops through one maintained state, checking the
   oracle after every step; also check that insert-only ops really take
   the fast path (on them the maintainer must not silently rebuild). *)
let run_differential ?(donated = false) g0 ops =
  let st =
    if donated then
      State.create ~path_depth ~names:all_names
        ~vindex:(Value_index.build g0)
        ~tindex:(Text_index.build g0)
        ~pindex:(Path_index.build ~depth:path_depth g0)
        ~guide:(Dataguide.build g0) g0
    else State.create ~path_depth ~names:all_names g0
  in
  List.for_all
    (fun op ->
      let g = State.graph st in
      let g' = apply_op g op in
      let d = Delta.diff g g' in
      let outcome = State.advance st g' d in
      let fast_ok =
        (not (monotone_op op)) || outcome = State.Fast_path
      in
      fast_ok && scratch_equal st g')
    ops

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let props =
  [
    Gen.qtest "mixed update sequences: incremental = scratch" ~count:120
      (Q.pair Gen.graph (Q.list_size (Q.int_range 1 8) op_gen))
      (fun (g, ops) -> run_differential g ops);
    Gen.qtest "insert-only sequences: fast path = scratch" ~count:120
      (Q.pair Gen.graph (Q.list_size (Q.int_range 1 8) insert_op_gen))
      (fun (g, ops) -> run_differential g ops);
    Gen.qtest "donated structures are adopted correctly" ~count:60
      (Q.pair Gen.graph (Q.list_size (Q.int_range 1 5) op_gen))
      (fun (g, ops) -> run_differential ~donated:true g ops);
    Gen.qtest "guide maintenance alone over inserts" ~count:80
      (Q.pair Gen.graph (Q.list_size (Q.int_range 1 6) insert_op_gen))
      (fun (g, ops) ->
        let gi = Guide_inc.of_graph g in
        let cur = ref g in
        List.for_all
          (fun op ->
            let g' = apply_op !cur op in
            let d = Delta.diff !cur g' in
            assert (Delta.monotone d);
            (* touched = reverse-ε-closure of added sources, computed
               here the slow way for independence from State *)
            let sources =
              List.sort_uniq compare
                (List.map (fun (e : Delta.edge) -> e.Delta.src) d.Delta.added)
            in
            let touched =
              List.concat_map
                (fun u ->
                  List.filter
                    (fun w -> List.mem u (Graph.eps_closure g' w))
                    (List.init (Graph.n_nodes g') Fun.id))
                sources
              |> List.sort_uniq compare
            in
            Guide_inc.apply gi g' ~touched;
            cur := g';
            Bytes.equal
              (Dataguide.to_bytes (Guide_inc.materialize gi))
              (Dataguide.to_bytes (Dataguide.build g')))
          ops);
    Gen.qtest "delta diff round-trips: applying ops matches the diff"
      ~count:100
      (Q.pair Gen.graph op_gen)
      (fun (g, op) ->
        let g' = apply_op g op in
        let d = Delta.diff g g' in
        (* reversing the diff on the edge multiset recovers the old one *)
        let count tbl e dlt =
          let c = dlt + Option.value ~default:0 (Hashtbl.find_opt tbl e) in
          if c = 0 then Hashtbl.remove tbl e else Hashtbl.replace tbl e c
        in
        let tbl = Hashtbl.create 64 in
        Graph.fold_edges (fun () u l v -> count tbl (u, l, v) 1) () g;
        List.iter (fun (e : Delta.edge) -> count tbl (e.Delta.src, e.Delta.lab, e.Delta.dst) 1) d.Delta.added;
        List.iter (fun (e : Delta.edge) -> count tbl (e.Delta.src, e.Delta.lab, e.Delta.dst) (-1)) d.Delta.removed;
        Graph.fold_edges (fun () u l v -> count tbl (u, l, v) (-1)) () g';
        (* and the diff is minimal: no edge is both added and removed *)
        let key (e : Delta.edge) = (e.Delta.src, e.Delta.lab, e.Delta.dst) in
        Hashtbl.length tbl = 0
        && not
             (List.exists
                (fun a -> List.exists (fun r -> key r = key a) d.Delta.removed)
                d.Delta.added));
  ]

(* ------------------------------------------------------------------ *)
(* Datalog incremental maintenance                                     *)
(* ------------------------------------------------------------------ *)

module Datalog = Relstore.Datalog

(* Recursive reachability plus a comparison rule: exercises IDB-on-IDB
   delta rounds and the Cmp-in-body path. *)
let incr_prog =
  Datalog.parse
    "reach(?X) :- root(?X).\n\
     reach(?Y) :- reach(?X), edge(?X, ?L, ?Y).\n\
     selfloop(?X) :- edge(?X, ?L, ?Y), ?X = ?Y.\n\
     hop2(?X, ?Z) :- edge(?X, ?L, ?Y), edge(?Y, ?M, ?Z)."

let sorted_model r =
  List.filter_map
    (fun (p, ts) ->
      match List.sort_uniq compare ts with [] -> None | ts -> Some (p, ts))
    r
  |> List.sort compare

let edge_tuple (u, l, v) = [ Label.Int u; l; Label.Int v ]

(* Split a random edge set into a base EDB and insertion batches; the
   retained model advanced batch by batch must equal evaluating from
   scratch over everything inserted so far, and each [advance] must
   return exactly the model difference. *)
let datalog_incremental_differential (edges, cut) =
  let edges = List.map (fun (u, l, v) -> (u mod 6, l, v mod 6)) edges in
  let n = List.length edges in
  let k = if n = 0 then 0 else cut mod (n + 1) in
  let base = List.filteri (fun i _ -> i < k) edges in
  let rest = List.filteri (fun i _ -> i >= k) edges in
  let root = [ ("root", [ [ Label.Int 0 ] ]) ] in
  let edb_of es = Datalog.edb_of_list (("edge", List.map edge_tuple es) :: root) in
  let st = Datalog.Incremental.prepare ~edb:(edb_of base) incr_prog in
  let cur = ref base in
  List.for_all
    (fun e ->
      let before = sorted_model (Datalog.Incremental.result st) in
      let fresh =
        Datalog.Incremental.advance st
          ~edb_delta:[ ("edge", [ edge_tuple e ]) ]
      in
      cur := e :: !cur;
      let after = sorted_model (Datalog.Incremental.result st) in
      let scratch = sorted_model (Datalog.eval ~edb:(edb_of !cur) incr_prog) in
      (* retained model = scratch model *)
      after = scratch
      (* and the reported delta is exactly the difference *)
      && sorted_model fresh
         = List.filter_map
             (fun (p, ts) ->
               let old = Option.value ~default:[] (List.assoc_opt p before) in
               match List.filter (fun t -> not (List.mem t old)) ts with
               | [] -> None
               | ts -> Some (p, ts))
             after)
    rest

(* A state reads its EDB in place and keeps inserted tuples to itself:
   re-inserting tuples the EDB already holds derives nothing, and after
   advancing, the EDB still prepares to the original model. *)
let datalog_advance_keeps_edb (edges, extra) =
  let tuples = List.map (fun (u, l, v) -> edge_tuple (u mod 6, l, v mod 6)) in
  let edb =
    Datalog.edb_of_list [ ("edge", tuples edges); ("root", [ [ Label.Int 0 ] ]) ]
  in
  let model () =
    sorted_model (Datalog.Incremental.result (Datalog.Incremental.prepare ~edb incr_prog))
  in
  let original = model () in
  let st = Datalog.Incremental.prepare ~edb incr_prog in
  Datalog.Incremental.advance st
    ~edb_delta:[ ("edge", List.rev (tuples edges)); ("root", [ [ Label.Int 0 ] ]) ]
  = []
  && sorted_model (Datalog.Incremental.result st) = original
  && (ignore (Datalog.Incremental.advance st ~edb_delta:[ ("edge", tuples extra) ]);
      model () = original)

let datalog_rejects_negation () =
  let p =
    Datalog.parse
      "reach(?X) :- root(?X).\n\
       reach(?Y) :- reach(?X), edge(?X, ?L, ?Y).\n\
       dead(?X) :- edge(?X, ?L, ?Y), not reach(?X)."
  in
  Alcotest.(check bool) "supported is false" false (Datalog.Incremental.supported p);
  Alcotest.check_raises "prepare raises Unsafe (SSD213)"
    (Datalog.Unsafe
       (Ssd_diag.make Ssd_diag.Error ~code:"SSD213"
          "incremental maintenance requires a negation-free program"))
    (fun () ->
      ignore
        (Datalog.Incremental.prepare
           ~edb:(Datalog.edb_of_list [ ("root", [ [ Label.Int 0 ] ]) ])
           p))

(* ------------------------------------------------------------------ *)
(* Footprints and cache revalidation                                   *)
(* ------------------------------------------------------------------ *)

let footprint_cases () =
  let fp = Unql.Footprint.of_string in
  let labels q = Unql.Footprint.labels (fp q) in
  Alcotest.(check bool)
    "existence query has a finite footprint" true
    (labels {| select {hit: {}} where {entry.movie.title: _} <- DB |}
    = Some
        (List.sort Label.compare
           [ Label.sym "entry"; Label.sym "movie"; Label.sym "title" ]));
  Alcotest.(check bool)
    "subtree binder widens to top" true
    (Unql.Footprint.is_top
       (fp {| select {t: \T} where {entry.movie.title: \T} <- DB |}));
  Alcotest.(check bool)
    "label binder widens to top" true
    (Unql.Footprint.is_top (fp {| select {kind: \k} where {entry.\k: _} <- DB |}));
  Alcotest.(check bool)
    "structural recursion widens to top" true
    (Unql.Footprint.is_top
       (fp "let sfun f({a: T}) = {first} | f({_: T}) = {rest} in f(DB)"));
  Alcotest.(check bool)
    "parse error widens to top" true
    (Unql.Footprint.is_top (fp "select where"));
  (* disjointness: finite vs finite only *)
  let f = fp {| select {hit: {}} where {entry.movie.title: _} <- DB |} in
  Alcotest.(check bool) "disjoint from unrelated labels" true
    (Unql.Footprint.disjoint f (Some [ Label.sym "cast" ]));
  Alcotest.(check bool) "not disjoint from its own label" false
    (Unql.Footprint.disjoint f (Some [ Label.sym "title" ]));
  Alcotest.(check bool) "never disjoint from a top delta" false
    (Unql.Footprint.disjoint f None)

let revalidate_keeps_disjoint () =
  let g0 = Ssd_workload.Movies.figure1 () in
  let g1 =
    (* add an edge under a label no query below touches *)
    let b = Graph.Builder.create () in
    let (_ : int) = Graph.import_into b g0 in
    Graph.Builder.set_root b (Graph.root g0);
    let x = Graph.Builder.add_node b in
    Graph.Builder.add_edge b (Graph.root g0) (Label.sym "annex") x;
    Graph.Builder.finish b
  in
  let c = Unql.Cache.create ~capacity:8 () in
  let q_keep = {| select {hit: {}} where {entry.movie.title: _} <- DB |} in
  let q_drop = {| select {t: \T} where {entry.movie.title: \T} <- DB |} in
  let r_keep = Unql.Cache.run ~cache:c ~db:g0 q_keep in
  let (_ : Graph.t) = Unql.Cache.run ~cache:c ~db:g0 q_drop in
  let d = Delta.diff g0 g1 in
  let delta_labels = Delta.touched_labels d in
  let keep qtext =
    Unql.Footprint.disjoint (Unql.Footprint.of_string qtext) delta_labels
  in
  let kept, dropped = Unql.Cache.revalidate c ~old_db:g0 ~new_db:g1 ~keep in
  Alcotest.(check int) "one entry kept" 1 kept;
  Alcotest.(check int) "one entry dropped" 1 dropped;
  (* the kept entry now answers under the new database without a miss *)
  let stats0 = Unql.Cache.stats c in
  let r_again = Unql.Cache.run ~cache:c ~db:g1 q_keep in
  let stats1 = Unql.Cache.stats c in
  Alcotest.(check int) "revalidated entry hits" (stats0.hits + 1) stats1.hits;
  Alcotest.(check bool) "and it is the cached graph" true (r_again == r_keep);
  (* ... and the answer it serves is the correct one for the new db *)
  Alcotest.(check bool) "kept answer is still correct" true
    (Ssd.Bisim.equal r_again (Unql.Eval.eval ~db:g1 (Unql.Parser.parse q_keep)))

(* ------------------------------------------------------------------ *)
(* Directed cases                                                      *)
(* ------------------------------------------------------------------ *)

(* Deletion then re-insertion of the same edge must land back on the
   same bytes as a fresh build of the final graph (which re-creates the
   original edge multiset). *)
let delete_reinsert_roundtrip () =
  let g0 = Ssd_workload.Movies.figure1 () in
  let st = State.create ~path_depth ~names:all_names g0 in
  (* pick a labeled edge to drop *)
  let some_edge =
    Graph.fold_edges
      (fun acc u l v ->
        match (acc, l) with
        | None, Graph.Lab l -> Some (u, l, v)
        | _ -> acc)
      None g0
  in
  let u, l, v = Option.get some_edge in
  let without =
    let b = Graph.Builder.create () in
    for _ = 1 to Graph.n_nodes g0 do
      ignore (Graph.Builder.add_node b)
    done;
    Graph.Builder.set_root b (Graph.root g0);
    let dropped = ref false in
    Graph.fold_edges
      (fun () s lab d ->
        match lab with
        | Graph.Lab l' when (not !dropped) && s = u && d = v && Label.equal l l' ->
          dropped := true
        | Graph.Eps -> Graph.Builder.add_eps b s d
        | Graph.Lab l' -> Graph.Builder.add_edge b s l' d)
      () g0;
    Graph.Builder.finish b
  in
  let o1 = State.advance st without (Delta.diff g0 without) in
  Alcotest.(check bool) "deletion rebuilds" true (o1 = State.Rebuilt);
  Alcotest.(check bool) "post-delete consistent" true (scratch_equal st without);
  let back =
    let b = Graph.Builder.create () in
    let (_ : int) = Graph.import_into b without in
    Graph.Builder.set_root b (Graph.root without);
    Graph.Builder.add_edge b u l v;
    Graph.Builder.finish b
  in
  let o2 = State.advance st back (Delta.diff without back) in
  Alcotest.(check bool) "re-insert goes fast path" true (o2 = State.Fast_path);
  Alcotest.(check bool) "post-reinsert consistent" true (scratch_equal st back);
  (* and the final bytes equal a fresh build over a graph with the
     original edge multiset *)
  Alcotest.(check bool) "round-trip equals original multiset" true
    (Bytes.equal
       (Value_index.to_bytes (Option.get (State.value_index st)))
       (Value_index.to_bytes (Value_index.build g0)))

(* An ε insert must invalidate label paths that pass through it: graft
   via ε and check the guide/path index see the new labels. *)
let eps_insert_visible () =
  let g0 = Ssd_workload.Movies.figure1 () in
  let st = State.create ~path_depth ~names:all_names g0 in
  let g1 =
    let b = Graph.Builder.create () in
    let (_ : int) = Graph.import_into b g0 in
    Graph.Builder.set_root b (Graph.root g0);
    let x = Graph.Builder.add_node b in
    let y = Graph.Builder.add_node b in
    Graph.Builder.add_eps b (Graph.root g0) x;
    Graph.Builder.add_edge b x (Label.sym "annex") y;
    Graph.Builder.finish b
  in
  let o = State.advance st g1 (Delta.diff g0 g1) in
  Alcotest.(check bool) "ε insert is monotone" true (o = State.Fast_path);
  Alcotest.(check bool) "structures consistent after ε insert" true
    (scratch_equal st g1);
  let pi = Option.get (State.path_index st) in
  Alcotest.(check bool) "new path indexed" true
    (Path_index.find pi [ Label.sym "annex" ] <> Some [] )

let datalog_props =
  [
    Gen.qtest "datalog: incremental advance = scratch eval" ~count:100
      (Q.pair
         (Q.list_size (Q.int_range 0 12)
            (Q.triple (Q.int_range 0 5) Gen.label (Q.int_range 0 5)))
         (Q.int_range 0 1000))
      datalog_incremental_differential;
    Gen.qtest "datalog: advance never writes the prepared EDB" ~count:100
      (Q.pair
         (Q.list_size (Q.int_range 0 12)
            (Q.triple (Q.int_range 0 5) Gen.label (Q.int_range 0 5)))
         (Q.list_size (Q.int_range 1 6)
            (Q.triple (Q.int_range 0 5) Gen.label (Q.int_range 0 5))))
      datalog_advance_keeps_edb;
  ]

let tests =
  props @ datalog_props
  @ [
      Alcotest.test_case "delete/re-insert round-trip" `Quick
        delete_reinsert_roundtrip;
      Alcotest.test_case "ε insert visible through maintenance" `Quick
        eps_insert_visible;
      Alcotest.test_case "datalog: negation rejected" `Quick
        datalog_rejects_negation;
      Alcotest.test_case "query label footprints" `Quick footprint_cases;
      Alcotest.test_case "cache revalidation keeps disjoint entries" `Quick
        revalidate_keeps_disjoint;
    ]
