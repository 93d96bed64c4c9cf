module Label = Ssd.Label
module Graph = Ssd.Graph
module Gschema = Ssd_schema.Gschema
module Dataguide = Ssd_schema.Dataguide
module Ro = Ssd_schema.Ro
module Infer = Ssd_schema.Infer
module Lpred = Ssd_automata.Lpred
open Gen

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Graph schemas                                                       *)
(* ------------------------------------------------------------------ *)

let parse_and_conform () =
  let schema = Gschema.parse "{entry: {movie | tvshow: {title: #string, cast: _}}}" in
  let data = Ssd.Syntax.parse_graph {| {entry: {movie: {title: "Casablanca", cast: {}}}} |} in
  check "conforms" true (Gschema.conforms data schema);
  let bad = Ssd.Syntax.parse_graph {| {entry: {movie: {title: 1942}}} |} in
  check "int title rejected" false (Gschema.conforms bad schema)

let loose_constraints () =
  (* Simulation: fewer edges than the schema allows is fine. *)
  let schema = Gschema.parse "{a: {x, y, z}}" in
  check "partial data conforms" true
    (Gschema.conforms (Ssd.Syntax.parse_graph "{a: {x}}") schema);
  check "empty data conforms" true
    (Gschema.conforms (Ssd.Syntax.parse_graph "{}") schema);
  (* ...but unexpected edges are not *)
  check "extra edge rejected" false
    (Gschema.conforms (Ssd.Syntax.parse_graph "{a: {w}}") schema)

let cyclic_schema () =
  (* Arbitrary-depth data (ACeDB style) needs a cyclic schema. *)
  let schema = Gschema.parse "&t {taxon: *t, child: *t, name: #string}" in
  let deep = Ssd_workload.Biodb.generate ~n_taxa:50 () in
  (* biodb has more fields; use a covering schema *)
  ignore deep;
  let data = Ssd.Syntax.parse_graph {| {taxon: {name: "a", child: {name: "b", child: {name: "c"}}}} |} in
  check "deep data conforms to cyclic schema" true (Gschema.conforms data schema)

let violations_located () =
  let schema = Gschema.parse "{a: {#int}}" in
  let data = Ssd.Syntax.parse_graph {| {a: {"oops"}} |} in
  check "nonconforming" false (Gschema.conforms data schema);
  check "violations nonempty" true (Gschema.violations data schema <> [])

let schema_printing () =
  let schema = Gschema.parse "{entry: {movie: {title: #string}, tvshow: _}}" in
  let printed = Gschema.to_string schema in
  (* reparse and check the same data conforms *)
  let schema2 = Gschema.parse printed in
  let data = Ssd.Syntax.parse_graph {| {entry: {movie: {title: "x"}}} |} in
  check "pp/parse keeps conformance" true
    (Gschema.conforms data schema = Gschema.conforms data schema2)

let schema_parse_errors () =
  List.iter
    (fun (src, expected) ->
      Alcotest.(check string) (Printf.sprintf "reject %s" src) expected
        (Gen.outcome (fun () -> Gschema.parse src)))
    [
      ("", "SSD006@1:1");
      ("{a: }", "SSD006@1:5");
      ("*undefined", "SSD006@1:1");
      ("{a: b*}", "SSD006@1:5");
      ("{a: {b: (c}}", "SSD006@1:11");
    ]

(* ------------------------------------------------------------------ *)
(* DataGuides                                                          *)
(* ------------------------------------------------------------------ *)

let guide_deterministic () =
  let g = Ssd_workload.Movies.generate ~n_entries:30 () in
  let guide = Dataguide.build g in
  let gg = Dataguide.graph guide in
  let ok = ref true in
  for u = 0 to Graph.n_nodes gg - 1 do
    let labels = List.map fst (Graph.labeled_succ gg u) in
    if List.length labels <> List.length (List.sort_uniq Label.compare labels) then
      ok := false
  done;
  check "no node has two equal outgoing labels" true !ok

let guide_on_cycles () =
  let g = Ssd.Syntax.parse_graph "&r {a: {b: *r}}" in
  let guide = Dataguide.build g in
  check "guide of cyclic data is finite" true (Dataguide.n_nodes guide <= 4);
  check "follows cyclic path" true (Dataguide.follow guide (List.map Label.sym [ "a"; "b"; "a"; "b" ]) <> None)

let all_paths_to ~len g =
  let rec walk u path n acc =
    if n >= len then path :: acc
    else
      match Graph.labeled_succ g u with
      | [] -> path :: acc
      | es -> path :: List.fold_left (fun acc (l, v) -> walk v (path @ [ l ]) (n + 1) acc) acc es
  in
  List.sort_uniq compare (walk (Graph.root g) [] 0 [])

let guide_properties =
  [
    qtest "guide accuracy: every data path is a guide path and conversely" ~count:60 graph
      (fun g ->
        let guide = Dataguide.build g in
        let data_paths = all_paths_to ~len:4 g in
        let guide_paths = List.sort_uniq compare (Dataguide.paths guide ~max_len:4) in
        List.for_all (fun p -> Dataguide.follow guide p <> None) data_paths
        && List.for_all
             (fun p -> Ssd_index.Path_index.traverse g p <> [])
             guide_paths);
    qtest "guide target sets = traversal answers" ~count:60 graph (fun g ->
        let guide = Dataguide.build g in
        List.for_all
          (fun p ->
            List.sort_uniq compare (Dataguide.find guide p)
            = List.sort compare (Ssd_index.Path_index.traverse g p))
          (all_paths_to ~len:3 g));
  ]

(* ------------------------------------------------------------------ *)
(* Representative objects and schema inference                         *)
(* ------------------------------------------------------------------ *)

let ro_k_dial () =
  let g = Ssd_workload.Movies.generate ~n_entries:40 () in
  let sizes = List.map (fun k -> Ro.n_classes (Ro.build ~k g)) [ 0; 1; 2; 8 ] in
  check "k=0 collapses everything" true (List.hd sizes = 1);
  check "classes grow with k" true
    (List.for_all2 ( <= ) sizes (List.tl sizes @ [ max_int ]))

let ro_properties =
  [
    qtest "every data path of length <= k survives in the k-RO" ~count:60
      (Q.pair graph (Q.int_range 0 3))
      (fun (g, k) ->
        let ro = Ro.build ~k g in
        List.for_all
          (fun p -> List.length p > k || Ro.has_path ro p)
          (all_paths_to ~len:k g));
    qtest "full-k RO is the bisimulation quotient" graph (fun g ->
        let ro = Ro.build ~k:1000 g in
        Ro.n_classes ro = Ssd.Bisim.n_classes g);
    qtest "RO quotient simulates the data" ~count:60 graph (fun g ->
        Ssd.Simulation.simulates g (Ro.graph (Ro.build ~k:3 g)));
  ]

let infer_properties =
  [
    qtest "data conforms to its inferred schema" ~count:40 graph (fun g ->
        Gschema.conforms g (Infer.infer ~k:3 g));
    qtest "schema size bounded by data size" graph (fun g ->
        Infer.schema_size ~k:4 g <= Graph.n_nodes (Graph.eps_eliminate g));
  ]

let infer_generalizes () =
  let g = Ssd_workload.Movies.generate ~n_entries:60 () in
  let schema = Infer.infer ~k:3 ~generalize_threshold:2 g in
  (* there must be an #string-typed edge somewhere (titles) *)
  let has_type_test = ref false in
  for u = 0 to Gschema.n_nodes schema - 1 do
    List.iter
      (fun (p, _) -> match p with Lpred.Of_type _ -> has_type_test := true | _ -> ())
      (Gschema.succ schema u)
  done;
  check "titles generalized to a type test" true !has_type_test;
  check "movies data conforms" true (Gschema.conforms g schema);
  (* the abstraction compresses: far fewer schema nodes than data nodes *)
  check "schema much smaller than data" true
    (Gschema.n_nodes schema * 3 < Graph.n_nodes (Graph.eps_eliminate g))

let tests =
  [
    Alcotest.test_case "parse and conform" `Quick parse_and_conform;
    Alcotest.test_case "loose constraints" `Quick loose_constraints;
    Alcotest.test_case "cyclic schema" `Quick cyclic_schema;
    Alcotest.test_case "violations located" `Quick violations_located;
    Alcotest.test_case "schema printing" `Quick schema_printing;
    Alcotest.test_case "schema parse errors" `Quick schema_parse_errors;
    Alcotest.test_case "guide deterministic" `Quick guide_deterministic;
    Alcotest.test_case "guide on cycles" `Quick guide_on_cycles;
    Alcotest.test_case "k-RO dial" `Quick ro_k_dial;
    Alcotest.test_case "inference generalizes values" `Quick infer_generalizes;
  ]
  @ guide_properties @ ro_properties @ infer_properties
