(* ssdql — command-line front end to the semistructured data library.

   Subcommands:
     query      run an UnQL / Lorel / WebSQL / datalog query
     dist       distributed regular-path-query evaluation (fault injection)
     convert    convert between ssd syntax, JSON, OEM and triples
     dataguide  build and print the strong DataGuide of a data file
     validate   check a data file against a graph schema
     update     apply insert/delete/rename statements
     stats      print graph statistics
     gen        emit a synthetic workload in ssd syntax *)

module Graph = Ssd.Graph
module Label = Ssd.Label
module Lang = Ssd_lint.Lang

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* [builtin:KIND[:N]] names a generated workload instead of a file, so
   self-contained invocations (smoke tests, demos) need no data on disk. *)
let load_builtin spec =
  let kind, n =
    match String.index_opt spec ':' with
    | Some i -> (
      let kind = String.sub spec 0 i in
      let num = String.sub spec (i + 1) (String.length spec - i - 1) in
      match int_of_string_opt num with
      | Some n -> (kind, n)
      | None ->
        Printf.eprintf "bad builtin size %s\n" num;
        exit 2)
    | None -> (spec, 200)
  in
  match kind with
  | "figure1" -> Ssd_workload.Movies.figure1 ()
  | "movies" -> Ssd_workload.Movies.generate ~seed:42 ~n_entries:n ()
  | "web" -> Ssd_workload.Webgraph.generate ~seed:42 ~n_pages:n ()
  | "bio" -> Ssd_workload.Biodb.generate ~seed:42 ~n_taxa:n ()
  | "bib" -> Ssd_workload.Bibdb.generate ~seed:42 ~n_papers:n ()
  | "randtree" -> Ssd_workload.Randtree.generate ~seed:42 ~regularity:0.5 ~n_edges:n ()
  | other ->
    Printf.eprintf "unknown builtin %s (figure1|movies|web|bio|bib|randtree)[:N]\n" other;
    exit 2

let load_data path =
  if String.length path > 8 && String.sub path 0 8 = "builtin:" then
    load_builtin (String.sub path 8 (String.length path - 8))
  else begin
    if not (Sys.file_exists path) then begin
      Printf.eprintf "no such data file %s\n" path;
      exit 2
    end;
    let src = read_file path in
    if Filename.check_suffix path ".json" then
      Graph.of_tree (Ssd.Json.to_tree (Ssd.Json.parse src))
    else if Filename.check_suffix path ".oem" then Ssd.Oem.to_graph (Ssd.Oem.parse src)
    else Ssd.Syntax.parse_graph src
  end

let print_graph g = print_endline (Graph.to_string g)

(* ------------------------------------------------------------------ *)
(* query                                                               *)
(* ------------------------------------------------------------------ *)

(* --explain: show the plan-level view of an UnQL query — the normalized
   (condition-pushed) form, regex automaton sizes over the data's label
   alphabet, and what a DataGuide prune would eliminate. *)
let explain_unql db q =
  let normalized = Unql.Optimize.reorder q in
  print_endline "== explain ==";
  Printf.printf "query:\n  %s\n" (Unql.Pretty.expr_to_string q);
  Printf.printf "normalized (conditions pushed down):\n  %s\n"
    (Unql.Pretty.expr_to_string normalized);
  let alphabet = Ssd_automata.Product.alphabet db in
  (match Unql.Optimize.automaton_sizes ~alphabet normalized with
  | [] -> ()
  | sizes ->
    List.iter
      (fun (r, n_nfa, n_dfa) ->
        Printf.printf "regex %s: %d NFA states, %d min-DFA states\n" r n_nfa n_dfa)
      sizes);
  let guide = Ssd_schema.Dataguide.build db in
  let _, pruned = Unql.Optimize.prune_with_guide guide normalized in
  Printf.printf "dataguide: %d guide nodes over %d data nodes; selects pruned: %d\n"
    (Ssd_schema.Dataguide.n_nodes guide) (Graph.n_nodes db) pruned;
  Printf.printf "cache key: %S @ fp=%x\n"
    (Unql.Pretty.expr_to_string normalized)
    (Unql.Cache.fingerprint db);
  print_endline "== result =="

let dump_stats fmt =
  match fmt with
  | "json" -> print_endline (Ssd_obs.Metrics.dump_json Ssd_obs.Metrics.default)
  | _ -> print_string (Ssd_obs.Metrics.dump_text Ssd_obs.Metrics.default)

(* --lint[=warn|error]: run the static analyzer before evaluating.
   Findings go to stderr; in error mode an Error-severity finding stops
   the query (exit 1) before evaluation starts. *)
let lint_gate mode lang db c =
  if mode <> "off" then
    match Lang.lint ~db c with
    | None -> Printf.eprintf "--lint is not available for %s queries\n" (Lang.name lang)
    | Some r ->
      if r.Ssd_lint.diags <> [] then prerr_string (Ssd_diag.render r.Ssd_lint.diags);
      if mode = "error" && Ssd_lint.errors r > 0 then begin
        Printf.eprintf "query rejected (--lint=error)\n";
        exit 1
      end

(* --deadline-ms / --max-steps: evaluate under a Ssd.Budget.  A fresh
   budget is created per evaluation (so --repeat runs are comparable);
   the last run's verdict is printed as a "status:" line.  Partial
   results are sound lower bounds of the complete answer. *)
let status_of = function
  | None -> "complete"
  | Some why -> Printf.sprintf "partial (%s)" (Ssd.Budget.exhaustion_to_string why)

let split = function
  | Ssd.Budget.Complete v -> (v, None)
  | Ssd.Budget.Partial (v, why) -> (v, Some why)

(* Resolve --data/--store into a database: exactly one source.  A store
   open runs recovery if the store needs it (reported on stderr), and
   the returned closer writes the clean-shutdown checkpoint. *)
let open_db ~what data store_path =
  match (data, store_path) with
  | Some _, Some _ ->
    Printf.eprintf "%s: --data and --store are mutually exclusive\n" what;
    exit 2
  | None, None ->
    Printf.eprintf "%s: one of --data or --store is required\n" what;
    exit 2
  | Some d, None -> (load_data d, fun () -> ())
  | None, Some dir ->
    let st = Ssd_store.Store.open_ (Ssd_store.Vfs.real dir) in
    let r = Ssd_store.Store.recovery st in
    if r.Ssd_store.Store.was_clean then
      Printf.eprintf "%s: store clean open (no recovery)\n%!" what
    else
      Printf.eprintf "%s: store recovered (%d txns replayed, %d torn bytes discarded)\n%!"
        what r.Ssd_store.Store.recovered_txns r.Ssd_store.Store.torn_bytes;
    (Ssd_store.Store.graph st, fun () -> Ssd_store.Store.close st)

let query_cmd jobs data store_path lang lint explain use_cache repeat quiet stats
    stats_format trace trace_out deadline_ms max_steps query_text =
  Ssd_par.Pool.set_default_jobs jobs;
  let db, close_db = open_db ~what:"ssdql query" data store_path in
  at_exit close_db;
  let c = Lang.compile lang query_text in
  lint_gate lint lang db c;
  if trace || trace_out <> None then begin
    Ssd_obs.Trace.enable ();
    Ssd_obs.Trace.name_lane 0 "main"
  end;
  let budgeted = deadline_ms <> None || max_steps <> None in
  let unql = match c with Lang.Unql (q, _) -> Some q | _ -> None in
  (match unql with
  | Some q ->
    if explain then explain_unql db q;
    if budgeted && use_cache then
      Printf.eprintf "--cache ignores budgets; evaluating uncached\n"
  | None ->
    if explain then Printf.eprintf "--explain is only available for unql queries\n";
    if use_cache then Printf.eprintf "--cache is only available for unql queries\n");
  let budgeted =
    match c with
    | Lang.Websql _ when budgeted ->
      Printf.eprintf "--deadline-ms/--max-steps are not supported for websql\n";
      false
    | _ -> budgeted
  in
  let cached = use_cache && (not budgeted) && Option.is_some unql in
  let eval () =
    match unql with
    | Some q when cached ->
      Ssd.Budget.Complete (Lang.Graph (Unql.Cache.eval ~cache:Unql.Cache.shared ~db q))
    | _ ->
      let budget = Ssd.Budget.create ?deadline_ms ?max_steps in
      Lang.eval ?budget:(if budgeted then Some (budget ()) else None) ~db c
  in
  for _ = 2 to repeat do
    ignore (eval ())
  done;
  let result, why = split (eval ()) in
  if cached then begin
    let s = Unql.Cache.stats Unql.Cache.shared in
    Printf.eprintf "cache: %d hits, %d misses, %d evictions, %d entries\n"
      s.Unql.Cache.hits s.Unql.Cache.misses s.Unql.Cache.evictions s.Unql.Cache.size
  end;
  if budgeted then Printf.printf "status: %s\n" (status_of why);
  if not quiet then print_string (Lang.render result);
  if trace then prerr_string (Ssd_obs.Trace.render ());
  Option.iter
    (fun path ->
      Ssd_obs.Trace.write_chrome path;
      Printf.eprintf "trace written to %s (load in chrome://tracing or Perfetto)\n" path)
    trace_out;
  if stats then dump_stats stats_format

(* ------------------------------------------------------------------ *)
(* check                                                               *)
(* ------------------------------------------------------------------ *)

let check_cmd data lang schema_path format list_codes stats cost query_text =
  if list_codes then begin
    List.iter
      (fun (code, sev, desc) ->
        Printf.printf "%s  %-7s  %s\n" code (Ssd_diag.severity_to_string sev) desc)
      Ssd_diag.codes;
    exit 0
  end;
  let query_text =
    match query_text with
    | Some q -> q
    | None ->
      Printf.eprintf "missing QUERY (or use --codes)\n";
      exit 2
  in
  let db = Option.map load_data data in
  let target =
    Option.map
      (fun p -> Ssd_lint.Schema (Ssd_schema.Gschema.parse (read_file p)))
      schema_path
  in
  let r, card =
    match Lang.compile lang query_text with
    | exception Ssd_diag.Fail d -> (Lang.report_of [ d ], None)
    | c -> (
      match Lang.lint ?db ?target c with
      | None ->
        Printf.eprintf "check supports unql, lorel and datalog queries (got %s)\n"
          (Lang.name lang);
        exit 2
      | Some r ->
        let card =
          if not cost then None
          else
            match db with
            | None ->
              Printf.eprintf "--cost needs --data (statistics come from the database)\n";
              exit 2
            | Some db ->
              let declared =
                match target with Some (Ssd_lint.Schema s) -> Some s | _ -> None
              in
              Lang.estimate ?declared (Ssd_schema.Annotated.build db) c
              |> Option.map (fun e -> e.Lang.card)
        in
        ({ r with Ssd_lint.fingerprint = Lang.fingerprint c }, card))
  in
  let all_diags =
    r.Ssd_lint.diags
    @ match card with None -> [] | Some c -> c.Ssd_lint.Card.diags
  in
  (match format with
  | "json" -> print_endline (Ssd_diag.render_json all_diags)
  | _ ->
    print_string (Ssd_diag.render all_diags);
    if r.Ssd_lint.paths_checked > 0 then
      Printf.printf "paths checked: %d, dead: %d\n" r.Ssd_lint.paths_checked
        r.Ssd_lint.dead_paths;
    if r.Ssd_lint.reachable_labels <> [] then
      Printf.printf "reachable labels: %s\n"
        (String.concat ", " (List.map Label.to_string r.Ssd_lint.reachable_labels));
    Option.iter (Printf.printf "query fingerprint: %x\n") r.Ssd_lint.fingerprint;
    Option.iter
      (fun (c : Ssd_lint.Card.t) ->
        (match c.Ssd_lint.Card.est_total with
        | Some e -> Printf.printf "estimated cardinality: %.0f (upper bound)\n" e
        | None -> print_endline "estimated cardinality: unknown");
        Printf.printf "cost: syntactic order %.0f, planned order %.0f\n"
          c.Ssd_lint.Card.cost_syntax c.Ssd_lint.Card.cost_planned)
      card);
  if stats then
    print_string (Ssd_obs.Metrics.dump_text ~prefix:"lint." Ssd_obs.Metrics.default);
  exit (if Ssd_diag.count Ssd_diag.Error all_diags > 0 then 1 else 0)

(* ------------------------------------------------------------------ *)
(* explain                                                             *)
(* ------------------------------------------------------------------ *)

(* Static estimates from the annotated DataGuide next to the actual
   cardinality from one evaluation — the per-operator view of the
   cost-based planner.  The estimate/actual ratio is recorded in the
   [lint.card.est_over] metrics histogram, so a workload's estimation
   error distribution can be dumped with --stats elsewhere. *)
let est_over_histogram = Ssd_obs.Metrics.histogram "lint.card.est_over"

let explain_cmd data lang format query_text =
  let db = load_data data in
  let annotated = Ssd_schema.Annotated.build db in
  let c = Lang.compile lang query_text in
  let { Lang.card; plan = planned_text } =
    match Lang.estimate annotated c with
    | Some e -> e
    | None ->
      Printf.eprintf "explain supports unql, lorel and datalog queries (got %s)\n"
        (Lang.name lang);
      exit 2
  in
  let actual = Lang.rows (Ssd.Budget.value (Lang.eval ~db c)) in
  let ratio =
    Option.map
      (fun e -> e /. float_of_int (max 1 actual))
      card.Ssd_lint.Card.est_total
  in
  Option.iter (Ssd_obs.Metrics.observe est_over_histogram) ratio;
  let fmt_est = function
    | Some e -> Printf.sprintf "%.0f" e
    | None -> "unknown"
  in
  match format with
  | "json" ->
    let op_json (o : Ssd_lint.Card.op_est) =
      Ssd.Json.Obj
        [
          ("op", Ssd.Json.String o.Ssd_lint.Card.op_text);
          ( "est",
            match o.Ssd_lint.Card.op_est with
            | Some e -> Ssd.Json.Float e
            | None -> Ssd.Json.Null );
          ( "access",
            match o.Ssd_lint.Card.op_access with
            | Some a -> Ssd.Json.String a
            | None -> Ssd.Json.Null );
          ("unbounded", Ssd.Json.Bool o.Ssd_lint.Card.op_unbounded);
        ]
    in
    let diag_json (d : Ssd_diag.t) =
      Ssd.Json.Obj
        [
          ("code", Ssd.Json.String d.Ssd_diag.code);
          ("message", Ssd.Json.String d.Ssd_diag.message);
        ]
    in
    print_endline
      (Ssd.Json.to_string
         (Ssd.Json.Obj
            ([
               ("lang", Ssd.Json.String (Lang.name lang));
               ("query", Ssd.Json.String query_text);
             ]
            @ (match planned_text with
              | Some p -> [ ("planned", Ssd.Json.String p) ]
              | None -> [])
            @ [
                ("operators", Ssd.Json.List (List.map op_json card.Ssd_lint.Card.ops));
                ( "estimated",
                  match card.Ssd_lint.Card.est_total with
                  | Some e -> Ssd.Json.Float e
                  | None -> Ssd.Json.Null );
                ("actual", Ssd.Json.Int actual);
                ( "est_over",
                  match ratio with Some r -> Ssd.Json.Float r | None -> Ssd.Json.Null );
                ("cost_syntax", Ssd.Json.Float card.Ssd_lint.Card.cost_syntax);
                ("cost_planned", Ssd.Json.Float card.Ssd_lint.Card.cost_planned);
                ( "diagnostics",
                  Ssd.Json.List (List.map diag_json card.Ssd_lint.Card.diags) );
              ])))
  | _ ->
    Printf.printf "== explain (%s) ==\n" (Lang.name lang);
    Printf.printf "query:\n  %s\n" query_text;
    Option.iter (Printf.printf "planned:\n  %s\n") planned_text;
    if card.Ssd_lint.Card.ops <> [] then begin
      print_endline "operators:";
      List.iter
        (fun (o : Ssd_lint.Card.op_est) ->
          Printf.printf "  %-40s est=%-8s%s%s\n" o.Ssd_lint.Card.op_text
            (fmt_est o.Ssd_lint.Card.op_est)
            (match o.Ssd_lint.Card.op_access with
            | Some a -> Printf.sprintf " access=%s" a
            | None -> "")
            (if o.Ssd_lint.Card.op_unbounded then " (unbounded)" else ""))
        card.Ssd_lint.Card.ops
    end;
    Printf.printf "estimated cardinality: %s (upper bound)\n"
      (fmt_est card.Ssd_lint.Card.est_total);
    Printf.printf "actual cardinality: %d\n" actual;
    Option.iter (Printf.printf "estimate/actual: %.2f\n") ratio;
    Printf.printf "cost: syntactic order %.0f, planned order %.0f\n"
      card.Ssd_lint.Card.cost_syntax card.Ssd_lint.Card.cost_planned;
    if card.Ssd_lint.Card.diags <> [] then
      print_string (Ssd_diag.render card.Ssd_lint.Card.diags)

(* ------------------------------------------------------------------ *)
(* convert                                                             *)
(* ------------------------------------------------------------------ *)

let convert_cmd data target =
  let g = load_data data in
  match target with
  | "ssd" -> print_graph g
  | "json" -> print_endline (Ssd.Json.to_string (Ssd.Json.of_tree (Graph.to_tree g)))
  | "triples" ->
    print_endline (Relstore.Relation.to_string (Relstore.Triple.edges g));
    print_endline (Relstore.Relation.to_string (Relstore.Triple.root g))
  | "oem" -> print_endline (Ssd.Oem.to_string (Ssd.Oem.of_graph g))
  | other -> Printf.eprintf "unknown target %s (use ssd, json, oem or triples)\n" other

(* ------------------------------------------------------------------ *)
(* dataguide                                                           *)
(* ------------------------------------------------------------------ *)

let dataguide_cmd data max_len =
  let g = load_data data in
  let guide = Ssd_schema.Dataguide.build g in
  Printf.printf "data nodes: %d, guide nodes: %d\n" (Graph.n_nodes g)
    (Ssd_schema.Dataguide.n_nodes guide);
  List.iter
    (fun path ->
      if path <> [] then
        print_endline (String.concat "." (List.map Label.to_string path)))
    (Ssd_schema.Dataguide.paths guide ~max_len)

(* ------------------------------------------------------------------ *)
(* validate                                                            *)
(* ------------------------------------------------------------------ *)

let validate_cmd data schema_path =
  let g = load_data data in
  let schema = Ssd_schema.Gschema.parse (read_file schema_path) in
  if Ssd_schema.Gschema.conforms g schema then begin
    print_endline "conforms";
    exit 0
  end
  else begin
    let bad = Ssd_schema.Gschema.violations g schema in
    Printf.printf "does NOT conform: %d violating nodes (showing up to 10)\n"
      (List.length bad);
    List.iteri (fun i u -> if i < 10 then Printf.printf "  node %d\n" u) bad;
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* update                                                              *)
(* ------------------------------------------------------------------ *)

let update_cmd data store_path stmts =
  match (data, store_path) with
  | Some _, Some _ ->
    Printf.eprintf "ssdql update: --data and --store are mutually exclusive\n";
    exit 2
  | None, None ->
    Printf.eprintf "ssdql update: one of --data or --store is required\n";
    exit 2
  | Some d, None -> print_graph (Lorel.Update.run ~db:(load_data d) stmts)
  | None, Some dir ->
    (* In-place durable update: the new graph is committed (WAL fsync)
       before anything is printed, then the store is closed cleanly. *)
    let st = Ssd_store.Store.open_ (Ssd_store.Vfs.real dir) in
    let r = Ssd_store.Store.recovery st in
    if not r.Ssd_store.Store.was_clean then
      Printf.eprintf "ssdql update: store recovered (%d txns replayed, %d torn bytes discarded)\n%!"
        r.Ssd_store.Store.recovered_txns r.Ssd_store.Store.torn_bytes;
    let g = Lorel.Update.run ~db:(Ssd_store.Store.graph st) stmts in
    Ssd_store.Store.commit st g;
    Ssd_store.Store.close st;
    print_graph g

(* ------------------------------------------------------------------ *)
(* stats                                                               *)
(* ------------------------------------------------------------------ *)

let stats_cmd data =
  let g = load_data data in
  Format.printf "%a@." Ssd_index.Stats.pp (Ssd_index.Stats.compute g);
  Format.printf "top labels:@.";
  List.iter
    (fun (l, c) -> Format.printf "  %s: %d@." (Label.to_string l) c)
    (Ssd_index.Stats.top_labels g ~k:10)

(* ------------------------------------------------------------------ *)
(* gen                                                                 *)
(* ------------------------------------------------------------------ *)

let gen_cmd kind n seed =
  let g =
    match kind with
    | "movies" -> Ssd_workload.Movies.generate ~seed ~n_entries:n ()
    | "figure1" -> Ssd_workload.Movies.figure1 ()
    | "web" -> Ssd_workload.Webgraph.generate ~seed ~n_pages:n ()
    | "bio" -> Ssd_workload.Biodb.generate ~seed ~n_taxa:n ()
    | "bib" -> Ssd_workload.Bibdb.generate ~seed ~n_papers:n ()
    | "randtree" -> Ssd_workload.Randtree.generate ~seed ~regularity:0.5 ~n_edges:n ()
    | other ->
      Printf.eprintf "unknown workload %s (movies|figure1|web|bio|bib|randtree)\n" other;
      exit 2
  in
  print_graph g

(* ------------------------------------------------------------------ *)
(* dist                                                                *)
(* ------------------------------------------------------------------ *)

(* Distributed evaluation of a regular path query, optionally under an
   injected fault schedule and/or a budget.  Output is line-oriented:
     accepting: <sorted node ids>
     status: complete | partial (<reason>)
     stats: <one-line JSON>
   or, with --format json, a single JSON object with those fields.
   Same --faults spec => identical accepting set AND identical stats. *)
let dist_cmd jobs data sites partition_kind seed faults deadline_ms max_steps format quiet
    trace_out query_text =
  Ssd_par.Pool.set_default_jobs jobs;
  let db = load_data data in
  if trace_out <> None then begin
    Ssd_obs.Trace.enable ();
    Ssd_obs.Trace.name_lane 0 "coordinator"
  end;
  let nfa = Ssd_automata.Nfa.of_string query_text in
  let part =
    match partition_kind with
    | "bfs" -> Ssd_dist.Decompose.partition_bfs ~k:sites db
    | "random" -> Ssd_dist.Decompose.partition_random ~seed ~k:sites db
    | other ->
      Printf.eprintf "unknown partition %s (use bfs or random)\n" other;
      exit 2
  in
  let plan =
    match faults with
    | None -> Ssd_fault.Plan.none
    | Some spec -> Ssd_fault.Plan.parse spec
  in
  let budget =
    if deadline_ms <> None || max_steps <> None then
      Some (Ssd.Budget.create ?deadline_ms ?max_steps ())
    else None
  in
  let outcome, st = Ssd_dist.Decompose.run ~plan ?budget db part nfa in
  let answers, why =
    match outcome with
    | Ssd.Budget.Complete a -> (a, None)
    | Ssd.Budget.Partial (a, why) -> (a, Some why)
  in
  let stats_json = Ssd_dist.Decompose.stats_to_json st in
  Option.iter
    (fun path ->
      Ssd_obs.Trace.write_chrome path;
      Printf.eprintf "trace written to %s (load in chrome://tracing or Perfetto)\n" path)
    trace_out;
  match format with
  | "json" ->
    print_endline
      (Ssd.Json.to_string
         (Ssd.Json.Obj
            [
              ("accepting", Ssd.Json.List (List.map (fun u -> Ssd.Json.Int u) answers));
              ("status", Ssd.Json.String (status_of why));
              ("stats", stats_json);
            ]))
  | _ ->
    Printf.printf "accepting: %s\n" (String.concat " " (List.map string_of_int answers));
    Printf.printf "status: %s\n" (status_of why);
    if not quiet then Printf.printf "stats: %s\n" (Ssd.Json.to_string stats_json)

(* ------------------------------------------------------------------ *)
(* profile                                                             *)
(* ------------------------------------------------------------------ *)

(* Evaluate a query with tracing on and print per-operator inclusive /
   exclusive time aggregated from the span stream (a sorted flame
   table).  The result itself is discarded: profile answers "where did
   the time go", query answers "what is the answer". *)
let profile_cmd jobs data lang repeat format trace_out query_text =
  Ssd_par.Pool.set_default_jobs jobs;
  let db = load_data data in
  let c = Lang.compile lang query_text in
  Ssd_obs.Trace.enable ();
  Ssd_obs.Trace.name_lane 0 "main";
  for _ = 1 to max 1 repeat do
    ignore (Lang.eval ~db c)
  done;
  let roots = Ssd_obs.Trace.spans () in
  let rows = Ssd_obs.Profile.of_spans roots in
  let total = Ssd_obs.Profile.total_ns roots in
  (match format with
  | "json" -> print_endline (Ssd.Json.to_string (Ssd_obs.Profile.to_json ~total rows))
  | _ -> print_string (Ssd_obs.Profile.render ~total rows));
  Option.iter
    (fun path ->
      Ssd_obs.Trace.write_chrome path;
      Printf.eprintf "trace written to %s (load in chrome://tracing or Perfetto)\n" path)
    trace_out

(* ------------------------------------------------------------------ *)
(* serve                                                               *)
(* ------------------------------------------------------------------ *)

(* Long-running multi-tenant query service over a Unix or TCP socket.
   The line protocol, admission control and partial-answer semantics
   live in lib/serve (see README "Serving"); this command only wires
   data loading, the socket address, config knobs and shutdown. *)
let serve_cmd data store_path socket_path tcp_port host workers shed_at pressure_at
    pressure_max_steps max_frame cache_capacity max_requests trace_out stats
    stats_format admin_addr slow_query_ms events_out =
  let persistent =
    match (data, store_path) with
    | Some _, Some _ ->
      Printf.eprintf "ssdql serve: --data and --store are mutually exclusive\n";
      exit 2
    | None, None ->
      Printf.eprintf "ssdql serve: one of --data or --store is required\n";
      exit 2
    | Some _, None -> None
    | None, Some dir ->
      let st = Ssd_store.Store.open_ (Ssd_store.Vfs.real dir) in
      let r = Ssd_store.Store.recovery st in
      if r.Ssd_store.Store.was_clean then
        Printf.eprintf "ssdql serve: store clean open (no recovery)\n%!"
      else
        Printf.eprintf
          "ssdql serve: store recovered (%d txns replayed, %d torn bytes discarded)\n%!"
          r.Ssd_store.Store.recovered_txns r.Ssd_store.Store.torn_bytes;
      Some st
  in
  let db =
    match persistent with
    | Some st -> Ssd_store.Store.graph st
    | None -> load_data (Option.get data)
  in
  if trace_out <> None then begin
    Ssd_obs.Trace.enable ();
    Ssd_obs.Trace.name_lane 0 "acceptor"
  end;
  let store = Ssd_serve.Engine.store ~cache_capacity ~db () in
  let config =
    {
      Ssd_serve.Engine.max_frame;
      shed_at;
      pressure_at;
      pressure_max_steps;
      slow_query_ms;
    }
  in
  Option.iter
    (fun path ->
      Ssd_obs.Events.set_sink Ssd_obs.Events.default
        (Some (Ssd_obs.Events.file_sink path)))
    events_out;
  (* Every acknowledged UPDATE goes through the WAL before the swap:
     commit appends + fsyncs, so kill -9 after the response cannot lose
     it (restart replays the log). *)
  (match persistent with
  | Some st -> Ssd_serve.Engine.set_persist store (fun g -> Ssd_store.Store.commit st g)
  | None -> ());
  let engine = Ssd_serve.Engine.create ~config store in
  let addr =
    match tcp_port with
    | Some port -> Ssd_serve.Server.Tcp (host, port)
    | None -> Ssd_serve.Server.Unix_sock socket_path
  in
  let server = Ssd_serve.Server.start ~workers ~engine addr in
  (match Ssd_serve.Server.bound server with
  | Ssd_serve.Server.Unix_sock path ->
    Printf.eprintf "ssdql serve: listening on unix:%s (workers=%d)\n%!" path workers
  | Ssd_serve.Server.Tcp (host, port) ->
    Printf.eprintf "ssdql serve: listening on tcp:%s:%d (workers=%d)\n%!" host port
      workers);
  (* The admin plane reads durability state through the metrics gauges
     (atomic snapshot), never the store record itself — its callbacks
     run on the admin domain, concurrently with commits. *)
  let started_at = Unix.gettimeofday () in
  let module J = Ssd.Json in
  let healthz () =
    let snap = Ssd_obs.Metrics.snapshot ~prefix:"store." Ssd_obs.Metrics.default in
    let g name = List.assoc_opt name snap.Ssd_obs.Metrics.snap_gauges in
    let store_doc =
      match persistent with
      | None -> [ ("store", J.Null) ]
      | Some st ->
        let r = Ssd_store.Store.recovery st in
        let num name = J.Float (Option.value ~default:0. (g name)) in
        [
          ( "store",
            J.Obj
              [
                ("clean", J.Bool (g "store.clean" = Some 1.));
                ("wal_backlog_bytes", num "store.wal_backlog_bytes");
                ("dirty_pages", num "store.dirty_pages");
                ("pages", num "store.pages");
                ( "last_recovery",
                  J.Obj
                    [
                      ("recovered_txns", J.Int r.Ssd_store.Store.recovered_txns);
                      ("torn_bytes", J.Int r.Ssd_store.Store.torn_bytes);
                      ("was_clean", J.Bool r.Ssd_store.Store.was_clean);
                    ] );
              ] );
        ]
    in
    ( J.Obj
        ([
           ("status", J.String "ok");
           ("uptime_s", J.Float (Unix.gettimeofday () -. started_at));
         ]
        @ store_doc),
      true )
  in
  let varz () =
    J.Obj
      [
        ("name", J.String "ssdql serve");
        ("version", J.String "1.0.0");
        ("pid", J.Int (Unix.getpid ()));
        ("started_at", J.Float started_at);
        ("uptime_s", J.Float (Unix.gettimeofday () -. started_at));
        ( "listen",
          J.String
            (match Ssd_serve.Server.bound server with
            | Ssd_serve.Server.Unix_sock p -> "unix:" ^ p
            | Ssd_serve.Server.Tcp (h, p) -> Printf.sprintf "tcp:%s:%d" h p) );
        ( "store",
          match store_path with Some d -> J.String d | None -> J.Null );
        ( "config",
          J.Obj
            [
              ("workers", J.Int workers);
              ("shed_at", J.Int shed_at);
              ("pressure_at", J.Int pressure_at);
              ("pressure_max_steps", J.Int pressure_max_steps);
              ("max_frame", J.Int max_frame);
              ("cache_capacity", J.Int cache_capacity);
              ("slow_query_ms", J.Float slow_query_ms);
            ] );
      ]
  in
  let admin =
    match admin_addr with
    | None -> None
    | Some s -> (
      match Ssd_serve.Admin.addr_of_string s with
      | Result.Error e ->
        Printf.eprintf "ssdql serve: %s\n" e;
        Ssd_serve.Server.stop server;
        exit 2
      | Result.Ok addr ->
        let a = Ssd_serve.Admin.start ~healthz ~varz addr in
        Printf.eprintf "ssdql serve: admin plane on %s\n%!"
          (Ssd_serve.Admin.addr_to_string (Ssd_serve.Admin.bound a));
        Some a)
  in
  let stop_requested = Atomic.make false in
  let request_stop _ = Atomic.set stop_requested true in
  let old_int = Sys.signal Sys.sigint (Sys.Signal_handle request_stop) in
  let old_term = Sys.signal Sys.sigterm (Sys.Signal_handle request_stop) in
  let done_ () =
    Atomic.get stop_requested
    ||
    match max_requests with
    | None -> false
    | Some n -> (Ssd_serve.Engine.stats engine).Ssd_serve.Engine.requests >= n
  in
  while not (done_ ()) do
    Unix.sleepf 0.05
  done;
  (match admin with Some a -> Ssd_serve.Admin.stop a | None -> ());
  Ssd_serve.Server.stop server;
  Sys.set_signal Sys.sigint old_int;
  Sys.set_signal Sys.sigterm old_term;
  (* Graceful shutdown: flush the WAL into the data file and set the
     clean flag, so the next open skips recovery. *)
  (match persistent with
  | Some st ->
    Ssd_store.Store.close st;
    Printf.eprintf "ssdql serve: store closed cleanly (checkpoint written)\n%!"
  | None -> ());
  let s = Ssd_serve.Engine.stats engine in
  Printf.eprintf
    "ssdql serve: stopped after %d requests (%d accepted, %d shed, %d partial, %d errors, %d updates)\n%!"
    s.Ssd_serve.Engine.requests s.Ssd_serve.Engine.accepted s.Ssd_serve.Engine.shed
    s.Ssd_serve.Engine.partial s.Ssd_serve.Engine.errors s.Ssd_serve.Engine.updates;
  Option.iter
    (fun path ->
      Ssd_obs.Trace.write_chrome path;
      Printf.eprintf "trace written to %s (load in chrome://tracing or Perfetto)\n" path)
    trace_out;
  if stats then dump_stats stats_format

(* ------------------------------------------------------------------ *)
(* subscribe                                                           *)
(* ------------------------------------------------------------------ *)

(* A long-lived protocol client: SUBSCRIBE once, then stream the pushed
   delta frames.  Each frame is printed as one "== STATUS DETAIL" line
   followed by its body, flushed — line-oriented enough for scripts and
   the smoke tests to consume. *)
let subscribe_cmd socket_path tcp_port host lang count q =
  let module Proto = Ssd_serve.Proto in
  let domain, sockaddr =
    match tcp_port with
    | Some port ->
      let inet =
        try (Unix.gethostbyname host).Unix.h_addr_list.(0)
        with Not_found -> Unix.inet_addr_loopback
      in
      (Unix.PF_INET, Unix.ADDR_INET (inet, port))
    | None -> (Unix.PF_UNIX, Unix.ADDR_UNIX socket_path)
  in
  let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect fd sockaddr;
      let opts = { Proto.default_options with Proto.lang = Lang.name lang } in
      let req =
        Proto.render_request { Proto.verb = Proto.Subscribe; opts; body = q } ^ "\n"
      in
      let b = Bytes.unsafe_of_string req in
      let rec send off =
        if off < Bytes.length b then
          send (off + Unix.write fd b off (Bytes.length b - off))
      in
      send 0;
      let buf = Buffer.create 4096 in
      let chunk = Bytes.create 4096 in
      let pos = ref 0 in
      let deltas = ref 0 in
      let stop = ref false in
      let print_frame (r : Proto.response) =
        Printf.printf "== %s %s\n%s%!" (Proto.status_to_string r.Proto.status)
          r.Proto.detail r.Proto.body
      in
      let rec pump () =
        if !stop then ()
        else
          match Proto.parse_response (Buffer.contents buf) !pos with
          | Result.Ok (r, next) ->
            pos := next;
            print_frame r;
            (match r.Proto.status with
            | Proto.Error ->
              stop := true;
              exit 1
            | Proto.Delta ->
              incr deltas;
              if count > 0 && !deltas >= count then stop := true
            | _ -> ());
            pump ()
          | Result.Error `Incomplete -> (
            match Unix.read fd chunk 0 (Bytes.length chunk) with
            | 0 -> stop := true
            | n ->
              Buffer.add_subbytes buf chunk 0 n;
              pump ()
            | exception Unix.Unix_error (Unix.EINTR, _, _) -> pump ())
          | Result.Error (`Malformed reason) ->
            Printf.eprintf "ssdql subscribe: malformed frame: %s\n%!" reason;
            exit 1
      in
      pump ())

(* ------------------------------------------------------------------ *)
(* top                                                                 *)
(* ------------------------------------------------------------------ *)

(* Polling terminal dashboard over the admin plane's /metrics endpoint —
   the same exposition Prometheus would scrape, parsed with the same
   parser the round-trip tests use. *)

let admin_http_get addr path =
  let domain, sockaddr =
    match addr with
    | Ssd_serve.Admin.Unix_sock p -> (Unix.PF_UNIX, Unix.ADDR_UNIX p)
    | Ssd_serve.Admin.Tcp (h, p) ->
      let inet =
        try (Unix.gethostbyname h).Unix.h_addr_list.(0)
        with Not_found -> Unix.inet_addr_loopback
      in
      (Unix.PF_INET, Unix.ADDR_INET (inet, p))
  in
  let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect fd sockaddr;
      let req = Printf.sprintf "GET %s HTTP/1.0\r\n\r\n" path in
      let b = Bytes.unsafe_of_string req in
      let rec send off =
        if off < Bytes.length b then send (off + Unix.write fd b off (Bytes.length b - off))
      in
      send 0;
      let buf = Buffer.create 8192 in
      let chunk = Bytes.create 8192 in
      let rec recv () =
        match Unix.read fd chunk 0 (Bytes.length chunk) with
        | 0 -> ()
        | n ->
          Buffer.add_subbytes buf chunk 0 n;
          recv ()
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> recv ()
      in
      recv ();
      let raw = Buffer.contents buf in
      (* Split headers from body at the blank line. *)
      let rec find_body i =
        if i + 3 >= String.length raw then None
        else if String.sub raw i 4 = "\r\n\r\n" then Some (i + 4)
        else if String.sub raw i 2 = "\n\n" then Some (i + 2)
        else find_body (i + 1)
      in
      let status =
        match String.split_on_char ' ' raw with
        | _ :: code :: _ -> Option.value ~default:0 (int_of_string_opt code)
        | _ -> 0
      in
      match find_body 0 with
      | Some i -> (status, String.sub raw i (String.length raw - i))
      | None -> (status, ""))

let top_total lines fam = Ssd_obs.Export.counter_total lines fam

let top_percentile lines fam q =
  let buckets =
    List.filter_map
      (function
        | Ssd_obs.Export.Sample s when s.Ssd_obs.Export.family = fam ^ "_bucket" -> (
          match List.assoc_opt "le" s.Ssd_obs.Export.labels with
          | Some "+Inf" | None -> None
          | Some le -> (
            match float_of_string_opt le with
            | Some ub -> Some (ub, s.Ssd_obs.Export.value)
            | None -> None))
        | _ -> None)
      lines
    |> List.sort compare
  in
  let total = top_total lines (fam ^ "_count") in
  if total <= 0. then 0.
  else begin
    let rank = q *. total in
    let rec go last = function
      | [] -> last
      | (ub, cum) :: rest -> if cum >= rank then ub else go ub rest
    in
    go 0. buckets
  end

let top_fmt_ns ns =
  if ns < 1e3 then Printf.sprintf "%.0fns" ns
  else if ns < 1e6 then Printf.sprintf "%.1fus" (ns /. 1e3)
  else if ns < 1e9 then Printf.sprintf "%.2fms" (ns /. 1e6)
  else Printf.sprintf "%.2fs" (ns /. 1e9)

let top_fmt_bytes b =
  if b < 1024. then Printf.sprintf "%.0fB" b
  else if b < 1024. *. 1024. then Printf.sprintf "%.1fKiB" (b /. 1024.)
  else Printf.sprintf "%.2fMiB" (b /. (1024. *. 1024.))

let top_pct num den = if den <= 0. then 0. else 100. *. num /. den

let top_cmd addr_str interval iterations raw =
  let addr =
    match Ssd_serve.Admin.addr_of_string addr_str with
    | Result.Ok a -> a
    | Result.Error e ->
      Printf.eprintf "ssdql top: %s\n" e;
      exit 2
  in
  let prev = ref None in
  let sample i =
    match admin_http_get addr "/metrics" with
    | exception Unix.Unix_error (err, _, _) ->
      Printf.eprintf "ssdql top: %s unreachable: %s\n%!" addr_str
        (Unix.error_message err);
      exit 1
    | 200, body -> (
      match Ssd_obs.Export.parse body with
      | Result.Error e ->
        Printf.eprintf "ssdql top: bad exposition: %s\n%!" e;
        exit 1
      | Result.Ok lines ->
        let now = Unix.gettimeofday () in
        let requests = top_total lines "ssd_serve_requests_total" in
        let qps =
          match !prev with
          | Some (t0, r0) when now > t0 -> (requests -. r0) /. (now -. t0)
          | _ -> 0.
        in
        prev := Some (now, requests);
        let p50 = top_percentile lines "ssd_serve_latency_ns" 0.5 in
        let p99 = top_percentile lines "ssd_serve_latency_ns" 0.99 in
        let accepted = top_total lines "ssd_serve_accepted_total" in
        let hits = top_total lines "ssd_serve_cache_hits_total" in
        let shed = top_total lines "ssd_serve_shed_total" in
        let partial = top_total lines "ssd_serve_partial_total" in
        let conns = top_total lines "ssd_serve_active_connections" in
        let dirty = top_total lines "ssd_store_dirty_pages" in
        let wal = top_total lines "ssd_store_wal_backlog_bytes" in
        let clean = top_total lines "ssd_store_clean" in
        let pool = top_total lines "ssd_store_bufpool_pages" in
        let pool_cap = top_total lines "ssd_store_bufpool_capacity" in
        let tenants =
          List.filter_map
            (function
              | Ssd_obs.Export.Sample s
                when s.Ssd_obs.Export.family = "ssd_serve_tenant_requests_total" ->
                Option.map
                  (fun t -> (t, s.Ssd_obs.Export.value))
                  (List.assoc_opt "tenant" s.Ssd_obs.Export.labels)
              | _ -> None)
            lines
        in
        if raw then begin
          Printf.printf "sample %d qps %.1f requests %.0f p50_ns %.0f p99_ns %.0f\n" i
            qps requests p50 p99;
          Printf.printf
            "sample %d cache_hit_pct %.1f shed_pct %.1f partial_pct %.1f conns %.0f\n"
            i (top_pct hits accepted) (top_pct shed requests)
            (top_pct partial requests) conns;
          Printf.printf "sample %d wal_bytes %.0f dirty_pages %.0f clean %.0f\n%!" i
            wal dirty clean
        end
        else begin
          let tm = Unix.localtime now in
          Printf.printf "ssdql top — %s — %02d:%02d:%02d (sample %d)\n" addr_str
            tm.Unix.tm_hour tm.Unix.tm_min tm.Unix.tm_sec i;
          Printf.printf "  qps %8.1f   latency p50 %-9s p99 %-9s conns %.0f\n" qps
            (top_fmt_ns p50) (top_fmt_ns p99) conns;
          Printf.printf
            "  requests %.0f   cache hit %.1f%%   shed %.1f%%   partial %.1f%%\n"
            requests (top_pct hits accepted) (top_pct shed requests)
            (top_pct partial requests);
          Printf.printf
            "  store: clean=%s   wal backlog %s   dirty pages %.0f   bufpool %.0f/%.0f\n"
            (if clean >= 1. then "yes" else "no")
            (top_fmt_bytes wal) dirty pool pool_cap;
          (match List.sort (fun (_, a) (_, b) -> compare b a) tenants with
          | [] -> ()
          | ts ->
            Printf.printf "  tenants: %s\n"
              (String.concat "  "
                 (List.map (fun (t, v) -> Printf.sprintf "%s=%.0f" t v) ts)));
          print_newline ();
          flush stdout
        end)
    | status, _ ->
      Printf.eprintf "ssdql top: /metrics answered HTTP %d\n%!" status;
      exit 1
  in
  let i = ref 1 in
  let continue () = iterations = 0 || !i <= iterations in
  while continue () do
    sample !i;
    incr i;
    if continue () then Unix.sleepf interval
  done

(* ------------------------------------------------------------------ *)
(* store init|stat|fsck|compact                                        *)
(* ------------------------------------------------------------------ *)

let print_store_stat st =
  let s = Ssd_store.Store.stat st in
  Printf.printf "page size:   %d bytes\n" s.Ssd_store.Store.stat_page_size;
  Printf.printf "pages:       %d\n" s.Ssd_store.Store.stat_n_pages;
  Printf.printf "wal:         %d bytes pending\n" s.Ssd_store.Store.stat_wal_bytes;
  Printf.printf "clean:       %b\n" s.Ssd_store.Store.stat_clean;
  Printf.printf "graph:       %d nodes, %d edges\n" s.Ssd_store.Store.stat_nodes
    s.Ssd_store.Store.stat_edges;
  List.iter
    (fun (name, len) -> Printf.printf "segment %-6s %d bytes\n" name len)
    s.Ssd_store.Store.stat_segs

let store_init_cmd dir data page_size indexes path_depth =
  let g = load_data data in
  let indexes =
    match indexes with
    | "" | "none" -> []
    | "all" -> Ssd_store.Store.all_indexes
    | spec -> String.split_on_char ',' spec
  in
  let st =
    Ssd_store.Store.create ~page_size ~indexes ~path_depth (Ssd_store.Vfs.real dir) g
  in
  print_store_stat st;
  Ssd_store.Store.close st;
  Printf.printf "store initialized in %s\n" dir

let store_stat_cmd dir =
  let st = Ssd_store.Store.open_ (Ssd_store.Vfs.real dir) in
  let r = Ssd_store.Store.recovery st in
  if not r.Ssd_store.Store.was_clean then
    Printf.eprintf "ssdql store: recovered %d txns (%d torn bytes discarded)\n%!"
      r.Ssd_store.Store.recovered_txns r.Ssd_store.Store.torn_bytes;
  print_store_stat st;
  Ssd_store.Store.close st

let store_fsck_cmd dir =
  let diags = Ssd_store.Store.fsck (Ssd_store.Vfs.real dir) in
  if diags = [] then print_endline "fsck: clean"
  else print_string (Ssd_diag.render diags);
  if Ssd_diag.count Ssd_diag.Error diags > 0 then exit 1

let store_compact_cmd dir =
  let st = Ssd_store.Store.open_ (Ssd_store.Vfs.real dir) in
  Ssd_store.Store.compact st;
  print_store_stat st;
  Ssd_store.Store.close st;
  Printf.printf "store compacted\n"

(* ------------------------------------------------------------------ *)
(* cmdliner wiring                                                     *)
(* ------------------------------------------------------------------ *)

open Cmdliner

let data_doc =
  "Data file (.ssd syntax; .json and .oem are auto-detected) \
   or builtin:KIND[:N] for a generated workload \
   (figure1|movies|web|bio|bib|randtree)."

let data_arg =
  Arg.(required & opt (some string) None & info [ "d"; "data" ] ~docv:"FILE" ~doc:data_doc)

(* --data made optional, for commands that also accept --store. *)
let data_opt_arg =
  Arg.(value & opt (some string) None & info [ "d"; "data" ] ~docv:"FILE" ~doc:data_doc)

let store_arg =
  Arg.(value & opt (some string) None & info [ "store" ] ~docv:"DIR"
         ~doc:"Persistent store directory (created by $(b,ssdql store init)); \
               mutually exclusive with --data. Opening runs crash recovery if \
               the store was not closed cleanly.")

let store_req_arg =
  Arg.(required & opt (some string) None & info [ "store" ] ~docv:"DIR"
         ~doc:"Persistent store directory.")

let deadline_ms_arg =
  Arg.(value & opt (some float) None & info [ "deadline-ms" ] ~docv:"MS"
         ~doc:"Evaluation deadline in milliseconds of CPU time; on expiry the \
               evaluation stops and reports a partial answer (a sound subset of \
               the complete one).")

let max_steps_arg =
  Arg.(value & opt (some int) None & info [ "max-steps" ] ~docv:"N"
         ~doc:"Evaluation step budget (frontier expansions / bindings / rule \
               firings); on exhaustion the evaluation stops and reports a \
               partial answer.")

let jobs_arg =
  Arg.(value & opt int 1 & info [ "j"; "jobs" ] ~docv:"N"
         ~doc:"Evaluate with a pool of N worker domains (default 1). Answers, \
               stats and cache fingerprints are identical for every N; only \
               wall-clock time changes.")

(* One --lang for every subcommand, from Lang's name table; commands
   with no use for a language refuse it at run time. *)
let lang_arg =
  Arg.(value & opt (enum Lang.names) Lang.Unql & info [ "l"; "lang" ] ~docv:"LANG"
         ~doc:("Query language: " ^ doc_alts_enum Lang.names ^ ". check and explain \
                take all but websql; subscribe takes unql or datalog."))

let trace_out_arg =
  Arg.(value & opt (some string) None & info [ "trace-out" ] ~docv:"FILE"
         ~doc:"Write the execution trace as Chrome trace-event JSON, loadable \
               in chrome://tracing or Perfetto.")

let query_t =
  let explain =
    Arg.(value & flag & info [ "explain" ]
           ~doc:"Print the normalized query, regex automaton sizes and \
                 DataGuide prune opportunities before evaluating (unql only).")
  in
  let cache =
    Arg.(value & flag & info [ "cache" ]
           ~doc:"Evaluate through the shared plan/result cache (unql only); \
                 prints hit/miss counters to stderr.")
  in
  let repeat =
    Arg.(value & opt int 1 & info [ "repeat" ] ~docv:"N"
           ~doc:"Evaluate the query N times (exercises the cache).")
  in
  let quiet =
    Arg.(value & flag & info [ "q"; "quiet" ]
           ~doc:"Suppress the query result (useful with --stats).")
  in
  let stats =
    Arg.(value & flag & info [ "stats" ]
           ~doc:"Dump the metrics registry after evaluation.")
  in
  let stats_format =
    Arg.(value & opt string "text" & info [ "stats-format" ] ~docv:"FMT"
           ~doc:"Metrics dump format: text or json.")
  in
  let trace =
    Arg.(value & flag & info [ "trace" ]
           ~doc:"Print a span tree of the evaluation to stderr.")
  in
  let lint =
    Arg.(value & opt ~vopt:"warn" string "off" & info [ "lint" ] ~docv:"MODE"
           ~doc:"Run the static analyzer before evaluating: warn prints findings \
                 to stderr, error additionally rejects the query if any finding \
                 has Error severity.")
  in
  let q = Arg.(required & pos 0 (some string) None & info [] ~docv:"QUERY") in
  Cmd.v (Cmd.info "query" ~doc:"Run a query against a data file or persistent store")
    Term.(const query_cmd $ jobs_arg $ data_opt_arg $ store_arg $ lang_arg $ lint $ explain
          $ cache $ repeat $ quiet
          $ stats $ stats_format $ trace $ trace_out_arg $ deadline_ms_arg
          $ max_steps_arg $ q)

let check_t =
  let data =
    Arg.(value & opt (some string) None & info [ "d"; "data" ] ~docv:"FILE"
           ~doc:"Data file or builtin:KIND[:N]; when given, path expressions are \
                 checked for satisfiability against its DataGuide.")
  in
  let schema =
    Arg.(value & opt (some file) None & info [ "s"; "schema" ] ~docv:"FILE"
           ~doc:"Check path satisfiability against this graph schema instead of a \
                 DataGuide.")
  in
  let format =
    Arg.(value & opt string "text" & info [ "format" ] ~docv:"FMT"
           ~doc:"Report format: text or json.")
  in
  let codes =
    Arg.(value & flag & info [ "codes" ]
           ~doc:"List every SSDxxx diagnostic code with its severity and exit.")
  in
  let stats =
    Arg.(value & flag & info [ "stats" ]
           ~doc:"Dump the lint.* counters from the metrics registry.")
  in
  let cost =
    Arg.(value & flag & info [ "cost" ]
           ~doc:"Also run the cardinality/cost analysis over the data's \
                 annotated DataGuide (needs --data): estimated result \
                 cardinality, conjunct-order costs and the SSD25x \
                 diagnostics.  With --schema and unql, the inferred result \
                 schema is checked for subsumption (SSD254).")
  in
  let q = Arg.(value & pos 0 (some string) None & info [] ~docv:"QUERY") in
  Cmd.v
    (Cmd.info "check"
       ~doc:"Statically analyze a query without running it (exit 1 on errors)")
    Term.(const check_cmd $ data $ lang_arg $ schema $ format $ codes $ stats $ cost $ q)

let explain_t =
  let format =
    Arg.(value & opt string "text" & info [ "format" ] ~docv:"FMT"
           ~doc:"Output format: text or json.")
  in
  let q = Arg.(required & pos 0 (some string) None & info [] ~docv:"QUERY") in
  Cmd.v
    (Cmd.info "explain"
       ~doc:"Show the planner's view of a query: per-operator cardinality \
             estimates and access paths from the annotated DataGuide, \
             next to the actual cardinality from one evaluation")
    Term.(const explain_cmd $ data_arg $ lang_arg $ format $ q)

let convert_t =
  let target =
    Arg.(value & opt string "ssd" & info [ "t"; "to" ] ~docv:"FMT"
           ~doc:"Target format: ssd, json, oem or triples.")
  in
  Cmd.v (Cmd.info "convert" ~doc:"Convert between data formats")
    Term.(const convert_cmd $ data_arg $ target)

let dataguide_t =
  let max_len =
    Arg.(value & opt int 4 & info [ "max-len" ] ~docv:"N" ~doc:"Path length cutoff.")
  in
  Cmd.v (Cmd.info "dataguide" ~doc:"Print the strong DataGuide")
    Term.(const dataguide_cmd $ data_arg $ max_len)

let validate_t =
  let schema =
    Arg.(required & opt (some file) None & info [ "s"; "schema" ] ~docv:"FILE"
           ~doc:"Graph schema file.")
  in
  Cmd.v (Cmd.info "validate" ~doc:"Validate data against a graph schema")
    Term.(const validate_cmd $ data_arg $ schema)

let update_t =
  let stmts = Arg.(required & pos 0 (some string) None & info [] ~docv:"STATEMENTS") in
  Cmd.v
    (Cmd.info "update"
       ~doc:"Apply insert/delete/rename statements; print the new database. \
             With --store the new database is durably committed in place.")
    Term.(const update_cmd $ data_opt_arg $ store_arg $ stmts)

let stats_t =
  Cmd.v (Cmd.info "stats" ~doc:"Print graph statistics") Term.(const stats_cmd $ data_arg)

let gen_t =
  let kind = Arg.(required & pos 0 (some string) None & info [] ~docv:"KIND") in
  let n = Arg.(value & opt int 100 & info [ "n" ] ~docv:"N" ~doc:"Size parameter.") in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED") in
  Cmd.v (Cmd.info "gen" ~doc:"Generate a synthetic workload")
    Term.(const gen_cmd $ kind $ n $ seed)

let profile_t =
  let repeat =
    Arg.(value & opt int 1 & info [ "repeat" ] ~docv:"N"
           ~doc:"Evaluate the query N times; the table aggregates all runs.")
  in
  let format =
    Arg.(value & opt string "text" & info [ "format" ] ~docv:"FMT"
           ~doc:"Table format: text or json.")
  in
  let q = Arg.(required & pos 0 (some string) None & info [] ~docv:"QUERY") in
  Cmd.v
    (Cmd.info "profile"
       ~doc:"Evaluate a query with tracing on and print per-operator \
             inclusive/exclusive time (a sorted flame table)")
    Term.(const profile_cmd $ jobs_arg $ data_arg $ lang_arg $ repeat $ format $ trace_out_arg $ q)

let dist_t =
  let sites =
    Arg.(value & opt int 4 & info [ "sites" ] ~docv:"K" ~doc:"Number of sites.")
  in
  let partition =
    Arg.(value & opt string "bfs" & info [ "partition" ] ~docv:"KIND"
           ~doc:"Graph partition: bfs (contiguous, good locality) or random \
                 (hash, worst-case locality).")
  in
  let seed =
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED"
           ~doc:"Seed for --partition random.")
  in
  let faults =
    Arg.(value & opt (some string) None & info [ "faults" ] ~docv:"SPEC"
           ~doc:"Deterministic fault schedule, e.g. \
                 seed:7,drop:0.2,dup:0.05,reorder:0.1,crash:2\\@3+4,slow:0\\@3,\
                 ckpt:2,backoff:exp,rounds:500.  The same SPEC replays the \
                 identical fault history: answers and stats are reproducible.")
  in
  let format =
    Arg.(value & opt string "text" & info [ "format" ] ~docv:"FMT"
           ~doc:"Output format: text (accepting/status/stats lines) or json.")
  in
  let quiet =
    Arg.(value & flag & info [ "q"; "quiet" ] ~doc:"Suppress the stats line (text format).")
  in
  let q =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"PATH_QUERY"
           ~doc:"Regular path query, e.g. 'host.page.(link)*.title._'.")
  in
  Cmd.v
    (Cmd.info "dist"
       ~doc:"Evaluate a regular path query distributed over a partitioned graph, \
             with optional fault injection and deadlines")
    Term.(const dist_cmd $ jobs_arg $ data_arg $ sites $ partition $ seed $ faults
          $ deadline_ms_arg $ max_steps_arg $ format $ quiet $ trace_out_arg $ q)

let serve_t =
  let socket =
    Arg.(value & opt string "/tmp/ssdql.sock" & info [ "socket" ] ~docv:"PATH"
           ~doc:"Unix socket path to listen on (default; ignored with --port).")
  in
  let port =
    Arg.(value & opt (some int) None & info [ "port" ] ~docv:"N"
           ~doc:"Listen on TCP instead of a Unix socket; 0 picks a free port \
                 (printed on the status line).")
  in
  let host =
    Arg.(value & opt string "127.0.0.1" & info [ "host" ] ~docv:"HOST"
           ~doc:"Bind address for --port.")
  in
  let workers =
    Arg.(value & opt int 4 & info [ "workers" ] ~docv:"N"
           ~doc:"Worker domains serving connections concurrently (default 4).")
  in
  let shed_at =
    Arg.(value & opt int Ssd_serve.Engine.default_config.Ssd_serve.Engine.shed_at
         & info [ "shed-at" ] ~docv:"N"
             ~doc:"Load (queued + in-flight requests) above which new queries \
                   are refused with a shed response (SSD554).")
  in
  let pressure_at =
    Arg.(value
         & opt int Ssd_serve.Engine.default_config.Ssd_serve.Engine.pressure_at
         & info [ "pressure-at" ] ~docv:"N"
             ~doc:"Load above which query step budgets are clamped so requests \
                   answer quickly with typed partial results.")
  in
  let pressure_max_steps =
    Arg.(value
         & opt int
             Ssd_serve.Engine.default_config.Ssd_serve.Engine.pressure_max_steps
         & info [ "pressure-max-steps" ] ~docv:"N"
             ~doc:"The clamped step budget applied under pressure.")
  in
  let max_frame =
    Arg.(value & opt int Ssd_serve.Engine.default_config.Ssd_serve.Engine.max_frame
         & info [ "max-frame" ] ~docv:"BYTES"
             ~doc:"Request frames longer than this are refused (SSD551).")
  in
  let cache_capacity =
    Arg.(value & opt int 128 & info [ "cache-capacity" ] ~docv:"N"
           ~doc:"Entries in the shared query result cache (LRU).")
  in
  let max_requests =
    Arg.(value & opt (some int) None & info [ "max-requests" ] ~docv:"N"
           ~doc:"Stop gracefully after handling N requests (for scripted runs; \
                 default: run until SIGINT/SIGTERM).")
  in
  let stats =
    Arg.(value & flag & info [ "stats" ]
           ~doc:"Dump the metrics registry (serve.* counters and the latency \
                 histogram) after shutdown.")
  in
  let stats_format =
    Arg.(value & opt string "text" & info [ "stats-format" ] ~docv:"FMT"
           ~doc:"Metrics dump format: text or json.")
  in
  let admin =
    Arg.(value & opt (some string) None & info [ "admin" ] ~docv:"ADDR"
           ~doc:"Expose the admin plane (GET /metrics, /healthz, /varz, \
                 /events) over minimal HTTP on unix:PATH or tcp:HOST:PORT.")
  in
  let slow_query_ms =
    Arg.(value
         & opt float
             Ssd_serve.Engine.default_config.Ssd_serve.Engine.slow_query_ms
         & info [ "slow-query-ms" ] ~docv:"MS"
             ~doc:"Queries slower than this emit a slow_query event carrying \
                   the plan and est-vs-actual cardinality (default 250).")
  in
  let events_out =
    Arg.(value & opt (some string) None & info [ "events-out" ] ~docv:"PATH"
           ~doc:"Also append every structured event to this JSONL file \
                 (flushed per line).")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Serve queries to concurrent clients over a Unix or TCP socket, \
             with a shared result cache, admission control and load shedding")
    Term.(const serve_cmd $ data_opt_arg $ store_arg $ socket $ port $ host $ workers
          $ shed_at
          $ pressure_at $ pressure_max_steps $ max_frame $ cache_capacity
          $ max_requests $ trace_out_arg $ stats $ stats_format $ admin
          $ slow_query_ms $ events_out)

let subscribe_t =
  let socket =
    Arg.(value & opt string "/tmp/ssdql.sock" & info [ "socket" ] ~docv:"PATH"
           ~doc:"Unix socket of the running ssdql serve (ignored with --port).")
  in
  let port =
    Arg.(value & opt (some int) None & info [ "port" ] ~docv:"N"
           ~doc:"Connect over TCP instead of a Unix socket.")
  in
  let host =
    Arg.(value & opt string "127.0.0.1" & info [ "host" ] ~docv:"HOST"
           ~doc:"Host for --port.")
  in
  let count =
    Arg.(value & opt int 0 & info [ "count"; "n" ] ~docv:"N"
           ~doc:"Exit after N pushed delta frames (default 0: stream until \
                 the server closes the connection).")
  in
  let q = Arg.(required & pos 0 (some string) None & info [] ~docv:"QUERY") in
  Cmd.v
    (Cmd.info "subscribe"
       ~doc:"Register a live query on a running ssdql serve and stream the \
             delta frames pushed when committed updates change its result")
    Term.(const subscribe_cmd $ socket $ port $ host $ lang_arg $ count $ q)

let top_t =
  let addr =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"ADDR"
           ~doc:"The admin-plane address of a running ssdql serve \
                 (unix:PATH or tcp:HOST:PORT, as given to --admin).")
  in
  let interval =
    Arg.(value & opt float 2.0 & info [ "interval"; "i" ] ~docv:"SECONDS"
           ~doc:"Seconds between samples (default 2).")
  in
  let iterations =
    Arg.(value & opt int 0 & info [ "iterations"; "n" ] ~docv:"N"
           ~doc:"Stop after N samples (default 0: run until interrupted).")
  in
  let raw =
    Arg.(value & flag & info [ "raw" ]
           ~doc:"Machine-readable output: one 'sample N key value ...' line \
                 group per sample, no dashboard formatting.")
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:"Polling terminal dashboard (qps, p50/p99 latency, cache hit \
             rate, shed rate, WAL backlog, per-tenant traffic) over the \
             admin plane's /metrics endpoint")
    Term.(const top_cmd $ addr $ interval $ iterations $ raw)

let store_t =
  let init =
    let page_size =
      Arg.(value & opt int 4096 & info [ "page-size" ] ~docv:"BYTES"
             ~doc:"Page size of the new store (128..65536; default 4096).")
    in
    let indexes =
      Arg.(value & opt string "all" & info [ "indexes" ] ~docv:"LIST"
             ~doc:"Comma-separated index segments to maintain at every commit: \
                   any of value,text,path,guide; also 'all' (default) or 'none'. \
                   Maintained indexes are checkpointed and a cold open loads \
                   them without rebuilding.")
    in
    let path_depth =
      Arg.(value & opt int 3 & info [ "path-depth" ] ~docv:"N"
             ~doc:"Depth bound of the maintained path index (default 3).")
    in
    Cmd.v
      (Cmd.info "init" ~doc:"Create a persistent store from a data file")
      Term.(const store_init_cmd $ store_req_arg $ data_arg $ page_size $ indexes
            $ path_depth)
  in
  let stat =
    Cmd.v
      (Cmd.info "stat" ~doc:"Show pages, segments, WAL backlog and the clean flag")
      Term.(const store_stat_cmd $ store_req_arg)
  in
  let fsck =
    Cmd.v
      (Cmd.info "fsck"
         ~doc:"Offline structural check (read-only): header and page CRCs, \
               segment directory bounds, segment decode, WAL tail state. \
               Exits 1 if any Error-severity finding (SSD56x) is reported.")
      Term.(const store_fsck_cmd $ store_req_arg)
  in
  let compact =
    Cmd.v
      (Cmd.info "compact" ~doc:"Apply the WAL and trim the data file to its live pages")
      Term.(const store_compact_cmd $ store_req_arg)
  in
  Cmd.group
    (Cmd.info "store" ~doc:"Manage crash-safe persistent graph stores (WAL + recovery)")
    [ init; stat; fsck; compact ]

(* The one handler for typed failures: a syntax error in a query, a data
   file or a schema, a rejected program or a runtime diagnostic is
   rendered like a lint finding on stderr, exit 1.  Anything else is an
   internal error (exit 125, as cmdliner reports it). *)
let () =
  let doc = "semistructured data toolbox (Buneman, PODS'97 reproduction)" in
  let info = Cmd.info "ssdql" ~version:"1.0.0" ~doc in
  match
    Cmd.eval ~catch:false
      (Cmd.group info
         [
           query_t;
           check_t;
           explain_t;
           convert_t;
           dataguide_t;
           validate_t;
           update_t;
           stats_t;
           gen_t;
           dist_t;
           profile_t;
           serve_t;
           subscribe_t;
           top_t;
           store_t;
         ])
  with
  | code -> exit code
  | exception Ssd_diag.Fail d ->
    prerr_string (Ssd_diag.render [ d ]);
    exit 1
  | exception e ->
    prerr_endline ("ssdql: internal error, uncaught exception: " ^ Printexc.to_string e);
    exit Cmd.Exit.internal_error
