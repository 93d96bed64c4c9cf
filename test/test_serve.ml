(* The serve tentpole, tested transport-free: Engine.handle_line IS the
   protocol (one frame in, one frame out), so concurrency, cache
   sharing, admission control and the adversarial fuzz all run
   in-process — no sockets, no sleeps, deterministic failures.  The
   socket transport itself is exercised by check_serve.ml. *)

module Graph = Ssd.Graph
module Engine = Ssd_serve.Engine
module Proto = Ssd_serve.Proto
module Cache = Unql.Cache
module Q = QCheck2.Gen

let check = Alcotest.(check bool)

(* No admission control: every request admitted, unclamped. *)
let no_pressure =
  { Engine.default_config with Engine.pressure_at = max_int; shed_at = max_int }

(* Parse exactly one response frame covering the whole string. *)
let parse_one s =
  match Proto.parse_response s 0 with
  | Ok (r, pos) when pos = String.length s -> r
  | Ok (_, pos) ->
    Alcotest.failf "trailing bytes after frame (%d of %d)" pos (String.length s)
  | Error `Incomplete -> Alcotest.failf "incomplete frame: %S" s
  | Error (`Malformed why) -> Alcotest.failf "malformed frame (%s): %S" why s

let query_req q = "QUERY - " ^ Unql.Pretty.expr_to_string q

(* What the sequential CLI prints for this query, as a wire frame. *)
let expected_frame ~db q =
  Proto.render_response
    (Proto.response Proto.Complete (Graph.to_string (Unql.Eval.eval ~db q) ^ "\n"))

let print_pair (g, q) =
  Printf.sprintf "query: %s\ndb: %s" (Unql.Pretty.expr_to_string q) (Graph.to_string g)

let contains ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  n = 0 || go 0

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let props =
  [
    Gen.qtest "concurrent clients are byte-identical to the sequential CLI" ~count:20
      (Q.pair Gen.graph (Q.list_size (Q.int_range 1 4) Gen.unql_query))
      (fun (g, qs) ->
        let engine = Engine.create ~config:no_pressure (Engine.store ~db:g ()) in
        let reqs = List.map query_req qs in
        let expected = List.map (expected_frame ~db:g) qs in
        let client () = List.map (fun r -> Engine.handle_line engine r) reqs in
        let domains = Array.init 4 (fun _ -> Domain.spawn client) in
        let answers = Array.map Domain.join domains in
        Array.for_all (fun got -> List.equal String.equal expected got) answers);
    Gen.qtest "client B hits the entry client A warmed (same frame bytes)" ~count:40
      ~print:print_pair
      (Q.pair Gen.graph Gen.unql_query)
      (fun (g, q) ->
        let store = Engine.store ~db:g () in
        (* two engines = two "tenants" over one shared store *)
        let a = Engine.create ~config:no_pressure store in
        let b = Engine.create ~config:no_pressure store in
        let r1 = Engine.handle_line a (query_req q) in
        let r2 = Engine.handle_line b (query_req q) in
        let s = Engine.cache_stats store in
        String.equal r1 r2 && s.Cache.misses = 1 && s.Cache.hits = 1);
    Gen.qtest "cache=off never populates the shared cache" ~count:30
      (Q.pair Gen.graph Gen.unql_query)
      (fun (g, q) ->
        let store = Engine.store ~db:g () in
        let engine = Engine.create ~config:no_pressure store in
        let req = "QUERY cache=off " ^ Unql.Pretty.expr_to_string q in
        let r1 = Engine.handle_line engine req in
        let r2 = Engine.handle_line engine req in
        let s = Engine.cache_stats store in
        String.equal r1 r2 && s.Cache.misses = 0 && s.Cache.hits = 0
        && String.equal r1 (expected_frame ~db:g q));
    Gen.qtest "a saturated server sheds with a well-formed SSD554 frame" ~count:30
      (Q.pair Gen.graph Gen.unql_query)
      (fun (g, q) ->
        let config = { Engine.default_config with Engine.shed_at = -1 } in
        let engine = Engine.create ~config (Engine.store ~db:g ()) in
        let r = parse_one (Engine.handle_line engine (query_req q)) in
        r.Proto.status = Proto.Shed
        && String.equal r.Proto.detail "SSD554"
        && (Engine.stats engine).Engine.shed = 1
        && (Engine.stats engine).Engine.accepted = 0);
    Gen.qtest "under pressure every answer is a typed complete/partial frame" ~count:30
      (Q.pair Gen.graph Gen.unql_query)
      (fun (g, q) ->
        let config =
          {
            Engine.default_config with
            Engine.pressure_at = -1;
            pressure_max_steps = 1;
            shed_at = max_int;
          }
        in
        let engine = Engine.create ~config (Engine.store ~db:g ()) in
        let r = parse_one (Engine.handle_line engine (query_req q)) in
        match r.Proto.status with
        | Proto.Complete -> String.equal r.Proto.detail "-"
        | Proto.Partial ->
          List.mem r.Proto.detail [ "steps"; "deadline"; "stalled" ]
          && (Engine.stats engine).Engine.partial = 1
        | Proto.Shed | Proto.Error | Proto.Delta -> false);
  ]

(* ------------------------------------------------------------------ *)
(* Protocol fuzz: mangled frames never crash or wedge the engine       *)
(* ------------------------------------------------------------------ *)

(* A request line under attack: a valid frame that was truncated,
   bit-flipped or byte-stomped, or outright junk. *)
let mangled_request : string Q.t =
  let open Q in
  let valid =
    oneof
      [
        Q.map query_req Gen.unql_query;
        pure "PING";
        pure "STATS -";
        pure "UPDATE - insert DB.a := {x: {}}";
        pure "QUERY lang=lorel,max-steps=100 select m from DB.a m";
      ]
  in
  let* s = valid in
  let n = String.length s in
  let* choice = int_range 0 3 in
  match choice with
  | 0 ->
    let* k = int_range 0 n in
    pure (String.sub s 0 k)
  | 1 ->
    let* flips = list_size (int_range 1 4) (pair (int_range 0 (n - 1)) (int_range 0 7)) in
    let b = Bytes.of_string s in
    List.iter
      (fun (i, bit) -> Bytes.set_uint8 b i (Bytes.get_uint8 b i lxor (1 lsl bit)))
      flips;
    pure (Bytes.to_string b)
  | 2 ->
    let* i = int_range 0 (n - 1) in
    let* v = int_range 0 255 in
    let b = Bytes.of_string s in
    Bytes.set_uint8 b i v;
    pure (Bytes.to_string b)
  | _ ->
    let* junk = list_size (int_range 0 40) (int_range 0 255) in
    pure (String.init (List.length junk) (fun i -> Char.chr (List.nth junk i)))

let fuzz =
  [
    Gen.qtest "mangled frames get a typed answer and never kill the engine" ~count:300
      ~print:(fun (_, raw) -> String.escaped raw)
      (Q.pair Gen.graph mangled_request)
      (fun (g, raw) ->
        let engine = Engine.create (Engine.store ~db:g ()) in
        (* must not raise, must answer exactly one well-formed frame *)
        let r = parse_one (Engine.handle_line engine raw) in
        (match r.Proto.status with
        | Proto.Error ->
          (* typed diagnostic, never a bare exception code *)
          String.length r.Proto.detail = 6
          && String.sub r.Proto.detail 0 3 = "SSD"
        | Proto.Complete | Proto.Partial | Proto.Shed | Proto.Delta -> true)
        &&
        (* and the engine still serves afterwards: no wedged lock/state *)
        let pong = parse_one (Engine.handle_line engine "PING") in
        pong.Proto.status = Proto.Complete && String.equal pong.Proto.body "pong\n");
  ]

(* ------------------------------------------------------------------ *)
(* Deterministic regressions                                           *)
(* ------------------------------------------------------------------ *)

let fig1 () = Ssd_workload.Movies.figure1 ()

let q_titles = {| select {t: \T} where {entry.movie.title: \T} <- DB |}

(* Satellite regression: two engines over one shared store — an update
   through engine B must invalidate what engine A cached, atomically. *)
let shared_store_never_stale () =
  let db = fig1 () in
  let store = Engine.store ~db () in
  let a = Engine.create store in
  let b = Engine.create store in
  let req = "QUERY - " ^ q_titles in
  let r_before = Engine.handle_line a req in
  ignore (Engine.handle_line b req);
  check "B hit A's warmed entry" true ((Engine.cache_stats store).Cache.hits = 1);
  let upd =
    parse_one
      (Engine.handle_line b {|UPDATE - insert DB.entry := {movie: {title: "Fresh"}}|})
  in
  check "update acknowledged complete" true (upd.Proto.status = Proto.Complete);
  check "update invalidated the old graph's entries" true
    ((Engine.cache_stats store).Cache.invalidations >= 1);
  let r_after = Engine.handle_line a req in
  let expected =
    expected_frame ~db:(Engine.store_db store) (Unql.Parser.parse q_titles)
  in
  check "post-update answer is fresh, not the stale cache" true
    (String.equal r_after expected);
  check "and differs from the pre-update answer" true
    (not (String.equal r_after r_before));
  check "the fresh answer mentions the inserted title" true
    (contains ~needle:"Fresh" (parse_one r_after).Proto.body)

let oversized_frame_closes () =
  let engine = Engine.create (Engine.store ~db:(fig1 ()) ()) in
  let huge = "QUERY - " ^ String.make (Engine.default_config.Engine.max_frame + 1) 'x' in
  let resp, close = Engine.handle engine huge in
  check "SSD551" true (String.equal resp.Proto.detail "SSD551");
  check "error status" true (resp.Proto.status = Proto.Error);
  check "connection closes" true close;
  (* a fresh request on a new "connection" still works *)
  let pong, close' = Engine.handle engine "PING" in
  check "engine survives" true (pong.Proto.status = Proto.Complete && not close')

let malformed_and_unsupported () =
  let engine = Engine.create (Engine.store ~db:(fig1 ()) ()) in
  let code raw = (parse_one (Engine.handle_line engine raw)).Proto.detail in
  Alcotest.(check string) "unknown verb" "SSD550" (code "FROBNICATE - x");
  Alcotest.(check string) "missing body" "SSD550" (code "QUERY -");
  Alcotest.(check string) "bad option" "SSD552" (code "QUERY max-steps=lots x");
  Alcotest.(check string) "unknown option" "SSD552" (code "QUERY color=red x");
  Alcotest.(check string) "unsupported language" "SSD555" (code "QUERY lang=sparql x");
  (* the lint gate runs before evaluation, so a syntax error carries the
     concrete SSD001 (unql) code in the detail token, not a generic
     runtime SSD553 *)
  Alcotest.(check string) "failed parse" "SSD001" (code "QUERY - select");
  Alcotest.(check string) "failed lorel parse" "SSD002"
    (code "QUERY lang=lorel select");
  (* a statically-detected hygiene error (unbound variable) is rejected
     with its own code before evaluation starts *)
  Alcotest.(check string) "unbound variable" "SSD303"
    (code "QUERY - select {r: x} where {a: \\t} <- DB")

(* The same table on a push-capable engine, where SUBSCRIBE gets past
   the transport check: syntax errors keep their SSD00x code in every
   language (WebSQL's is SSD005, from the one compile step), and a
   syntax or lint error wins over "unsupported subscription language"
   (SSD555), which a well-formed Lorel or WebSQL subscription gets. *)
let error_code_table () =
  let engine = Engine.create (Engine.store ~db:(fig1 ()) ()) in
  let code raw =
    (fst (Engine.handle ~push:ignore ~conn_id:1 engine raw)).Proto.detail
  in
  List.iter
    (fun (frame, expected) -> Alcotest.(check string) frame expected (code frame))
    [
      ("QUERY lang=datalog p(?X :-", "SSD003");
      ("QUERY lang=websql select", "SSD005");
      ("SUBSCRIBE - select", "SSD001");
      ("SUBSCRIBE lang=lorel select", "SSD002");
      ("SUBSCRIBE lang=lorel select X from DB.entry X", "SSD555");
      ("SUBSCRIBE lang=websql select", "SSD005");
      ("SUBSCRIBE lang=websql SELECT d.url FROM ANYWHERE d", "SSD555");
      ("SUBSCRIBE lang=sparql x", "SSD555");
      ("SUBSCRIBE lang=datalog p(?X :-", "SSD003");
    ]

(* [errors] counts every frame answered with status error, whatever the
   verb and wherever the error was found: malformed and oversized
   frames, UNSUBSCRIBE, SUBSCRIBE, QUERY and UPDATE alike. *)
let errors_count_every_error_frame () =
  let engine = Engine.create (Engine.store ~db:(fig1 ()) ()) in
  let serve_errors = Ssd_obs.Metrics.counter "serve.errors" in
  let before = Ssd_obs.Metrics.value serve_errors in
  let frames =
    [
      "FROBNICATE - x";
      "QUERY -";
      "QUERY color=red x";
      "QUERY lang=sparql x";
      "QUERY - select";
      "QUERY lang=websql select";
      "SUBSCRIBE - " ^ q_titles;
      "UNSUBSCRIBE - nope";
      "UNSUBSCRIBE - 42";
      "UPDATE - frobnicate";
      "QUERY - " ^ String.make (Engine.default_config.Engine.max_frame + 1) 'x';
      "PING";
      "QUERY - " ^ q_titles;
    ]
  in
  let n_error_frames =
    List.length
      (List.filter
         (fun raw -> (fst (Engine.handle engine raw)).Proto.status = Proto.Error)
         frames)
  in
  Alcotest.(check int) "eleven of the thirteen frames are errors" 11 n_error_frames;
  Alcotest.(check int) "stats.errors = error frames" n_error_frames
    (Engine.stats engine).Engine.errors;
  Alcotest.(check int) "serve.errors rose by the same" n_error_frames
    (Ssd_obs.Metrics.value serve_errors - before)

(* A request is compiled exactly once: one [lang.compile] span under
   each [serve.request], for a QUERY in every language, a QUERY past the
   slow-query threshold (whose estimate reuses the compiled query), and
   UnQL and datalog SUBSCRIBEs.  The lint pass runs once per linted
   request (WebSQL has no analyzer). *)
let rec count_spans name (sp : Ssd_obs.Trace.span) =
  List.fold_left
    (fun n c -> n + count_spans name c)
    (if sp.Ssd_obs.Trace.name = name then 1 else 0)
    sp.Ssd_obs.Trace.children

let one_compile_per_request () =
  let module Trace = Ssd_obs.Trace in
  let engine = Engine.create (Engine.store ~db:(fig1 ()) ()) in
  let slow =
    Engine.create
      ~config:{ Engine.default_config with Engine.slow_query_ms = 0. }
      (Engine.store ~db:(fig1 ()) ())
  in
  let web =
    Engine.create
      (Engine.store ~db:(Ssd_workload.Webgraph.generate ~seed:42 ~n_pages:20 ()) ())
  in
  let lint_checks = Ssd_obs.Metrics.counter "lint.checks" in
  let cases =
    [
      ("unql", engine, "QUERY - " ^ q_titles, 1);
      ("lorel", engine, "QUERY lang=lorel select X from DB.entry.movie X", 1);
      ("datalog", engine, "QUERY lang=datalog r(?X) :- root(?X).", 1);
      ("websql", web, "QUERY lang=websql SELECT d.url FROM ANYWHERE d", 0);
      ("slow unql", slow, "QUERY - " ^ q_titles, 1);
      ("slow lorel", slow, "QUERY lang=lorel select X from DB.entry.movie X", 1);
      ("subscribe unql", engine, "SUBSCRIBE - " ^ q_titles, 1);
      ("subscribe datalog", engine, "SUBSCRIBE lang=datalog r(?X) :- root(?X).", 1);
    ]
  in
  Trace.enable ();
  Fun.protect
    ~finally:(fun () ->
      Trace.disable ();
      Trace.clear ())
    (fun () ->
      List.iter
        (fun (what, e, raw, linted) ->
          Trace.clear ();
          let checks = Ssd_obs.Metrics.value lint_checks in
          let resp, _ = Engine.handle ~push:ignore ~conn_id:1 e raw in
          check (what ^ " answered") true (resp.Proto.status = Proto.Complete);
          match Trace.spans () with
          | [ root ] ->
            Alcotest.(check string) (what ^ " root span") "serve.request" root.Trace.name;
            Alcotest.(check int) (what ^ ": one lang.compile") 1
              (count_spans "lang.compile" root);
            Alcotest.(check int) (what ^ ": lint.checks") linted
              (Ssd_obs.Metrics.value lint_checks - checks)
          | roots -> Alcotest.failf "%s: %d root spans" what (List.length roots))
        cases)

(* What the sequential CLI prints for a datalog query, as a wire frame:
   [Lang.eval] without [?edb], so it builds the graph's EDB itself. *)
let datalog_cli_frame ?max_steps ~db text =
  let module Lang = Ssd_lint.Lang in
  let module Budget = Ssd.Budget in
  let budget = Option.map (fun max_steps -> Budget.create ~max_steps ()) max_steps in
  let outcome = Lang.eval ?budget ~db (Lang.compile Lang.Datalog text) in
  let status, detail =
    match outcome with
    | Budget.Complete _ -> (Proto.Complete, "-")
    | Budget.Partial (_, why) -> (Proto.Partial, Budget.exhaustion_to_string why)
  in
  Proto.render_response (Proto.response ~detail status (Lang.render (Budget.value outcome)))

(* The datalog readers of one snapshot version — QUERYs, a SUBSCRIBE, an
   UPDATE's subscription re-prepare — share one frozen EDB, built by the
   first of them inside a [datalog.base] span; an UPDATE's version
   builds its own; UnQL and Lorel traffic never builds one.  Every
   answer, partial ones included, is the CLI's. *)
let datalog_base_per_version () =
  let module Trace = Ssd_obs.Trace in
  let module Metrics = Ssd_obs.Metrics in
  let builds = Metrics.counter "datalog.base.builds" in
  let b0 = Metrics.value builds in
  let store = Engine.store ~db:(fig1 ()) () in
  let e = Engine.create ~config:no_pressure store in
  let prog =
    "reach(?X) :- root(?X). reach(?Y) :- reach(?X), edge(?X, ?L, ?Y). \
     lab(?L) :- reach(?X), edge(?X, ?L, ?Y), not root(?X)."
  in
  let query ?max_steps () =
    let opts =
      match max_steps with
      | Some n -> Printf.sprintf "lang=datalog,max-steps=%d" n
      | None -> "lang=datalog"
    in
    Engine.handle_line e (Printf.sprintf "QUERY %s %s" opts prog)
  in
  let expect_builds what n =
    Alcotest.(check int) what n (Metrics.value builds - b0)
  in
  ignore (Engine.handle_line e ("QUERY - " ^ q_titles));
  ignore (Engine.handle_line e "QUERY lang=lorel select X from DB.entry.movie X");
  ignore (Engine.handle_line e {|UPDATE - insert DB.entry := {movie: {title: "U"}}|});
  ignore (Engine.handle_line e ("QUERY - " ^ q_titles));
  expect_builds "UnQL/Lorel/UPDATE traffic builds no base" 0;
  Trace.enable ();
  let answers, base_spans =
    Fun.protect
      ~finally:(fun () ->
        Trace.disable ();
        Trace.clear ())
      (fun () ->
        Trace.clear ();
        let answers = List.init 5 (fun _ -> query ()) in
        ( answers,
          List.fold_left (fun n sp -> n + count_spans "datalog.base" sp) 0 (Trace.spans ()) ))
  in
  expect_builds "five datalog QUERYs on one version: one build" 1;
  Alcotest.(check int) "one datalog.base span" 1 base_spans;
  let before = datalog_cli_frame ~db:(Engine.store_db store) prog in
  List.iter (fun a -> Alcotest.(check string) "answer = CLI" before a) answers;
  ignore (Engine.handle_line e {|UPDATE - insert DB.entry := {movie: {title: "V"}}|});
  let after = query () in
  expect_builds "the new version builds its own" 2;
  Alcotest.(check string) "post-update answer = CLI on the new graph"
    (datalog_cli_frame ~db:(Engine.store_db store) prog)
    after;
  check "and is not the old version's" true (not (String.equal before after));
  let partials =
    List.filter
      (fun n ->
        let got = query ~max_steps:n () in
        Alcotest.(check string)
          (Printf.sprintf "max-steps=%d frame = CLI" n)
          (datalog_cli_frame ~max_steps:n ~db:(Engine.store_db store) prog)
          got;
        (parse_one got).Proto.status = Proto.Partial)
      [ 1; 3; 10; 30; 100; 100_000 ]
  in
  check "some budgets end partial" true (partials <> []);
  expect_builds "budgeted QUERYs reuse the version's base" 2;
  let cli () = datalog_cli_frame ~db:(Engine.store_db store) prog in
  ignore (Engine.handle_line e {|UPDATE - insert DB.entry := {movie: {title: "W"}}|});
  expect_builds "an UPDATE with no datalog subscription builds none" 2;
  let sub = "reach(?X) :- root(?X). reach(?Y) :- reach(?X), edge(?X, ?L, ?Y)." in
  let resp, _ = Engine.handle ~push:ignore ~conn_id:3 e ("SUBSCRIBE lang=datalog " ^ sub) in
  check "datalog SUBSCRIBE answered" true (resp.Proto.status = Proto.Complete);
  expect_builds "SUBSCRIBE builds the version's EDB" 3;
  Alcotest.(check string) "QUERY after SUBSCRIBE = CLI" (cli ()) (query ());
  expect_builds "the QUERY reuses the EDB SUBSCRIBE built" 3;
  (* non-monotone: the subscription is re-prepared from scratch *)
  ignore (Engine.handle_line e "UPDATE - delete DB.entry");
  expect_builds "the re-prepare builds the published version's EDB" 4;
  Alcotest.(check string) "QUERY after the re-prepare = CLI" (cli ()) (query ());
  expect_builds "the QUERY reuses the EDB the re-prepare built" 4

let queued_backlog_sheds () =
  let engine = Engine.create (Engine.store ~db:(fig1 ()) ()) in
  (* default shed_at = 64: a transport reporting a deep backlog sheds *)
  let resp, close = Engine.handle ~queued:1000 engine ("QUERY - " ^ q_titles) in
  check "shed" true (resp.Proto.status = Proto.Shed);
  check "stays open" true (not close);
  let resp', _ = Engine.handle ~queued:0 engine ("QUERY - " ^ q_titles) in
  check "drained backlog is served again" true (resp'.Proto.status = Proto.Complete)

let quit_and_stats () =
  let engine = Engine.create (Engine.store ~db:(fig1 ()) ()) in
  let stats_resp, close = Engine.handle engine "STATS" in
  check "stats complete" true (stats_resp.Proto.status = Proto.Complete && not close);
  check "stats body is the serve metrics dump" true
    (contains ~needle:"serve.requests" stats_resp.Proto.body);
  let bye, close' = Engine.handle engine "QUIT" in
  check "bye closes" true (String.equal bye.Proto.body "bye\n" && close')

(* ------------------------------------------------------------------ *)
(* Live subscriptions                                                  *)
(* ------------------------------------------------------------------ *)

(* One connection subscribes twice (one query the update can touch, one
   whose label footprint is disjoint); an UPDATE through another engine
   pushes exactly one delta frame whose body equals re-running the
   query; teardown by UNSUBSCRIBE and by drop_conn. *)
let subscription_lifecycle () =
  let db = fig1 () in
  let store = Engine.store ~db () in
  let a = Engine.create store in
  let b = Engine.create store in
  let pushes = ref [] in
  let push s = pushes := s :: !pushes in
  (* no push channel -> typed refusal *)
  let refused, _ = Engine.handle a ("SUBSCRIBE - " ^ q_titles) in
  check "SUBSCRIBE without push is refused" true
    (refused.Proto.status = Proto.Error && String.equal refused.Proto.detail "SSD557");
  let sub1, _ = Engine.handle ~push ~conn_id:7 a ("SUBSCRIBE - " ^ q_titles) in
  check "subscribed complete" true (sub1.Proto.status = Proto.Complete);
  let id1 = sub1.Proto.detail in
  check "initial body is the current result" true
    (String.equal sub1.Proto.body
       (parse_one (Engine.handle_line a ("QUERY - " ^ q_titles))).Proto.body);
  let q_disjoint = {| select {hit: {}} where {zzz: _} <- DB |} in
  let sub2, _ = Engine.handle ~push ~conn_id:7 a ("SUBSCRIBE - " ^ q_disjoint) in
  check "second subscription" true (sub2.Proto.status = Proto.Complete);
  check "two live subscriptions" true (Engine.n_subs store = 2);
  (* the update touches entry/movie/title: sub1 (⊤ footprint) re-runs
     and pushes, sub2 ({zzz}) is skipped without evaluating *)
  let upd =
    parse_one
      (Engine.handle_line b {|UPDATE - insert DB.entry := {movie: {title: "Pushed"}}|})
  in
  check "update complete" true (upd.Proto.status = Proto.Complete);
  check "exactly one delta frame pushed" true (List.length !pushes = 1);
  let frame = parse_one (List.hd !pushes) in
  check "delta status" true (frame.Proto.status = Proto.Delta);
  Alcotest.(check string) "delta detail is id.seq" (id1 ^ ".1") frame.Proto.detail;
  check "delta body equals re-running the query" true
    (String.equal frame.Proto.body
       (parse_one (Engine.handle_line a ("QUERY - " ^ q_titles))).Proto.body);
  check "and mentions the inserted title" true
    (contains ~needle:"Pushed" frame.Proto.body);
  (* teardown *)
  let un = parse_one (Engine.handle_line a ("UNSUBSCRIBE - " ^ id1)) in
  check "unsubscribed" true (un.Proto.status = Proto.Complete);
  let un2 = parse_one (Engine.handle_line a ("UNSUBSCRIBE - " ^ id1)) in
  check "double unsubscribe is SSD556" true
    (un2.Proto.status = Proto.Error && String.equal un2.Proto.detail "SSD556");
  pushes := [];
  ignore (Engine.handle_line b {|UPDATE - insert DB.entry := {movie: {title: "Again"}}|});
  check "no frame for a dead subscription" true (!pushes = []);
  Engine.drop_conn a 7;
  check "drop_conn clears the connection's subscriptions" true (Engine.n_subs store = 0)

(* Datalog subscriptions hold a retained model advanced semi-naively.
   Oracle: a freshly created subscription's initial body is by
   construction the query's canonical current result — every pushed
   frame must byte-equal the initial body of a new subscription made
   after the update. *)
let datalog_subscription () =
  let db = fig1 () in
  let store = Engine.store ~db () in
  let a = Engine.create store in
  let pushes = ref [] in
  let push s = pushes := s :: !pushes in
  let prog =
    "reach(?X) :- root(?X). reach(?Y) :- reach(?X), edge(?X, ?L, ?Y)."
  in
  let subscribe () =
    let r, _ = Engine.handle ~push ~conn_id:1 a ("SUBSCRIBE lang=datalog " ^ prog) in
    check "datalog subscribe ok" true (r.Proto.status = Proto.Complete);
    r
  in
  let (_ : Proto.response) = subscribe () in
  (* monotone insert: the retained model advances from the new edges *)
  ignore
    (Engine.handle_line a {|UPDATE - insert DB.entry := {movie: {title: "Zed"}}|});
  check "monotone insert pushed" true (List.length !pushes = 1);
  let frame1 = parse_one (List.hd !pushes) in
  let fresh1 = subscribe () in
  check "semi-naive result equals scratch model" true
    (String.equal frame1.Proto.body fresh1.Proto.body);
  (* non-monotone delete: the model is re-prepared, and still pushes the
     correct new result *)
  pushes := [];
  ignore (Engine.handle_line a {|UPDATE - delete DB.entry|});
  check "both live datalog subs pushed" true (List.length !pushes = 2);
  let frame2 = parse_one (List.hd !pushes) in
  let fresh2 = subscribe () in
  check "rebuilt result equals scratch model" true
    (String.equal frame2.Proto.body fresh2.Proto.body);
  (* a subscription on a program with negation is rejected with the
     incremental-maintenance code *)
  let bad, _ =
    Engine.handle ~push ~conn_id:1 a
      "SUBSCRIBE lang=datalog q(?X) :- edge(?X, ?L, ?Y). p(?X) :- root(?X), not q(?X)."
  in
  check "negation rejected with SSD213" true
    (bad.Proto.status = Proto.Error && String.equal bad.Proto.detail "SSD213")

(* Two float literals that agree to 12 significant digits are two
   queries: the result cache, keyed on the printed query, must not answer
   one with the other's entry. *)
let float_literals_keep_cache_keys_apart () =
  let engine = Engine.create (Engine.store ~db:(Ssd.Syntax.parse_graph "{r: 0.1234567890123}") ()) in
  let body raw = (parse_one (Engine.handle_line engine raw)).Proto.body in
  let q lit = {|select {hit: 1} where {r.\X} <- DB, X = |} ^ lit in
  Alcotest.(check string) "other literal, cache off" "{}\n"
    (body ("QUERY cache=off " ^ q "0.12345678901234"));
  Alcotest.(check string) "matching literal fills the cache" "{hit: {1}}\n"
    (body ("QUERY - " ^ q "0.1234567890123"));
  Alcotest.(check string) "other literal, cache on" "{}\n"
    (body ("QUERY - " ^ q "0.12345678901234"))

let tests =
  props
  @ [
      Alcotest.test_case "shared store never serves stale after update" `Quick
        shared_store_never_stale;
      Alcotest.test_case "subscription lifecycle: push, skip, teardown" `Quick
        subscription_lifecycle;
      Alcotest.test_case "datalog subscription: semi-naive = scratch" `Quick
        datalog_subscription;
      Alcotest.test_case "oversized frame: SSD551 then close" `Quick
        oversized_frame_closes;
      Alcotest.test_case "malformed/unsupported get typed SSD55x codes" `Quick
        malformed_and_unsupported;
      Alcotest.test_case "error-code table, push-capable engine" `Quick error_code_table;
      Alcotest.test_case "errors counts every error frame once" `Quick
        errors_count_every_error_frame;
      Alcotest.test_case "one lang.compile per QUERY and SUBSCRIBE" `Quick
        one_compile_per_request;
      Alcotest.test_case "datalog: one frozen EDB per snapshot version" `Quick
        datalog_base_per_version;
      Alcotest.test_case "transport backlog drives shedding" `Quick queued_backlog_sheds;
      Alcotest.test_case "STATS and QUIT" `Quick quit_and_stats;
      Alcotest.test_case "float literals keep cache keys apart" `Quick
        float_literals_keep_cache_keys_apart;
    ]
