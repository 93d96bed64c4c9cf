(* The request engine: one protocol frame in, one response out.  See
   engine.mli for the shared-store and admission-control story. *)

module Graph = Ssd.Graph
module Label = Ssd.Label
module Budget = Ssd.Budget
module Metrics = Ssd_obs.Metrics
module Trace = Ssd_obs.Trace
module Events = Ssd_obs.Events
module Lang = Ssd_lint.Lang

let m_requests = Metrics.counter "serve.requests"
let m_accepted = Metrics.counter "serve.accepted"
let m_shed = Metrics.counter "serve.shed"
let m_partial = Metrics.counter "serve.partial"
let m_errors = Metrics.counter "serve.errors"
let m_updates = Metrics.counter "serve.updates"
let m_cache_hits = Metrics.counter "serve.cache_hits"
let m_slow = Metrics.counter "serve.slow_queries"
let m_base_builds = Metrics.counter "datalog.base.builds"
let m_latency = Metrics.histogram "serve.latency_ns"

(* Live-subscription telemetry (the incr.* family, alongside the
   maintenance counters lib/incr and Unql.Cache register). *)
let g_subs = Metrics.gauge "incr.sub.active"
let m_sub_pushes = Metrics.counter "incr.sub.pushes"
let m_sub_skips = Metrics.counter "incr.sub.skips"
let m_sub_evals = Metrics.counter "incr.sub.evals"
let m_sub_unchanged = Metrics.counter "incr.sub.unchanged"

(* Per-tenant accounting: labeled metric families, one series per
   tenant label.  Registration is idempotent, so looking the family up
   on every request is one hash probe under the registry's mutex — no
   tenant table of our own to keep consistent. *)
type tenant_counters = {
  tc_requests : Metrics.counter;
  tc_bytes_in : Metrics.counter;
  tc_bytes_out : Metrics.counter;
  tc_steps : Metrics.counter;
  tc_partials : Metrics.counter;
  tc_shed : Metrics.counter;
}

let tenant_counters tenant =
  let lbl = Ssd_obs.Export.label_set [ ("tenant", tenant) ] in
  let c what = Metrics.counter (Printf.sprintf "serve.tenant.%s%s" what lbl) in
  {
    tc_requests = c "requests";
    tc_bytes_in = c "bytes_in";
    tc_bytes_out = c "bytes_out";
    tc_steps = c "steps";
    tc_partials = c "partials";
    tc_shed = c "shed";
  }

let tenant_of (opts : Proto.options) =
  match opts.Proto.tenant with Some t -> t | None -> "default"

type config = {
  max_frame : int;
  shed_at : int;
  pressure_at : int;
  pressure_max_steps : int;
  slow_query_ms : float;
}

let default_config =
  {
    max_frame = 65536;
    shed_at = 64;
    pressure_at = 8;
    pressure_max_steps = 20_000;
    slow_query_ms = 250.;
  }

(* A live subscription: a registered query re-checked on every
   committed UPDATE.  [sub_last] is the text rendering of its current
   result — pushes happen exactly when that rendering changes, so the
   stream of frames is the stream of distinct results. *)
type sub = {
  sub_id : int;
  sub_conn : int option; (* owning transport connection, for teardown *)
  sub_opts : Proto.options;
  sub_fp : Unql.Footprint.t;
  sub_kind : sub_kind;
  sub_push : string -> unit; (* a rendered frame, written by the transport *)
  mutable sub_seq : int;
  mutable sub_last : string;
}

and sub_kind =
  | Sub_unql of Unql.Ast.expr
  | Sub_datalog of {
      dprog : Relstore.Datalog.program;
      (* retained model, advanced semi-naively on monotone ε-free
         deltas and re-prepared otherwise *)
      mutable dstate : Relstore.Datalog.Incremental.state;
    }

(* A value computed from one snapshot's graph by the first reader that
   needs it and shared by every later one.  The mutex is held only while
   computing; a [Lazy.t] would not do, since forcing one from two
   domains at once raises. *)
type 'a memo = {
  memo_m : Mutex.t;
  memo_v : 'a option Atomic.t;
}

let memo () = { memo_m = Mutex.create (); memo_v = Atomic.make None }

let force memo build =
  match Atomic.get memo.memo_v with
  | Some v -> v
  | None ->
    Mutex.protect memo.memo_m (fun () ->
        match Atomic.get memo.memo_v with
        | Some v -> v
        | None ->
          let v = build () in
          Atomic.set memo.memo_v (Some v);
          v)

(* What a snapshot's readers derive from its graph, each built on first
   use: the frozen datalog EDB (first datalog QUERY, SUBSCRIBE or
   subscription re-prepare) and the annotated DataGuide behind
   slow-query estimates (first slow query).  A memo's mutex is taken
   alone or inside the writer mutex, never the other way round. *)
type derived = {
  edb : Relstore.Datalog.edb memo;
  ann : Ssd_schema.Annotated.t memo;
}

(* The database-of-record as readers see it: an immutable graph, the
   number of UPDATEs committed before it, and its derived structures.
   Published whole through one [Atomic.t], so a reader never sees a
   graph paired with another graph's version or EDB. *)
type snapshot = {
  db : Graph.t;
  version : int;
  derived : derived;
}

let snapshot db version = { db; version; derived = { edb = memo (); ann = memo () } }

type store = {
  (* Writer mutex: serializes UPDATE, SUBSCRIBE, UNSUBSCRIBE and
     [drop_conn], and guards [subs] and [fp_memo].  Queries never take
     it. *)
  m : Mutex.t;
  snap : snapshot Atomic.t;
  (* Held only for single [Unql.Cache] calls, never across evaluation
     or commit.  Entries are keyed by graph fingerprint, so a reader on
     an older snapshot can never be served a newer graph's value. *)
  cache_m : Mutex.t;
  cache : Unql.Cache.t;
  inflight : int Atomic.t;
  req_seq : int Atomic.t;
  (* Durability hook: called under [m] with the new graph before the
     snapshot is published, so a failed persist leaves readers on the
     old version. *)
  mutable persist : (Graph.t -> unit) option;
  (* Live subscriptions, shared across engines over this store (an
     UPDATE through any engine notifies them all); guarded by [m]. *)
  subs : (int, sub) Hashtbl.t;
  next_sub : int Atomic.t;
  (* Query-footprint memo for cache revalidation: one analysis per
     distinct normalized query text, not per update; guarded by [m]. *)
  fp_memo : (string, Unql.Footprint.t) Hashtbl.t;
}

let store ?(cache_capacity = 128) ~db () =
  {
    m = Mutex.create ();
    snap = Atomic.make (snapshot db 0);
    cache_m = Mutex.create ();
    cache = Unql.Cache.create ~capacity:cache_capacity ();
    inflight = Atomic.make 0;
    req_seq = Atomic.make 0;
    persist = None;
    subs = Hashtbl.create 16;
    next_sub = Atomic.make 0;
    fp_memo = Hashtbl.create 64;
  }

let set_persist store f = store.persist <- Some f

let locked store f = Mutex.protect store.m f
let with_cache store f = Mutex.protect store.cache_m (fun () -> f store.cache)

let store_db store = (Atomic.get store.snap).db
let cache_stats store = with_cache store Unql.Cache.stats

type stats = {
  requests : int;
  accepted : int;
  shed : int;
  partial : int;
  errors : int;
  updates : int;
}

type t = {
  cfg : config;
  st : store;
  (* engine-local counters *)
  n_requests : int Atomic.t;
  n_accepted : int Atomic.t;
  n_shed : int Atomic.t;
  n_partial : int Atomic.t;
  n_errors : int Atomic.t;
  n_updates : int Atomic.t;
}

let create ?(config = default_config) st =
  {
    cfg = config;
    st;
    n_requests = Atomic.make 0;
    n_accepted = Atomic.make 0;
    n_shed = Atomic.make 0;
    n_partial = Atomic.make 0;
    n_errors = Atomic.make 0;
    n_updates = Atomic.make 0;
  }

let config t = t.cfg

let stats t =
  {
    requests = Atomic.get t.n_requests;
    accepted = Atomic.get t.n_accepted;
    shed = Atomic.get t.n_shed;
    partial = Atomic.get t.n_partial;
    errors = Atomic.get t.n_errors;
    updates = Atomic.get t.n_updates;
  }

(* ------------------------------------------------------------------ *)
(* Rendering (result text is Lang.render, shared with the ssdql CLI)   *)
(* ------------------------------------------------------------------ *)

(* format=json wraps the text rendering in a JSON envelope (the text
   renderers are total on cyclic results, where a tree conversion would
   not be). *)
let render_body (opts : Proto.options) ~status ~detail text =
  if opts.format = "json" then
    Ssd.Json.to_string
      (Ssd.Json.Obj
         [
           ("status", Ssd.Json.String (Proto.status_to_string status));
           ("detail", Ssd.Json.String detail);
           ("result", Ssd.Json.String text);
         ])
    ^ "\n"
  else text

let result_response (opts : Proto.options) outcome_text =
  let status, detail, text =
    match outcome_text with
    | Budget.Complete text -> (Proto.Complete, "-", text)
    | Budget.Partial (text, why) ->
      (Proto.Partial, Budget.exhaustion_to_string why, text)
  in
  Proto.response ~detail status (render_body opts ~status ~detail text)

let error_response (opts : Proto.options) (d : Ssd_diag.t) =
  let text = Ssd_diag.to_string d ^ "\n" in
  Proto.response ~detail:d.Ssd_diag.code Proto.Error
    (render_body opts ~status:Proto.Error ~detail:d.Ssd_diag.code text)

let shed_response (opts : Proto.options) load =
  let text =
    Printf.sprintf "warning[SSD554] server overloaded (load %d), request shed; retry later\n"
      load
  in
  Proto.response ~detail:"SSD554" Proto.Shed
    (render_body opts ~status:Proto.Shed ~detail:"SSD554" text)

(* Any exception that escapes parsing or evaluation becomes an SSD553
   error response; diagnostics keep their own code. *)
let diag_of_exn = function
  | Ssd_diag.Fail d -> d
  | e ->
    Ssd_diag.make Ssd_diag.Error ~code:"SSD553"
      (Printf.sprintf "request failed: %s" (Printexc.to_string e))

(* ------------------------------------------------------------------ *)
(* Query evaluation                                                    *)
(* ------------------------------------------------------------------ *)

(* Effective budget for this request: the client's own limits, with the
   step budget clamped to [pressure_max_steps] when the server is under
   pressure.  [None] means unbudgeted. *)
let effective_budget cfg (opts : Proto.options) ~pressured =
  let max_steps =
    match (opts.max_steps, pressured) with
    | Some n, true -> Some (min n cfg.pressure_max_steps)
    | Some n, false -> Some n
    | None, true -> Some cfg.pressure_max_steps
    | None, false -> None
  in
  match (opts.deadline_ms, max_steps) with
  | None, None -> None
  | deadline_ms, _ -> Some (Budget.create ?deadline_ms ?max_steps ())

(* Compile the request body once and lint it.  A query the static
   analyzer rejects gets an error frame whose detail token is the
   concrete diagnostic code (and whose body carries the span) — SSD001/
   002/003 for syntax, the SSDxxx hygiene/safety codes otherwise —
   instead of the generic SSD553 the escaping runtime exception would
   produce.  The check runs without the database (no DataGuide build on
   the request path), so it is cheap and purely syntactic/hygienic; zero
   Error-severity findings means the evaluators do not raise on this
   query (see Ssd_lint). *)
let compile lang body =
  let c = Lang.compile lang body in
  Option.iter
    (fun (r : Lang.report) ->
      match List.find_opt (fun d -> d.Ssd_diag.severity = Ssd_diag.Error) r.diags with
      | Some d -> raise (Ssd_diag.Fail d)
      | None -> ())
    (Lang.lint c);
  c

(* UnQL through the shared result cache: the hit, or a fresh evaluation
   that fills it.  The cache is locked per call, never across [eval]. *)
let cached_eval st ~db q =
  match with_cache st (fun c -> Unql.Cache.find c ~db q) with
  | Some g -> (g, true)
  | None ->
    let g = Unql.Eval.eval ~db q in
    with_cache st (fun c -> Unql.Cache.add c ~db q g);
    (g, false)

(* The snapshot's frozen datalog EDB, built by its first datalog
   reader. *)
let datalog_edb snap =
  force snap.derived.edb (fun () ->
      Metrics.incr m_base_builds;
      Trace.with_span "datalog.base" (fun () -> Relstore.Triple.edb snap.db))

(* UnQL without a budget goes through the shared result cache; every
   other query evaluates directly, datalog over the snapshot's frozen
   EDB. *)
let eval_query t ~snap ~budget (opts : Proto.options) c =
  let db = snap.db in
  match (c, budget) with
  | Lang.Unql (q, _), None when opts.cache ->
    let g, hit = cached_eval t.st ~db q in
    if hit then begin
      Metrics.incr m_cache_hits;
      Trace.bump "cache_hit" 1
    end;
    Budget.Complete (Lang.Graph g)
  | _ -> Lang.eval ?budget ~edb:(fun () -> datalog_edb snap) ~db c

(* ------------------------------------------------------------------ *)
(* Slow-query telemetry                                                *)
(* ------------------------------------------------------------------ *)

(* Static estimate + planned form for the slow-query event, from the
   request's compiled query, over the snapshot's annotated DataGuide.
   Runs only for queries already past the slowness threshold; any
   failure degrades to "no estimate", never to a failed response. *)
let estimate snap c =
  try
    let ann = force snap.derived.ann (fun () -> Ssd_schema.Annotated.build snap.db) in
    match Lang.estimate ann c with
    | Some e -> (e.Lang.card.Ssd_lint.Card.est_total, e.Lang.plan)
    | None -> (None, None)
  with _ -> (None, None)

let truncate_query q =
  if String.length q <= 200 then q else String.sub q 0 200 ^ "..."

let slow_query_event ~snap ~dt_ns ~steps ~rows (opts : Proto.options) body c
    (resp : Proto.response) =
  Metrics.incr m_slow;
  let est, plan = estimate snap c in
  let module J = Ssd.Json in
  let opt_field name = function Some v -> [ (name, v) ] | None -> [] in
  Events.emit Events.default "slow_query"
    (List.concat
       [
         [
           ("tenant", J.String (tenant_of opts));
           ("lang", J.String opts.Proto.lang);
           ("query", J.String (truncate_query body));
           ("latency_ms", J.Float (dt_ns /. 1e6));
           ("status", J.String (Proto.status_to_string resp.Proto.status));
           ("detail", J.String resp.Proto.detail);
           ("version", J.Int snap.version);
         ]
         ;
         opt_field "steps" (Option.map (fun s -> J.Int s) steps);
         opt_field "est_rows" (Option.map (fun e -> J.Float e) est);
         [ ("actual_rows", J.Int rows) ];
         opt_field "plan" (Option.map (fun p -> J.String p) plan);
         opt_field "id"
           (Option.map (fun i -> J.String i) opts.Proto.req_id);
       ])

let do_query t ~queued (opts : Proto.options) body =
  let tc = tenant_counters (tenant_of opts) in
  let load = queued + Atomic.get t.st.inflight in
  if load > t.cfg.shed_at then begin
    Atomic.incr t.n_shed;
    Metrics.incr m_shed;
    Metrics.incr tc.tc_shed;
    Trace.annotate "shed" (Trace.Bool true);
    Events.emit Events.default "admission.shed"
      [
        ("tenant", Ssd.Json.String (tenant_of opts));
        ("load", Ssd.Json.Int load);
        ("shed_at", Ssd.Json.Int t.cfg.shed_at);
      ];
    shed_response opts load
  end
  else begin
    let pressured = load > t.cfg.pressure_at in
    if pressured then
      Events.emit Events.default "admission.clamp"
        [
          ("tenant", Ssd.Json.String (tenant_of opts));
          ("load", Ssd.Json.Int load);
          ("max_steps", Ssd.Json.Int t.cfg.pressure_max_steps);
        ];
    Atomic.incr t.st.inflight;
    Fun.protect
      ~finally:(fun () -> Atomic.decr t.st.inflight)
      (fun () ->
        let snap = Atomic.get t.st.snap in
        Trace.annotate "version" (Trace.Int snap.version);
        let budget = effective_budget t.cfg opts ~pressured in
        let t0 = Ssd_obs.Clock.now_ns () in
        match
          let c = compile (Lang.of_string opts.lang) body in
          let result = eval_query t ~snap ~budget opts c in
          (c, result, Budget.map Lang.render result)
        with
        | c, result, outcome ->
          let dt_ns = Ssd_obs.Clock.now_ns () -. t0 in
          let steps = Option.map Budget.steps_used budget in
          (match steps with Some s -> Metrics.add tc.tc_steps s | None -> ());
          Atomic.incr t.n_accepted;
          Metrics.incr m_accepted;
          (match outcome with
          | Budget.Partial _ ->
            Atomic.incr t.n_partial;
            Metrics.incr m_partial;
            Metrics.incr tc.tc_partials
          | Budget.Complete _ -> ());
          let resp = result_response opts outcome in
          if dt_ns >= t.cfg.slow_query_ms *. 1e6 then
            slow_query_event ~snap ~dt_ns ~steps
              ~rows:(Lang.rows (Budget.value result))
              opts body c resp;
          resp
        | exception e -> error_response opts (diag_of_exn e))
  end

(* ------------------------------------------------------------------ *)
(* Live subscriptions                                                  *)
(* ------------------------------------------------------------------ *)

(* Datalog subscription results are rendered with predicates and tuples
   sorted: the retained incremental model derives tuples in a different
   order than a scratch evaluation, and canonical frames let clients
   (and the differential tests) byte-compare them. *)
let render_datalog_sorted results =
  Lang.render
    (Lang.Tuples
       (results
       |> List.map (fun (p, ts) -> (p, List.sort_uniq compare ts))
       |> List.sort compare))

let footprint_of st qtext =
  match Hashtbl.find_opt st.fp_memo qtext with
  | Some fp -> fp
  | None ->
    let fp = Unql.Footprint.of_string qtext in
    (* the memo is keyed by query text and queries repeat; cap it so a
       hostile client cannot grow it without bound *)
    if Hashtbl.length st.fp_memo > 4096 then Hashtbl.reset st.fp_memo;
    Hashtbl.add st.fp_memo qtext fp;
    fp

let n_subs store = locked store (fun () -> Hashtbl.length store.subs)

(* Tear down every subscription owned by a transport connection (called
   by the server when the connection dies). *)
let drop_conn t conn_id =
  locked t.st (fun () ->
      let doomed =
        Hashtbl.fold
          (fun id s acc -> if s.sub_conn = Some conn_id then id :: acc else acc)
          t.st.subs []
      in
      List.iter (Hashtbl.remove t.st.subs) doomed;
      Metrics.set g_subs (float_of_int (Hashtbl.length t.st.subs)))

(* Current result text of a subscription against [db].  UnQL goes
   through the shared result cache (caller holds the writer mutex);
   datalog reads its retained model. *)
let sub_eval_text st db kind =
  match kind with
  | Sub_unql q -> Lang.render (Lang.Graph (fst (cached_eval st ~db q)))
  | Sub_datalog d ->
    render_datalog_sorted (Relstore.Datalog.Incremental.result d.dstate)

(* Re-check one subscription after a committed update; returns the new
   rendering when the result changed.  Monotone ε-free deltas drive the
   datalog model semi-naively: only the inserted edges' consequences are
   derived, and "no new fact" skips the render entirely.  A re-prepare
   reads the EDB of [snap'], the snapshot this update published. *)
let sub_advance st ~snap' ~(d : Ssd_incr.Delta.t) s =
  let db' = snap'.db in
  match s.sub_kind with
  | Sub_unql _ ->
    let text = sub_eval_text st db' s.sub_kind in
    if text = s.sub_last then None else Some text
  | Sub_datalog ds ->
    if Ssd_incr.Delta.monotone d && not d.Ssd_incr.Delta.new_has_eps then begin
      let triples =
        List.filter_map
          (fun (e : Ssd_incr.Delta.edge) ->
            match e.Ssd_incr.Delta.lab with
            | Graph.Eps -> None
            | Graph.Lab l ->
              Some [ Label.Int e.Ssd_incr.Delta.src; l; Label.Int e.Ssd_incr.Delta.dst ])
          d.Ssd_incr.Delta.added
      in
      match
        Relstore.Datalog.Incremental.advance ds.dstate
          ~edb_delta:[ ("edge", triples) ]
      with
      | [] -> None
      | _fresh ->
        let text = render_datalog_sorted (Relstore.Datalog.Incremental.result ds.dstate) in
        if text = s.sub_last then None else Some text
    end
    else begin
      (* non-monotone (or ε-touching) update: node ids may have been
         remapped, so the retained model is re-prepared from scratch *)
      ds.dstate <- Relstore.Datalog.Incremental.prepare ~edb:(datalog_edb snap') ds.dprog;
      let text = sub_eval_text st db' s.sub_kind in
      if text = s.sub_last then None else Some text
    end

(* Notify every live subscription (caller holds the writer mutex).
   Returns (skipped, pushed).  A subscription whose label footprint is
   disjoint from the delta is skipped without evaluating anything; one
   whose re-evaluation fails is left untouched (the next update retries
   — a push must never take the update down with it). *)
let notify_subs st ~snap' ~(d : Ssd_incr.Delta.t) ~delta_labels =
  let skipped = ref 0 and pushed = ref 0 in
  Hashtbl.iter
    (fun _ s ->
      if Unql.Footprint.disjoint s.sub_fp delta_labels then begin
        incr skipped;
        Metrics.incr m_sub_skips
      end
      else begin
        Metrics.incr m_sub_evals;
        match sub_advance st ~snap' ~d s with
        | None -> Metrics.incr m_sub_unchanged
        | Some text ->
          s.sub_seq <- s.sub_seq + 1;
          s.sub_last <- text;
          incr pushed;
          Metrics.incr m_sub_pushes;
          let detail = Printf.sprintf "%d.%d" s.sub_id s.sub_seq in
          let resp =
            Proto.response ~detail Proto.Delta
              (render_body s.sub_opts ~status:Proto.Delta ~detail text)
          in
          Events.emit Events.default "incr.push"
            [
              ("sub", Ssd.Json.Int s.sub_id);
              ("seq", Ssd.Json.Int s.sub_seq);
              ("lang", Ssd.Json.String s.sub_opts.Proto.lang);
              ("bytes", Ssd.Json.Int (String.length resp.Proto.body));
            ];
          (try s.sub_push (Proto.render_response resp) with _ -> ())
        | exception _ -> ()
      end)
    st.subs;
  (!skipped, !pushed)

let do_subscribe t ~push ~conn_id (opts : Proto.options) body =
  match push with
  | None ->
    error_response opts
      (Ssd_diag.make Ssd_diag.Error ~code:"SSD557"
         "SUBSCRIBE needs a push-capable transport (a live connection)")
  | Some push -> (
    (* Lint findings win over the language check: a malformed Lorel
       subscription reports its SSD002, a well-formed one SSD555. *)
    let unsupported () =
      Ssd_diag.error ~code:"SSD555" "unsupported subscription language %S (unql|datalog)"
        opts.Proto.lang
    in
    match
      let c =
        compile
          (try Lang.of_string opts.Proto.lang with Ssd_diag.Fail _ -> unsupported ())
          body
      in
      locked t.st (fun () ->
          let snap = Atomic.get t.st.snap in
          let kind, text =
            match c with
            | Lang.Unql (q, _) ->
              let kind = Sub_unql q in
              (kind, sub_eval_text t.st snap.db kind)
            | Lang.Datalog dprog ->
              let dstate =
                Relstore.Datalog.Incremental.prepare ~edb:(datalog_edb snap) dprog
              in
              ( Sub_datalog { dprog; dstate },
                render_datalog_sorted (Relstore.Datalog.Incremental.result dstate) )
            | Lang.Lorel _ | Lang.Websql _ -> unsupported ()
          in
          let id = Atomic.fetch_and_add t.st.next_sub 1 + 1 in
          let s =
            {
              sub_id = id;
              sub_conn = conn_id;
              sub_opts = opts;
              sub_fp = Lang.footprint c;
              sub_kind = kind;
              sub_push = push;
              sub_seq = 0;
              sub_last = text;
            }
          in
          Hashtbl.replace t.st.subs id s;
          Metrics.set g_subs (float_of_int (Hashtbl.length t.st.subs));
          (id, text))
    with
    | id, text ->
      Events.emit Events.default "incr.subscribe"
        [
          ("sub", Ssd.Json.Int id);
          ("tenant", Ssd.Json.String (tenant_of opts));
          ("lang", Ssd.Json.String opts.Proto.lang);
          ("query", Ssd.Json.String (truncate_query body));
        ];
      let detail = string_of_int id in
      Proto.response ~detail Proto.Complete
        (render_body opts ~status:Proto.Complete ~detail text)
    | exception e -> error_response opts (diag_of_exn e))

let do_unsubscribe t (opts : Proto.options) body =
  match int_of_string_opt (String.trim body) with
  | None ->
    error_response opts
      (Ssd_diag.make Ssd_diag.Error ~code:"SSD556"
         (Printf.sprintf "UNSUBSCRIBE wants a subscription id, got %S"
            (String.trim body)))
  | Some id ->
    let found =
      locked t.st (fun () ->
          match Hashtbl.find_opt t.st.subs id with
          | Some _ ->
            Hashtbl.remove t.st.subs id;
            Metrics.set g_subs (float_of_int (Hashtbl.length t.st.subs));
            true
          | None -> false)
    in
    if found then
      Proto.response Proto.Complete
        (render_body opts ~status:Proto.Complete ~detail:"-"
           (Printf.sprintf "unsubscribed: id=%d\n" id))
    else
      error_response opts
        (Ssd_diag.make Ssd_diag.Error ~code:"SSD556"
           (Printf.sprintf "unknown subscription id %d" id))

(* UPDATE runs under the writer mutex: updates serialize against each
   other and against SUBSCRIBE, so delta frames carry a globally
   consistent sequence per subscription.  Queries take no part in that
   ordering.  They read the published snapshot, which moves exactly
   once per UPDATE: after persist and cache revalidation, before the
   subscription pushes and the ack.  Hence
   - a query overlapping an UPDATE answers from the last committed
     version, never from a half-applied one;
   - once the ack (or any delta frame it caused) is out, every query
     invoked afterwards sees this version or a later one — no stale
     answer after an ack;
   - a failed parse or persist publishes nothing. *)
let do_update t (opts : Proto.options) body =
  match
    locked t.st (fun () ->
        let old = Atomic.get t.st.snap in
        let old_db = old.db in
        let db' = Lorel.Update.run ~db:old_db body in
        (* Persist before publishing: a failed write leaves the snapshot
           (and the cache) exactly as they were, and the error
           propagates as the response.  The persist layer
           (Store.commit) returns only after its WAL fsync, so a
           successful UPDATE response implies the change survives a
           crash. *)
        (match t.st.persist with Some f -> f db' | None -> ());
        (* Delta-driven cache revalidation: entries whose query
           footprint is disjoint from the update's labels are re-keyed
           to the new graph instead of dropped. *)
        let d = Ssd_incr.Delta.diff old_db db' in
        let delta_labels = Ssd_incr.Delta.touched_labels d in
        let keep qtext =
          Unql.Footprint.disjoint (footprint_of t.st qtext) delta_labels
        in
        let kept, dropped =
          with_cache t.st (fun c -> Unql.Cache.revalidate c ~old_db ~new_db:db' ~keep)
        in
        let snap = snapshot db' (old.version + 1) in
        Atomic.set t.st.snap snap;
        Atomic.incr t.n_updates;
        let skipped, pushed = notify_subs t.st ~snap':snap ~d ~delta_labels in
        (snap, d, kept, dropped, skipped, pushed))
  with
  | { db = db'; version; _ }, d, kept, dropped, skipped, pushed ->
    Metrics.incr m_updates;
    Trace.annotate "version" (Trace.Int version);
    Events.emit Events.default "incr.update"
      [
        ("tenant", Ssd.Json.String (tenant_of opts));
        ("added", Ssd.Json.Int (Ssd_incr.Delta.n_added d));
        ("removed", Ssd.Json.Int (Ssd_incr.Delta.n_removed d));
        ("monotone", Ssd.Json.Bool (Ssd_incr.Delta.monotone d));
        ("cache_kept", Ssd.Json.Int kept);
        ("cache_dropped", Ssd.Json.Int dropped);
        ("subs_skipped", Ssd.Json.Int skipped);
        ("subs_pushed", Ssd.Json.Int pushed);
        ("nodes", Ssd.Json.Int (Graph.n_nodes db'));
        ("edges", Ssd.Json.Int (Graph.n_edges db'));
        ("version", Ssd.Json.Int version);
      ];
    let text =
      Printf.sprintf
        "updated: %d nodes, %d edges; cache %d kept %d invalidated; %d deltas pushed\n"
        (Graph.n_nodes db') (Graph.n_edges db') kept dropped pushed
    in
    Proto.response Proto.Complete (render_body opts ~status:Proto.Complete ~detail:"-" text)
  | exception e -> error_response opts (diag_of_exn e)

(* ------------------------------------------------------------------ *)
(* Frame dispatch                                                      *)
(* ------------------------------------------------------------------ *)

(* STATS body: the full registry snapshot (exactly what the admin plane
   serves on GET /metrics?format=json) with an extra "engine" section —
   one source of truth for protocol clients and HTTP scrapers. *)
let stats_body t =
  let module J = Ssd.Json in
  let s = stats t in
  let engine =
    J.Obj
      [
        ("requests", J.Int s.requests);
        ("accepted", J.Int s.accepted);
        ("shed", J.Int s.shed);
        ("partial", J.Int s.partial);
        ("errors", J.Int s.errors);
        ("updates", J.Int s.updates);
        ("version", J.Int (Atomic.get t.st.snap).version);
      ]
  in
  let snap = Metrics.snapshot_to_json (Metrics.snapshot Metrics.default) in
  let doc =
    match snap with
    | J.Obj fields -> J.Obj (fields @ [ ("engine", engine) ])
    | other -> other
  in
  J.to_string doc ^ "\n"

let dispatch t ~queued ~push ~conn_id raw =
  if String.length raw > t.cfg.max_frame then
    (* The stream cannot be resynchronized reliably past an oversized
       frame, so the transport closes after this response. *)
    ( error_response Proto.default_options
        (Ssd_diag.make Ssd_diag.Error ~code:"SSD551"
           (Printf.sprintf "frame of %d bytes exceeds the %d byte limit"
              (String.length raw) t.cfg.max_frame)),
      true,
      Proto.default_options )
  else
    match Proto.parse_request raw with
    | Result.Error d -> (error_response Proto.default_options d, false, Proto.default_options)
    | Result.Ok { Proto.verb; opts; body } -> (
      (match opts.Proto.req_id with
      | Some id -> Trace.annotate "id" (Trace.Str id)
      | None -> ());
      Trace.annotate "verb" (Trace.Str (Proto.verb_to_string verb));
      match verb with
      | Proto.Query -> (do_query t ~queued opts body, false, opts)
      | Proto.Update -> (do_update t opts body, false, opts)
      | Proto.Subscribe -> (do_subscribe t ~push ~conn_id opts body, false, opts)
      | Proto.Unsubscribe -> (do_unsubscribe t opts body, false, opts)
      | Proto.Ping -> (Proto.response Proto.Complete "pong\n", false, opts)
      | Proto.Stats -> (Proto.response Proto.Complete (stats_body t), false, opts)
      | Proto.Events ->
        ( Proto.response Proto.Complete
            (Events.tail_jsonl ?n:opts.Proto.n Events.default),
          false,
          opts )
      | Proto.Quit -> (Proto.response Proto.Complete "bye\n", true, opts))

let handle ?lane ?(queued = 0) ?push ?conn_id t raw =
  let seq = Atomic.fetch_and_add t.st.req_seq 1 + 1 in
  let t0 = Ssd_obs.Clock.now_ns () in
  let resp, close, opts =
    Trace.with_span ?lane "serve.request" ~attrs:[ ("seq", Trace.Int seq) ] (fun () ->
        let ((resp, _, _) as r) =
          try dispatch t ~queued ~push ~conn_id raw
          with e ->
            (* dispatch catches per-verb; this is the last-resort net so
               the accept loop can never be wedged by a request. *)
            (error_response Proto.default_options (diag_of_exn e), false,
             Proto.default_options)
        in
        Trace.annotate "status" (Trace.Str (Proto.status_to_string resp.Proto.status));
        r)
  in
  let dt = Ssd_obs.Clock.now_ns () -. t0 in
  Metrics.incr m_requests;
  Metrics.observe m_latency dt;
  let tc = tenant_counters (tenant_of opts) in
  Metrics.incr tc.tc_requests;
  Metrics.add tc.tc_bytes_in (String.length raw);
  Metrics.add tc.tc_bytes_out (String.length resp.Proto.body);
  Atomic.incr t.n_requests;
  if resp.Proto.status = Proto.Error then begin
    Atomic.incr t.n_errors;
    Metrics.incr m_errors
  end;
  (resp, close)

let handle_line ?lane ?queued t raw =
  let resp, _close = handle ?lane ?queued t raw in
  Proto.render_response resp
