(* The traced in-process run behind the per-layer metrics.

   The workload's op stream (regenerated from the seed, at a fixed
   length) is replayed twice against fresh copies of the run's store:

   - pass (a) calls [Engine.handle], once untraced (the per-op handle
     time) and once traced (the tracing overhead);
   - pass (b) calls each stage's public function in the engine's order,
     each inside a [Trace.with_span], and must produce byte-identical
     responses and delta frames.

   Store I/O is counted by a wrapper around [Vfs.real]; counts come from
   [Ssd_obs.Metrics] deltas.  A stage the workload never reaches (lorel
   on browse-hot, say) is timed once on a probe input instead, so every
   metric is a measurement; RATIONALE.md lists which are probes. *)

open Common
module W = Workload
module Proto = Ssd_serve.Proto
module Engine = Ssd_serve.Engine
module Store = Ssd_store.Store
module Vfs = Ssd_store.Vfs
module Trace = Ssd_obs.Trace
module Metrics = Ssd_obs.Metrics
module Delta = Ssd_incr.Delta
module Footprint = Unql.Footprint
module Datalog = Relstore.Datalog

(* Replay lengths past each workload's warm-up: enough ops for steady
   means, few enough that the traced passes and the Chrome trace stay
   small. *)
let n_ops = function W.Browse_hot -> 3000 | W.Scan_cold -> 60 | W.Update_mix -> 150

(* ------------------------------------------------------------------ *)
(* Counting VFS                                                        *)
(* ------------------------------------------------------------------ *)

type io = {
  mutable pwrites : int;
  mutable pwrite_ns : float;
  mutable bytes_written : int;
  mutable fsyncs : int;
  mutable fsync_ns : float;
}

let io_zero () = { pwrites = 0; pwrite_ns = 0.; bytes_written = 0; fsyncs = 0; fsync_ns = 0. }

let counting io (v : Vfs.t) =
  {
    v with
    Vfs.open_file =
      (fun name ->
        let f = v.Vfs.open_file name in
        {
          f with
          Vfs.pwrite =
            (fun buf ~pos ~off ~len ->
              let t0 = now_ns () in
              let n = f.Vfs.pwrite buf ~pos ~off ~len in
              io.pwrite_ns <- io.pwrite_ns +. (now_ns () -. t0);
              io.pwrites <- io.pwrites + 1;
              io.bytes_written <- io.bytes_written + n;
              n);
          fsync =
            (fun () ->
              let t0 = now_ns () in
              f.Vfs.fsync ();
              io.fsync_ns <- io.fsync_ns +. (now_ns () -. t0);
              io.fsyncs <- io.fsyncs + 1);
        });
  }

(* ------------------------------------------------------------------ *)
(* Stage accounting                                                    *)
(* ------------------------------------------------------------------ *)

(* Per stage: the duration of every call, in nanoseconds. *)
type acc = (string, float list) Hashtbl.t

let stage (acc : acc) name f =
  let t0 = now_ns () in
  let r = Trace.with_span name f in
  let dt = now_ns () -. t0 in
  Hashtbl.replace acc name (dt :: Option.value ~default:[] (Hashtbl.find_opt acc name));
  r

let calls (acc : acc) name = List.length (Option.value ~default:[] (Hashtbl.find_opt acc name))

(* The median rather than the mean: a stage with few calls per run
   otherwise reports its one garbage-collection pause. *)
let median_us (acc : acc) name =
  match Hashtbl.find_opt acc name with Some ds -> median ds /. 1e3 | None -> 0.

let total_ns (acc : acc) = Hashtbl.fold (fun _ ds s -> List.fold_left ( +. ) s ds) acc 0.

let counter name = Metrics.value (Metrics.counter name)

(* Run [f] and return its result with the growth of [names]. *)
let growth names f =
  let before = List.map counter names in
  let r = f () in
  (r, List.map2 (fun name b -> counter name - b) names before)

(* ------------------------------------------------------------------ *)
(* The op stream                                                       *)
(* ------------------------------------------------------------------ *)

(* Wire lines, in order: the same generators and seeds as the socket
   run, so the replay sees the same queries. *)
let op_stream kind (r : Drive.result) seed =
  let rng = W.Prng.create ~seed:(seed + 1) in
  let n = n_ops kind in
  match kind with
  | W.Browse_hot ->
    let pool = W.browse_pool_of r.Drive.db0 rng in
    let zipf = W.zipf_table (Array.length pool) in
    let lines = Array.map (W.request Proto.Query) pool in
    Array.to_list lines @ List.init n (fun _ -> lines.(W.zipf_draw rng zipf))
  | W.Scan_cold -> List.init (Drive.scan_warmup + n) (fun i -> W.request Proto.Query (W.scan_op rng i))
  | W.Update_mix ->
    let m = W.mix_of r.Drive.db0 rng in
    let pool = m.W.reader_pool in
    List.map (W.request Proto.Subscribe) m.W.subs
    @ List.concat
        (List.init n (fun k ->
             let update = W.request Proto.Update { W.lang = W.Unql; text = W.update_text (k + 1) } in
             [ update; W.request Proto.Query pool.(W.Prng.int rng (Array.length pool)) ]))

let fresh_store (r : Drive.result) dir io =
  copy_dir r.Drive.master dir;
  Store.open_ (counting io (Vfs.real dir))

(* ------------------------------------------------------------------ *)
(* Pass (a): Engine.handle                                             *)
(* ------------------------------------------------------------------ *)

type pass_a = {
  a_responses : string list;
  a_pushes : string list; (* sorted *)
  a_handle_ns : float list; (* per op, in order *)
}

let pass_a (r : Drive.result) dir ops =
  let st = fresh_store r dir (io_zero ()) in
  let es = Engine.store ~db:(Store.graph st) () in
  Engine.set_persist es (fun g -> Store.commit st g);
  let e = Engine.create es in
  let pushes = ref [] in
  let push f = pushes := f :: !pushes in
  let out =
    List.map
      (fun line ->
        let t0 = now_ns () in
        let resp, _ =
          Trace.with_span "replay.op" (fun () -> Engine.handle ~push ~conn_id:1 e line)
        in
        let dt = now_ns () -. t0 in
        (Proto.render_response resp, dt))
      ops
  in
  Store.close st;
  { a_responses = List.map fst out; a_pushes = List.sort compare !pushes; a_handle_ns = List.map snd out }

(* ------------------------------------------------------------------ *)
(* Pass (b): the engine's stages, one public call at a time            *)
(* ------------------------------------------------------------------ *)

type sub_kind =
  | Sub_unql of Unql.Ast.expr
  | Sub_datalog of Datalog.program * Datalog.Incremental.state ref

type sub = {
  id : int;
  fp : Footprint.t;
  kind : sub_kind;
  mutable seq : int;
  mutable last : string;
}

type b_state = {
  acc : acc;
  st : Store.t;
  io : io;
  mutable db : Graph.t;
  cache : Unql.Cache.t;
  fp_memo : (string, Footprint.t) Hashtbl.t;
  mutable subs : sub list;
  mutable pushes : string list;
  (* what the per-row and per-update ratios divide by *)
  mutable unql_rows : int;
  mutable unql_edges : int;
  mutable lorel_rows : int;
  mutable lorel_edges : int;
  mutable datalog_rows : int;
  mutable datalog_facts : int;
  mutable hits : int;
  mutable lookups : int;
  mutable evictions : int;
  mutable updates : int;
  mutable deltas : int;
  mutable fast_path : int;
  mutable wal_bytes : int;
  mutable pages_logged : int;
  mutable kept : int;
  mutable dropped : int;
  mutable subs_checked : int;
  mutable skipped : int;
  mutable pushed : int;
  mutable delta_bytes : int;
}

let n_rows g = List.length (Graph.labeled_succ g (Graph.root g))

let footprint_of s qtext =
  match Hashtbl.find_opt s.fp_memo qtext with
  | Some fp -> fp
  | None ->
    let fp = Footprint.of_string qtext in
    Hashtbl.add s.fp_memo qtext fp;
    fp

let lint s (opts : Proto.options) body =
  let lang =
    match opts.Proto.lang with
    | "lorel" -> Ssd_lint.Lorel
    | "datalog" -> Ssd_lint.Datalog
    | _ -> Ssd_lint.Unql
  in
  let report = stage s.acc "lint.check" (fun () -> Ssd_lint.check_src ~lang body) in
  if Ssd_lint.errors report > 0 then fail "lint rejects %s" body

(* The response frame; [body] renders the result text inside the same
   stage. *)
let render s ?detail status body =
  stage s.acc "serve.render" (fun () -> Proto.render_response (Proto.response ?detail status (body ())))

(* UnQL through the shared result cache, as the engine does. *)
let unql_cached s ~db q =
  s.lookups <- s.lookups + 1;
  match stage s.acc "unql.cache.lookup" (fun () -> Unql.Cache.find s.cache ~db q) with
  | Some g ->
    s.hits <- s.hits + 1;
    g
  | None ->
    let g, d =
      growth [ "unql.eval.edges_traversed" ] (fun () ->
          stage s.acc "unql.eval" (fun () -> Unql.Eval.eval ~db q))
    in
    s.unql_edges <- s.unql_edges + List.hd d;
    let (), d = growth [ "unql.cache.evictions" ] (fun () ->
        stage s.acc "unql.cache.fill" (fun () -> Unql.Cache.add s.cache ~db q g)) in
    s.evictions <- s.evictions + List.hd d;
    g

let query s (opts : Proto.options) body =
  lint s opts body;
  let db = s.db in
  let text =
    match opts.Proto.lang with
    | "lorel" ->
      let q = stage s.acc "lorel.parse" (fun () -> Lorel.Parser.parse body) in
      let g, d =
        growth [ "lorel.eval.edges_traversed" ] (fun () ->
            stage s.acc "lorel.eval" (fun () -> Lorel.Eval.eval ~db q))
      in
      s.lorel_edges <- s.lorel_edges + List.hd d;
      s.lorel_rows <- s.lorel_rows + n_rows g;
      fun () -> render_graph g
    | "datalog" ->
      let p = stage s.acc "datalog.parse" (fun () -> Datalog.parse body) in
      let edb = stage s.acc "datalog.edb" (fun () -> Relstore.Triple.edb db) in
      let res, d =
        growth [ "datalog.facts_derived" ] (fun () ->
            stage s.acc "datalog.eval" (fun () -> Datalog.eval ~edb p))
      in
      s.datalog_facts <- s.datalog_facts + List.hd d;
      s.datalog_rows <- s.datalog_rows + List.fold_left (fun a (_, ts) -> a + List.length ts) 0 res;
      fun () -> render_datalog res
    | _ ->
      let q = stage s.acc "unql.parse" (fun () -> Unql.Parser.parse body) in
      let g = unql_cached s ~db q in
      s.unql_rows <- s.unql_rows + n_rows g;
      fun () -> render_graph g
  in
  render s Proto.Complete text

let sub_text s ~db = function
  | Sub_unql q -> render_graph (unql_cached s ~db q)
  | Sub_datalog (_, dstate) -> render_datalog_sorted (Datalog.Incremental.result !dstate)

let subscribe s (opts : Proto.options) body =
  lint s opts body;
  let db = s.db in
  let kind =
    match opts.Proto.lang with
    | "datalog" ->
      let p = stage s.acc "datalog.parse" (fun () -> Datalog.parse body) in
      let edb = stage s.acc "datalog.edb" (fun () -> Relstore.Triple.edb db) in
      Sub_datalog (p, ref (stage s.acc "datalog.eval" (fun () -> Datalog.Incremental.prepare ~edb p)))
    | _ -> Sub_unql (stage s.acc "unql.parse" (fun () -> Unql.Parser.parse body))
  in
  let text = sub_text s ~db kind in
  let id = List.length s.subs + 1 in
  s.subs <- s.subs @ [ { id; fp = footprint_of s body; kind; seq = 0; last = text } ];
  render s ~detail:(string_of_int id) Proto.Complete (fun () -> text)

(* The engine's re-check of one subscription after a commit. *)
let advance s ~db' ~(d : Delta.t) sub =
  match sub.kind with
  | Sub_unql _ ->
    let text = sub_text s ~db:db' sub.kind in
    if text = sub.last then None else Some text
  | Sub_datalog (p, dstate) ->
    if Delta.monotone d && not d.Delta.new_has_eps then begin
      let triples =
        List.filter_map
          (fun (e : Delta.edge) ->
            match e.Delta.lab with
            | Graph.Eps -> None
            | Graph.Lab l -> Some [ Label.Int e.Delta.src; l; Label.Int e.Delta.dst ])
          d.Delta.added
      in
      match Datalog.Incremental.advance !dstate ~edb_delta:[ ("edge", triples) ] with
      | [] -> None
      | _ ->
        let text = render_datalog_sorted (Datalog.Incremental.result !dstate) in
        if text = sub.last then None else Some text
    end
    else begin
      dstate := Datalog.Incremental.prepare ~edb:(Relstore.Triple.edb db') p;
      let text = sub_text s ~db:db' sub.kind in
      if text = sub.last then None else Some text
    end

let notify s ~db' ~d ~labels =
  List.iter
    (fun sub ->
      s.subs_checked <- s.subs_checked + 1;
      if Footprint.disjoint sub.fp labels then s.skipped <- s.skipped + 1
      else
        match advance s ~db' ~d sub with
        | None -> ()
        | Some text ->
          sub.seq <- sub.seq + 1;
          sub.last <- text;
          s.pushed <- s.pushed + 1;
          let detail = Printf.sprintf "%d.%d" sub.id sub.seq in
          s.pushes <- Proto.render_response (Proto.response ~detail Proto.Delta text) :: s.pushes)
    s.subs

(* Bytes of an edge as a delta carries it: two node ids and the label. *)
let edge_bytes (e : Delta.edge) =
  16 + match e.Delta.lab with Graph.Eps -> 0 | Graph.Lab l -> String.length (Label.to_string l)

let update s body =
  let old_db = s.db in
  let db' = stage s.acc "lorel.update" (fun () -> Lorel.Update.run ~db:old_db body) in
  (match
     growth [ "incr.deltas"; "incr.fast_path"; "store.wal_bytes"; "store.pages_logged" ] (fun () ->
         stage s.acc "store.commit" (fun () -> Store.commit s.st db'))
   with
  | (), [ deltas; fast; wal; pages ] ->
    s.deltas <- s.deltas + deltas;
    s.fast_path <- s.fast_path + fast;
    s.wal_bytes <- s.wal_bytes + wal;
    s.pages_logged <- s.pages_logged + pages
  | _ -> assert false);
  let d, labels =
    stage s.acc "incr.diff" (fun () ->
        let d = Delta.diff old_db db' in
        (d, Delta.touched_labels d))
  in
  let kept, dropped =
    stage s.acc "unql.cache.revalidate" (fun () ->
        Unql.Cache.revalidate s.cache ~old_db ~new_db:db' ~keep:(fun q ->
            Footprint.disjoint (footprint_of s q) labels))
  in
  s.db <- db';
  let pushed0 = s.pushed in
  stage s.acc "incr.sub.notify" (fun () -> notify s ~db' ~d ~labels);
  s.updates <- s.updates + 1;
  s.kept <- s.kept + kept;
  s.dropped <- s.dropped + dropped;
  s.delta_bytes <-
    s.delta_bytes + List.fold_left (fun a e -> a + edge_bytes e) 0 (d.Delta.added @ d.Delta.removed);
  render s Proto.Complete (fun () ->
      Printf.sprintf "updated: %d nodes, %d edges; cache %d kept %d invalidated; %d deltas pushed\n"
        (Graph.n_nodes db') (Graph.n_edges db') kept dropped (s.pushed - pushed0))

let handle_b s line =
  match stage s.acc "serve.proto_decode" (fun () -> Proto.parse_request line) with
  | Error d -> fail "replay request does not parse: %s" (Ssd_diag.to_string d)
  | Ok { Proto.verb; opts; body } -> (
    match verb with
    | Proto.Query -> query s opts body
    | Proto.Update -> update s body
    | Proto.Subscribe -> subscribe s opts body
    | _ -> fail "replay has no stage model for %s" line)

let b_state (r : Drive.result) dir =
  let io = io_zero () in
  let st = fresh_store r dir io in
  {
    acc = Hashtbl.create 32;
    st;
    io;
    db = Store.graph st;
    cache = Unql.Cache.create ();
    fp_memo = Hashtbl.create 64;
    subs = [];
    pushes = [];
    unql_rows = 0;
    unql_edges = 0;
    lorel_rows = 0;
    lorel_edges = 0;
    datalog_rows = 0;
    datalog_facts = 0;
    hits = 0;
    lookups = 0;
    evictions = 0;
    updates = 0;
    deltas = 0;
    fast_path = 0;
    wal_bytes = 0;
    pages_logged = 0;
    kept = 0;
    dropped = 0;
    subs_checked = 0;
    skipped = 0;
    pushed = 0;
    delta_bytes = 0;
  }

(* Inputs for stages the op stream never reaches. *)
let probes s =
  [
    ( "lorel.eval",
      fun () -> ignore (query s { Proto.default_options with Proto.lang = "lorel" } "select X from DB.nosuch X") );
    ( "datalog.eval",
      fun () ->
        ignore (query s { Proto.default_options with Proto.lang = "datalog" } "probe(?X) :- root(?X).") );
    ("store.commit", fun () -> ignore (update s (W.update_text 1)));
  ]

(* ------------------------------------------------------------------ *)
(* Cold open, in process                                               *)
(* ------------------------------------------------------------------ *)

(* Median open and open-to-first-answer times over a few fresh copies,
   and the buffer pool's hit ratio over all of them. *)
let cold_open (r : Drive.result) dir first =
  let runs =
    List.init 5 (fun i ->
        let d = Filename.concat dir (Printf.sprintf "open%d" i) in
        copy_dir r.Drive.master d;
        let t0 = now_ns () in
        let st = Store.open_ (Vfs.real d) in
        let t1 = now_ns () in
        let e = Engine.create (Engine.store ~db:(Store.graph st) ()) in
        ignore (Engine.handle e first);
        let t2 = now_ns () in
        Store.close st;
        rm_rf d;
        ((t1 -. t0) /. 1e6, (t2 -. t0) /. 1e6))
  in
  (median (List.map fst runs), median (List.map snd runs))

(* ------------------------------------------------------------------ *)
(* The per-layer metrics                                               *)
(* ------------------------------------------------------------------ *)

let per_layer kind (env : Drive.env) (r : Drive.result) =
  let dir = env.Drive.dir in
  let ops = op_stream kind r env.Drive.seed in
  let n = List.length ops in
  let (open_ms, first_ms), pager =
    growth [ "pager.page_hits"; "pager.accesses" ] (fun () ->
        cold_open r dir (List.find (String.starts_with ~prefix:"QUERY") ops))
  in
  (* untraced on both sides of the traced pass, so warm-up favours
     neither side of the overhead *)
  let untraced = pass_a r (Filename.concat dir "replay-a0") ops in
  Trace.clear ();
  Trace.enable ();
  let traced = pass_a r (Filename.concat dir "replay-a1") ops in
  Trace.disable ();
  let untraced' = pass_a r (Filename.concat dir "replay-a2") ops in
  Trace.enable ();
  let s = b_state r (Filename.concat dir "replay-b") in
  let b_out = List.map (handle_b s) ops in
  let b_stage_ns = total_ns s.acc in
  (* stages the stream never reached: time them once on a probe input *)
  let ps = b_state r (Filename.concat dir "replay-probe") in
  List.iter (fun (name, run) -> if calls s.acc name = 0 then run ()) (probes ps);
  Trace.disable ();
  let trace_path =
    Filename.concat ".perfbench" (Printf.sprintf "trace-%s-seed%d.json" (W.kind_name kind) env.Drive.seed)
  in
  Trace.write_chrome trace_path;
  Trace.clear ();
  Store.close s.st;
  Store.close ps.st;
  if traced.a_responses <> untraced.a_responses || untraced'.a_responses <> untraced.a_responses
  then fail "traced and untraced replays differ";
  if b_out <> untraced.a_responses then fail "staged replay (b) differs from Engine.handle (a)";
  if List.sort compare s.pushes <> untraced.a_pushes then fail "staged replay pushed other delta frames";
  Printf.printf "chrome trace: %s\n" trace_path;
  (* a stage's value comes from the stream, else from its probe *)
  let us name = median_us (if calls s.acc name > 0 then s.acc else ps.acc) name in
  (* the update path's counts: the stream's updates, else the probe's *)
  let u = if s.updates > 0 then s else ps in
  let per_update x = float_of_int x /. float_of_int u.updates in
  let sum = List.fold_left ( +. ) 0. in
  let queries =
    List.filter_map
      (fun (line, dt) -> if String.starts_with ~prefix:"QUERY" line then Some dt else None)
      (List.combine ops untraced.a_handle_ns)
  in
  let m = metric ~samples:n in
  [
    m "serve.handle_us" "us" (median queries /. 1e3);
    m "serve.socket_us" "us" ((median r.Drive.query_ns -. median queries) /. 1e3);
    m "serve.proto_decode_us" "us" (us "serve.proto_decode");
    m "serve.render_us" "us" (us "serve.render");
    m "serve.bytes_out_per_op" "bytes"
      (float_of_int (List.fold_left (fun a x -> a + String.length x) 0 untraced.a_responses)
      /. float_of_int n);
    m "lint.check_us" "us" (us "lint.check");
    m "unql.parse_us" "us" (us "unql.parse");
    m "unql.cache.lookup_us" "us" (us "unql.cache.lookup");
    m "unql.cache.hit_ratio" "ratio" (ratio s.hits s.lookups);
    m "unql.cache.evictions_per_op" "count" (ratio s.evictions n);
    m "unql.eval_us" "us" (us "unql.eval");
    m "unql.eval.edges_per_row" "count" (ratio s.unql_edges s.unql_rows);
    m "lorel.parse_us" "us" (us "lorel.parse");
    m "lorel.eval_us" "us" (us "lorel.eval");
    m "lorel.eval.edges_per_row" "count" (ratio s.lorel_edges s.lorel_rows);
    m "lorel.update_us" "us" (us "lorel.update");
    m "datalog.parse_us" "us" (us "datalog.parse");
    m "datalog.edb_us" "us" (us "datalog.edb");
    m "datalog.eval_us" "us" (us "datalog.eval");
    m "datalog.facts_per_row" "count" (ratio s.datalog_facts s.datalog_rows);
    m "incr.diff_us" "us" (us "incr.diff");
    m "incr.fast_path_ratio" "ratio" (ratio u.fast_path u.deltas);
    m "unql.cache.revalidate_us" "us" (us "unql.cache.revalidate");
    m "incr.cache.kept_ratio" "ratio" (ratio u.kept (u.kept + u.dropped));
    m "incr.sub.notify_us" "us" (us "incr.sub.notify");
    m "incr.sub.skip_ratio" "ratio" (ratio u.skipped u.subs_checked);
    m "incr.sub.pushes_per_update" "count" (ratio u.pushed u.updates);
    m "store.commit_us" "us" (us "store.commit");
    m "store.pwrite_us" "us" (u.io.pwrite_ns /. 1e3 /. float_of_int u.updates);
    m "store.fsync_us" "us" (u.io.fsync_ns /. 1e3 /. float_of_int u.updates);
    m "store.pwrites_per_update" "count" (per_update u.io.pwrites);
    m "store.bytes_written_per_update" "bytes" (per_update u.io.bytes_written);
    m "store.fsyncs_per_update" "count" (per_update u.io.fsyncs);
    m "store.wal_bytes_per_update" "bytes" (per_update u.wal_bytes);
    m "store.pages_logged_per_update" "count" (per_update u.pages_logged);
    m "store.write_amp" "ratio" (ratio u.wal_bytes u.delta_bytes);
    m "store.open_ms" "ms" open_ms;
    m "store.first_answer_ms" "ms" first_ms;
    m "pager.hit_ratio" "ratio" (match pager with [ hits; accesses ] -> ratio hits accesses | _ -> 0.);
    m "trace.stage_coverage" "ratio" (b_stage_ns /. sum traced.a_handle_ns);
    m "trace.overhead_pct" "%"
      (let base = (sum untraced.a_handle_ns +. sum untraced'.a_handle_ns) /. 2. in
       100. *. (sum traced.a_handle_ns -. base) /. base);
  ]
  @ List.map
      (fun (name, v) -> metric ~samples:r.Drive.n_ops ("stats." ^ name ^ "_per_op") "count" v)
      r.Drive.stats_per_op
