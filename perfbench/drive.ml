(* The end-to-end run: `ssdql serve --store` as a separate process,
   driven over its Unix socket by this one client process in a closed
   loop (each connection sends its next request only after the previous
   answer arrived).  Tracing is off in the server and here. *)

open Common
module W = Workload
module C = Client
module Proto = Ssd_serve.Proto
module Store = Ssd_store.Store
module Vfs = Ssd_store.Vfs

type env = {
  ssdql : string;
  dir : string; (* this run's scratch directory, removed at exit *)
  seed : int;
  seconds : float;
}

(* Cold starts per run; set-up time is their median. *)
let n_starts = 15

(* How long an update-mix read trails its round's update: long enough
   for the update to reach the store lock first, far shorter than a
   commit. *)
let read_lag_s = 0.001

(* Untimed scans before scan-cold's timed phase: the cache fill, then
   enough of the 3:1:1 cycle for the server's heap to stop growing (its
   first few dozen Lorel and datalog scans run up to three times
   slower). *)
let scan_warmup = W.scan_fill + 50

(* Server counters read from STATS before and after the timed phase. *)
let stats_counters =
  [
    "unql.cache.hits"; "unql.cache.misses"; "unql.cache.evictions"; "unql.cache.invalidations";
    "unql.eval.edges_traversed"; "incr.deltas"; "incr.fast_path"; "incr.fallbacks";
    "incr.edges_added"; "incr.edges_removed"; "incr.touched_nodes"; "incr.cache.revalidated";
    "incr.cache.dropped"; "incr.datalog.advances"; "incr.datalog.new_facts"; "incr.sub.evals";
    "incr.sub.pushes"; "incr.sub.skips"; "incr.sub.unchanged"; "store.pages_logged";
    "store.wal_bytes"; "pager.accesses"; "pager.page_hits"; "pager.page_misses";
  ]

type result = {
  master : string; (* the clean store every start copies *)
  db0 : Graph.t; (* its graph, as a server decodes it *)
  setup_s : float list;
  query_ns : float list; (* QUERY latencies, socket write to frame read *)
  op_ns : float list; (* the workload's defining op: QUERY, or UPDATE on update-mix *)
  n_ops : int; (* timed ops on all connections *)
  elapsed_s : float;
  rss_mb : float;
  stats_per_op : (string * float) list;
  attempted : int;
  failed : int;
  checks_ok : bool; (* the run-level checks beyond per-answer ones *)
}

(* ------------------------------------------------------------------ *)
(* Shared pieces                                                       *)
(* ------------------------------------------------------------------ *)

(* Build the master store once; every start copies it.  Returns the
   graph exactly as a server decodes it from the store, so in-process
   answers see the same node numbering. *)
let make_store env graph =
  let master = Filename.concat env.dir "master" in
  Store.close (Store.create (Vfs.real master) graph);
  let st = Store.open_ (Vfs.real master) in
  let db0 = Store.graph st in
  Store.close st;
  (master, db0)

let good (r : Proto.response) expected = r.Proto.status = Proto.Complete && r.Proto.body = expected

(* [n_starts] fresh servers over fresh copies of the store, each timed
   from spawn to its first complete answer to [first]; the last one is
   kept running for the timed phase. *)
let cold_starts env ~master ~workers ~first ~expected =
  let failed = ref 0 in
  let rec go i acc =
    let store = Filename.concat env.dir (Printf.sprintf "store%d" i) in
    let sock = Filename.concat env.dir (Printf.sprintf "s%d.sock" i) in
    copy_dir master store;
    let t0 = now_ns () in
    let s = C.spawn ~ssdql:env.ssdql ~store ~sock ~workers ~log:(Filename.concat env.dir "serve.log") in
    let c = C.connect s in
    let r = C.rpc c first in
    let dt = (now_ns () -. t0) /. 1e9 in
    if not (good r expected) then incr failed;
    if i = n_starts then (List.rev (dt :: acc), s, c, store, !failed)
    else begin
      C.close c;
      C.stop ~kill:true s;
      rm_rf store;
      go (i + 1) (dt :: acc)
    end
  in
  go 1 []

let stats_delta before after n_ops =
  List.map
    (fun name ->
      let get l = Option.value ~default:0 (List.assoc_opt name l) in
      (name, ratio (get after - get before) n_ops))
    stats_counters

(* A single connection in a closed loop until the deadline.  [next i]
   is the i-th request line; [record] checks or keeps its answer. *)
let closed_loop c ~deadline ~next ~record =
  let lats = ref [] and n = ref 0 in
  let t_start = now_ns () and t_last = ref (now_ns ()) in
  while now_ns () < deadline do
    let line = next !n in
    let t0 = now_ns () in
    let r = C.rpc c line in
    let t1 = now_ns () in
    lats := (t1 -. t0) :: !lats;
    record r;
    t_last := t1;
    incr n
  done;
  (!lats, !n, (!t_last -. t_start) /. 1e9)

(* ------------------------------------------------------------------ *)
(* browse-hot and scan-cold: one connection                            *)
(* ------------------------------------------------------------------ *)

let browse env =
  let graph = W.generate W.Browse_hot ~seed:env.seed in
  let master, db0 = make_store env graph in
  let rng = W.Prng.create ~seed:(env.seed + 1) in
  let pool = W.browse_pool_of db0 rng in
  let lines = Array.map (W.request Proto.Query) pool in
  let expected = Array.map (W.answer db0) pool in
  let zipf = W.zipf_table (Array.length pool) in
  let setup, s, c, _store, failed0 =
    cold_starts env ~master ~workers:1 ~first:lines.(0) ~expected:expected.(0)
  in
  let failed = ref failed0 in
  (* warm-up: every pool query once, so the timed phase only hits *)
  Array.iteri (fun i line -> if not (good (C.rpc c line) expected.(i)) then incr failed) lines;
  let before = C.stats_counters c in
  let drawn = ref 0 in
  let lats, n, elapsed =
    closed_loop c
      ~deadline:(now_ns () +. (env.seconds *. 1e9))
      ~next:(fun _ ->
        drawn := W.zipf_draw rng zipf;
        lines.(!drawn))
      ~record:(fun r -> if not (good r expected.(!drawn)) then incr failed)
  in
  let after = C.stats_counters c in
  let rss = C.peak_rss_mb s in
  C.close c;
  C.stop s;
  {
    master;
    db0;
    setup_s = setup;
    query_ns = lats;
    op_ns = lats;
    n_ops = n;
    elapsed_s = elapsed;
    rss_mb = rss;
    stats_per_op = stats_delta before after n;
    attempted = n_starts + Array.length lines + n;
    failed = !failed;
    checks_ok = true;
  }

let scan env =
  let graph = W.generate W.Scan_cold ~seed:env.seed in
  let master, db0 = make_store env graph in
  let rng = W.Prng.create ~seed:(env.seed + 1) in
  let first = W.scan_op rng 0 in
  let edb = lazy (Relstore.Triple.edb db0) in
  let setup, s, c, _store, failed0 =
    cold_starts env ~master ~workers:1 ~first:(W.request Proto.Query first)
      ~expected:(W.answer ~edb db0 first)
  in
  (* Answers are kept as digests and checked after the timed phase, so
     no in-process evaluation competes with the server for the CPU. *)
  let sent = ref [] in
  let next i =
    let q = W.scan_op rng i in
    sent := (q, None) :: !sent;
    W.request Proto.Query q
  in
  let record (r : Proto.response) =
    match !sent with
    | (q, None) :: rest ->
      sent := (q, Some (r.Proto.status = Proto.Complete, Digest.string r.Proto.body)) :: rest
    | _ -> assert false
  in
  for i = 1 to scan_warmup - 1 do
    record (C.rpc c (next i))
  done;
  let before = C.stats_counters c in
  let lats, n, elapsed =
    closed_loop c
      ~deadline:(now_ns () +. (env.seconds *. 1e9))
      ~next:(fun i -> next (i + scan_warmup))
      ~record
  in
  let after = C.stats_counters c in
  let rss = C.peak_rss_mb s in
  C.close c;
  C.stop s;
  let failed =
    List.fold_left
      (fun acc (q, seen) ->
        match seen with
        | Some (true, d) when Digest.string (W.answer ~edb db0 q) = d -> acc
        | _ -> acc + 1)
      failed0 !sent
  in
  {
    master;
    db0;
    setup_s = setup;
    query_ns = lats;
    op_ns = lats;
    n_ops = n;
    elapsed_s = elapsed;
    rss_mb = rss;
    stats_per_op = stats_delta before after n;
    attempted = n_starts + scan_warmup - 1 + n;
    failed;
    checks_ok = true;
  }

(* ------------------------------------------------------------------ *)
(* update-mix: a writer and a reader from one select loop              *)
(* ------------------------------------------------------------------ *)

type read = {
  qi : int; (* index into the reader pool *)
  acked_at_send : int; (* updates acknowledged before the request left *)
  mutable sent_at_recv : int; (* updates sent before the answer arrived *)
  mutable seen : (bool * Digest.t) option;
}

(* Each reader answer must equal the in-process answer at one of the
   versions committed while it was outstanding; each ack must report the
   replayed version's size.  Replays the writer's updates in process,
   keeping only the versions some pending read can still see. *)
let check_mix db0 pool ~n_updates ~acks ~reads =
  let versions = Hashtbl.create 16 in
  Hashtbl.replace versions 0 db0;
  let latest = ref 0 in
  let rec version k =
    match Hashtbl.find_opt versions k with
    | Some g -> g
    | None ->
      let g = Lorel.Update.run ~db:(version (k - 1)) (W.update_text k) in
      Hashtbl.replace versions k g;
      latest := max !latest k;
      g
  in
  let memo = Hashtbl.create 64 in
  let answer_at k qi =
    match Hashtbl.find_opt memo (k, qi) with
    | Some d -> d
    | None ->
      let d = Digest.string (W.answer (version k) pool.(qi)) in
      Hashtbl.replace memo (k, qi) d;
      d
  in
  let failed = ref 0 in
  let bad_acks = ref 0 in
  let next_ack = ref 1 in
  let check_acks_upto k =
    while !next_ack <= k do
      let g = version !next_ack in
      (match acks.(!next_ack - 1) with
      | Some (nodes, edges) when nodes = Graph.n_nodes g && edges = Graph.n_edges g -> ()
      | _ -> incr bad_acks);
      incr next_ack
    done
  in
  List.iter
    (fun r ->
      (* versions older than the oldest a pending read may see are dead *)
      check_acks_upto r.acked_at_send;
      Hashtbl.filter_map_inplace
        (fun k g -> if k < r.acked_at_send && k < !latest then None else Some g)
        versions;
      Hashtbl.filter_map_inplace (fun (k, _) d -> if k < r.acked_at_send then None else Some d) memo;
      match r.seen with
      | Some (true, d) ->
        let rec any k = k <= r.sent_at_recv && (answer_at k r.qi = d || any (k + 1)) in
        if not (any r.acked_at_send) then incr failed
      | _ -> incr failed)
    reads;
  check_acks_upto n_updates;
  (!failed + !bad_acks, version n_updates)

let mix env =
  let graph = W.generate W.Update_mix ~seed:env.seed in
  let master, db0 = make_store env graph in
  let rng = W.Prng.create ~seed:(env.seed + 1) in
  let m = W.mix_of db0 rng in
  let pool = m.W.reader_pool in
  let lines = Array.map (W.request Proto.Query) pool in
  let setup, s, reader, store, failed0 =
    cold_starts env ~master ~workers:2 ~first:lines.(0) ~expected:(W.answer db0 pool.(0))
  in
  let writer = C.connect s in
  let failed = ref failed0 in
  (* Subscriptions live on the writer's connection, so their delta
     frames are written before the UPDATE ack and the ack latency
     includes the fan-out. *)
  let next_seq = Hashtbl.create 8 in
  List.iter
    (fun q ->
      let r = C.rpc writer (W.request Proto.Subscribe q) in
      let expected =
        match q.W.lang with
        | W.Datalog ->
          render_datalog_sorted
            (Relstore.Datalog.eval ~edb:(Relstore.Triple.edb db0) (Relstore.Datalog.parse q.W.text))
        | _ -> W.answer db0 q
      in
      if not (good r expected) then incr failed;
      Hashtbl.replace next_seq r.Proto.detail 1)
    m.W.subs;
  let before = C.stats_counters reader in
  let seq_ok = ref true in
  let deadline = now_ns () +. (env.seconds *. 1e9) in
  let n_sent = ref 0 and n_acked = ref 0 in
  let acks = ref [] and update_lats = ref [] and query_lats = ref [] and reads = ref [] in
  let w_t0 = ref None and r_t0 = ref None in
  let cur_read = ref None in
  let t_start = now_ns () and t_last = ref (now_ns ()) in
  let send_update () =
    incr n_sent;
    w_t0 := Some (now_ns ());
    C.send writer (W.request Proto.Update { W.lang = W.Unql; text = W.update_text !n_sent })
  in
  let send_read () =
    let qi = W.Prng.int rng (Array.length pool) in
    let r = { qi; acked_at_send = !n_acked; sent_at_recv = -1; seen = None } in
    cur_read := Some r;
    r_t0 := Some (now_ns ());
    C.send reader lines.(qi)
  in
  let on_writer_frame (f : Proto.response) =
    match f.Proto.status with
    | Proto.Delta -> (
      match String.split_on_char '.' f.Proto.detail with
      | [ id; seq ] when Hashtbl.find_opt next_seq id = int_of_string_opt seq ->
        Hashtbl.replace next_seq id (int_of_string seq + 1)
      | _ -> seq_ok := false)
    | st ->
      let t1 = now_ns () in
      (match !w_t0 with Some t0 -> update_lats := (t1 -. t0) :: !update_lats | None -> ());
      w_t0 := None;
      t_last := t1;
      incr n_acked;
      acks :=
        (if st = Proto.Complete then
           try Scanf.sscanf f.Proto.body "updated: %d nodes, %d edges;" (fun a b -> Some (a, b))
           with Scanf.Scan_failure _ | End_of_file -> None
         else None)
        :: !acks
  in
  let on_reader_frame (f : Proto.response) =
    let t1 = now_ns () in
    (match !r_t0 with Some t0 -> query_lats := (t1 -. t0) :: !query_lats | None -> ());
    r_t0 := None;
    t_last := t1;
    match !cur_read with
    | Some r ->
      r.sent_at_recv <- !n_sent;
      r.seen <- Some (f.Proto.status = Proto.Complete, Digest.string f.Proto.body);
      reads := r :: !reads;
      cur_read := None
    | None -> fail "reader frame without a request"
  in
  let rec drain c on_frame = match C.take c with Some f -> on_frame f; drain c on_frame | None -> () in
  (* Rounds: each read leaves [read_lag_s] behind an update, so it finds
     the commit holding the store lock.  Free-running connections race
     for the lock instead, and their read latency splits into an
     unblocked and a blocked mode whose boundary the median straddles. *)
  let round () =
    send_update ();
    Unix.sleepf read_lag_s;
    send_read ()
  in
  round ();
  while !w_t0 <> None || !r_t0 <> None do
    let fds = List.filter_map Fun.id [
        (if !w_t0 <> None then Some writer.C.fd else None);
        (if !r_t0 <> None then Some reader.C.fd else None) ] in
    (match Unix.select fds [] [] 60. with
    | [], _, _ -> fail "no answer for 60 s"
    | ready, _, _ ->
      List.iter
        (fun fd ->
          let c, on_frame = if fd = writer.C.fd then (writer, on_writer_frame) else (reader, on_reader_frame) in
          if not (C.fill c) then fail "server closed a connection";
          drain c on_frame)
        ready
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
    if !w_t0 = None && !r_t0 = None && now_ns () < deadline then round ()
  done;
  let after = C.stats_counters reader in
  let rss = C.peak_rss_mb s in
  C.close reader;
  C.close writer;
  (* graceful stop: the server checkpoints, so the store reopens clean *)
  C.stop s;
  let reads = List.rev !reads in
  let acks = Array.of_list (List.rev !acks) in
  let bad, final = check_mix db0 pool ~n_updates:!n_sent ~acks ~reads in
  let st = Store.open_ (Vfs.real store) in
  let final_ok = Store.fingerprint st = Store.fingerprint_graph final in
  Store.close st;
  let n_ops = !n_sent + List.length reads in
  {
    master;
    db0;
    setup_s = setup;
    query_ns = !query_lats;
    op_ns = !update_lats;
    n_ops;
    elapsed_s = (!t_last -. t_start) /. 1e9;
    rss_mb = rss;
    stats_per_op = stats_delta before after n_ops;
    attempted = n_starts + List.length m.W.subs + n_ops;
    failed = !failed + bad;
    checks_ok = !seq_ok && final_ok;
  }

let run kind env =
  match kind with W.Browse_hot -> browse env | W.Scan_cold -> scan env | W.Update_mix -> mix env

let ms ns = ns /. 1e6

let end_to_end (r : result) =
  let nq = List.length r.query_ns and no = List.length r.op_ns in
  [
    metric ~samples:(List.length r.setup_s) "setup_s" "s" (median r.setup_s);
    metric ~samples:r.n_ops "throughput_ops_s" "1/s" (float_of_int r.n_ops /. r.elapsed_s);
    metric ~samples:nq "query_p50_ms" "ms" (ms (percentile r.query_ns 0.5));
    metric ~samples:nq "query_p99_ms" "ms" (ms (percentile r.query_ns 0.99));
    metric ~samples:no "op_p50_ms" "ms" (ms (percentile r.op_ns 0.5));
    metric ~samples:no "op_p99_ms" "ms" (ms (percentile r.op_ns 0.99));
    metric "server_rss_mb" "MiB" r.rss_mb;
  ]
