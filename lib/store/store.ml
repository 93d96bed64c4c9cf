(* The crash-safe persistent graph store.

   On-disk state is two files under one directory (or one in-memory
   VFS): [data] — raw header, then framed pages; page 0 is the
   superblock, the rest hold segments (label dictionary, CSR graph,
   serialized indexes and DataGuide) — and [wal], the write-ahead log.

   Durability protocol:
   - [commit] never touches the data file.  It encodes the new version's
     segments, diffs the resulting page images against the current ones,
     appends the changed pages plus a commit record (carrying the new
     superblock) to the WAL, and fsyncs.  The commit is acknowledged
     only after that fsync returns; the new pages live in an in-memory
     overlay until a checkpoint.
   - [checkpoint] applies the overlay to the data file, fsyncs it, then
     truncates the WAL.  Every direct write to the data file is covered
     by a durable WAL record first — including the superblock's
     clean/dirty flag flips, which travel as page-less mini-commits — so
     a crash at any single point leaves either the WAL or the data file
     authoritative, never neither.
   - [open_] runs ARIES-style recovery: scan the WAL (analysis),
     discarding a torn tail and uncommitted frames, then redo the
     committed transactions in LSN order onto the data file and truncate
     the log.  A store closed cleanly (clean flag set, empty WAL) skips
     all of this. *)

module B = Ssd_storage.Bytesio
module Seg = Ssd_storage.Seg
module Graph = Ssd.Graph
module Metrics = Ssd_obs.Metrics
module Trace = Ssd_obs.Trace
module Events = Ssd_obs.Events
module Value_index = Ssd_index.Value_index
module Text_index = Ssd_index.Text_index
module Path_index = Ssd_index.Path_index
module Dataguide = Ssd_schema.Dataguide
module Delta = Ssd_incr.Delta
module Incr_state = Ssd_incr.State

let data_file = "data"
let wal_file = "wal"

let m_commits = Metrics.counter "store.commits"
let m_checkpoints = Metrics.counter "store.checkpoints"
let m_recoveries = Metrics.counter "store.recoveries"
let m_recovered_txns = Metrics.counter "store.recovered_txns"
let m_wal_bytes = Metrics.counter "store.wal_bytes"
let m_pages_logged = Metrics.counter "store.pages_logged"

(* Durability state as gauges, so the admin plane's /metrics and
   /healthz reflect the store's current condition — WAL backlog, dirty
   overlay pages, buffer-pool occupancy, what the last open recovered —
   not just process liveness. *)
let g_wal_backlog = Metrics.gauge "store.wal_backlog_bytes"
let g_pages = Metrics.gauge "store.pages"
let g_dirty = Metrics.gauge "store.dirty_pages"
let g_txns_since_ckpt = Metrics.gauge "store.txns_since_checkpoint"
let g_clean = Metrics.gauge "store.clean"
let g_pool_occupancy = Metrics.gauge "store.bufpool_pages"
let g_pool_capacity = Metrics.gauge "store.bufpool_capacity"
let g_last_recovery_txns = Metrics.gauge "store.last_recovery_txns"
let g_last_recovery_torn = Metrics.gauge "store.last_recovery_torn_bytes"

let all_indexes = [ "value"; "text"; "path"; "guide" ]

type recovery = {
  recovered_txns : int;
  torn_bytes : int;
  was_clean : bool; (* clean shutdown: recovery skipped entirely *)
}

type t = {
  data : Vfs.file;
  wal : Vfs.file;
  page_size : int;
  mutable sb : Page.superblock;
  (* Committed pages not yet checkpointed (framed images), also acting
     as the write-back cache the read path consults before the pool. *)
  images : (int, bytes) Hashtbl.t;
  dirty : (int, unit) Hashtbl.t;
  pool : Bufpool.t;
  mutable wal_size : int;
  mutable graph : Graph.t;
  mutable dict : string array;
  mutable seg_payloads : (string * bytes) list; (* current version's segments *)
  mutable vindex : Value_index.t option;
  mutable tindex : Text_index.t option;
  mutable pindex : Path_index.t option;
  mutable guide : Dataguide.t option;
  (* Live incremental maintainer for the index segments (lib/incr);
     seeded lazily on the first commit from whatever is cached or
     checkpointed, then advanced by the delta of each commit. *)
  mutable incr : Incr_state.t option;
  path_depth : int;
  checkpoint_every : int;
  mutable txns_since_ckpt : int;
  mutable closed : bool;
  recovery : recovery;
}

let fail ?code fmt = Ssd_diag.error ~code:(Option.value ~default:"SSD560" code) fmt

(* ------------------------------------------------------------------ *)
(* Page access                                                         *)
(* ------------------------------------------------------------------ *)

let read_page_from_disk ~page_size data p =
  let buf = Bytes.create page_size in
  Vfs.really_pread data buf ~off:(Page.page_offset ~page_size p);
  buf

(* Current committed image of page [p]: overlay first, then the pool. *)
let page_image st p =
  match Hashtbl.find_opt st.images p with
  | Some img -> img
  | None -> Bufpool.get st.pool p

(* Refresh the durability gauges from the store's state; called after
   every state transition (commit, checkpoint, open, close). *)
let update_gauges st =
  Metrics.set g_wal_backlog (float_of_int (st.wal_size - Wal.header_size));
  Metrics.set g_pages (float_of_int st.sb.Page.n_pages);
  Metrics.set g_dirty (float_of_int (Hashtbl.length st.dirty));
  Metrics.set g_txns_since_ckpt (float_of_int st.txns_since_ckpt);
  Metrics.set g_clean (if st.sb.Page.clean then 1. else 0.);
  Metrics.set g_pool_occupancy (float_of_int (Bufpool.occupancy st.pool));
  Metrics.set g_pool_capacity (float_of_int (Bufpool.capacity st.pool))

(* ------------------------------------------------------------------ *)
(* Segment layout and access                                           *)
(* ------------------------------------------------------------------ *)

(* Fixed order: dict, graph, then the rest sorted — layout is a pure
   function of the segment contents. *)
let order_segs segs =
  let fixed = [ "dict"; "graph" ] in
  let rest =
    List.sort compare (List.filter (fun (n, _) -> not (List.mem n fixed)) segs)
  in
  List.map (fun n -> (n, List.assoc n segs)) fixed @ rest

(* Directory + page count for ordered segment payloads. *)
let layout ~page_size segs =
  let next = ref 1 in
  let dir =
    List.map
      (fun (name, payload) ->
        let len = Bytes.length payload in
        let first = !next in
        next := !next + Page.pages_for ~page_size len;
        { Page.name; first_page = first; byte_len = len; crc = B.crc32 payload })
      segs
  in
  (dir, !next)

(* Framed page images for one segment's payload. *)
let seg_pages ~page_size ~lsn ~first payload =
  let cap = Page.payload_capacity ~page_size in
  let len = Bytes.length payload in
  let k = Page.pages_for ~page_size len in
  List.init k (fun i ->
      let off = i * cap in
      let n = min cap (len - off) in
      (first + i, Page.frame ~page_size ~lsn (Bytes.sub payload off (max 0 n))))

let find_seg st name = List.find_opt (fun s -> s.Page.name = name) st.sb.Page.segs

(* Read a segment's payload through the page layers, verifying length
   and content CRC against the directory. *)
let segment_bytes st (s : Page.seg) =
  let cap = Page.payload_capacity ~page_size:st.page_size in
  let k = Page.pages_for ~page_size:st.page_size s.byte_len in
  let buf = Buffer.create s.byte_len in
  for i = 0 to k - 1 do
    let p = s.first_page + i in
    let _, payload = Page.unframe ~page_size:st.page_size ~page_no:p (page_image st p) in
    let expect = min cap (s.byte_len - (i * cap)) in
    if Bytes.length payload <> max 0 expect then
      B.corrupt ~offset:0
        ~expected:
          (Printf.sprintf "%d payload bytes in page %d of segment %S" expect p s.name)
        ~found:(string_of_int (Bytes.length payload));
    Buffer.add_bytes buf payload
  done;
  let payload = Buffer.to_bytes buf in
  let crc = B.crc32 payload in
  if crc <> s.crc then
    B.corrupt ~offset:0
      ~expected:(Printf.sprintf "segment %S content CRC %08x" s.name s.crc)
      ~found:(Printf.sprintf "%08x" crc);
  payload

(* ------------------------------------------------------------------ *)
(* WAL writing                                                         *)
(* ------------------------------------------------------------------ *)

(* Append one transaction — changed pages plus the new superblock — and
   fsync.  The caller's state is updated only after the fsync returns,
   so an acknowledged commit is durable by construction. *)
let append_txn st ~pages sb' =
  let lsn = st.sb.Page.next_lsn in
  let sb' = { sb' with Page.next_lsn = lsn + 1 } in
  let sb_page = Page.frame ~page_size:st.page_size ~lsn (Page.encode_superblock sb') in
  let frames =
    List.map (fun (p, img) -> Wal.encode_frame ~typ:Wal.t_page ~lsn ~arg:p img) pages
    @ [ Wal.encode_frame ~typ:Wal.t_commit ~lsn ~arg:(List.length pages) sb_page ]
  in
  List.iter
    (fun fr ->
      Vfs.really_pwrite st.wal fr ~off:st.wal_size;
      st.wal_size <- st.wal_size + Bytes.length fr;
      Metrics.add m_wal_bytes (Bytes.length fr))
    frames;
  st.wal.Vfs.fsync ();
  (* Durable: fold the transaction into the overlay. *)
  List.iter
    (fun (p, img) ->
      Hashtbl.replace st.images p img;
      Hashtbl.replace st.dirty p ();
      Bufpool.invalidate st.pool p)
    ((0, sb_page) :: pages);
  Metrics.add m_pages_logged (List.length pages);
  st.sb <- sb';
  update_gauges st

(* ------------------------------------------------------------------ *)
(* Index (re)construction                                              *)
(* ------------------------------------------------------------------ *)

let load_seg st name of_bytes =
  match find_seg st name with
  | None -> None
  | Some s -> Some (of_bytes (segment_bytes st s))

(* Lazy index getters: serve from the in-memory cache, else deserialize
   the checkpointed segment (no rebuild), else build from the graph. *)
let value_index st =
  match st.vindex with
  | Some ix -> ix
  | None ->
    let ix =
      match load_seg st "value" Value_index.of_bytes with
      | Some ix -> ix
      | None -> Value_index.build st.graph
    in
    st.vindex <- Some ix;
    ix

let text_index st =
  match st.tindex with
  | Some ix -> ix
  | None ->
    let ix =
      match load_seg st "text" Text_index.of_bytes with
      | Some ix -> ix
      | None -> Text_index.build st.graph
    in
    st.tindex <- Some ix;
    ix

let path_index st =
  match st.pindex with
  | Some ix -> ix
  | None ->
    let ix =
      match load_seg st "path" Path_index.of_bytes with
      | Some ix -> ix
      | None -> Path_index.build ~depth:st.path_depth st.graph
    in
    st.pindex <- Some ix;
    ix

let dataguide st =
  match st.guide with
  | Some dg -> dg
  | None ->
    let dg =
      match load_seg st "guide" Dataguide.of_bytes with
      | Some dg -> dg
      | None -> Dataguide.build st.graph
    in
    st.guide <- Some dg;
    dg

(* Advance (or lazily seed) the incremental maintainer so the index
   segments for [g] come from delta maintenance instead of full
   rebuilds.  Seeding adopts the cached or checkpointed structures of
   the current version — no rebuild there either.  Monotone deltas
   (Lorel inserts) take the insert-only fast paths; anything else makes
   the maintainer rebuild internally, which it accounts on its own
   [incr.*] instruments. *)
let maintain_indexes st ~index_names g =
  if index_names <> [] then begin
    let state =
      match st.incr with
      | Some state -> state
      | None ->
        let have n = List.mem n index_names in
        let state =
          Incr_state.create ~path_depth:st.path_depth ~names:index_names
            ?vindex:(if have "value" then Some (value_index st) else None)
            ?tindex:(if have "text" then Some (text_index st) else None)
            ?pindex:(if have "path" then Some (path_index st) else None)
            ?guide:(if have "guide" then Some (dataguide st) else None)
            st.graph
        in
        st.incr <- Some state;
        state
    in
    let (_ : Incr_state.outcome) =
      Incr_state.advance state g (Delta.diff (Incr_state.graph state) g)
    in
    (* Refresh the caches from the maintainer (the text index is
       replaced on apply, not mutated in place; the guide materializes
       here). *)
    (match Incr_state.value_index state with
    | Some ix -> st.vindex <- Some ix
    | None -> ());
    (match Incr_state.text_index state with
    | Some ix -> st.tindex <- Some ix
    | None -> ());
    (match Incr_state.path_index state with
    | Some ix -> st.pindex <- Some ix
    | None -> ());
    match Incr_state.dataguide state with
    | Some dg -> st.guide <- Some dg
    | None -> ()
  end

let build_index_payload st name g =
  (* When the maintainer has just advanced to [g], the caches hold its
     structures; otherwise (store creation, maintained set mismatch)
     build from scratch. *)
  let maintained =
    match st.incr with
    | Some state -> Incr_state.graph state == g
    | None -> false
  in
  match name with
  | "value" ->
    let ix =
      match st.vindex with
      | Some ix when maintained -> ix
      | _ -> Value_index.build g
    in
    st.vindex <- Some ix;
    Value_index.to_bytes ix
  | "text" ->
    let ix =
      match st.tindex with
      | Some ix when maintained -> ix
      | _ -> Text_index.build g
    in
    st.tindex <- Some ix;
    Text_index.to_bytes ix
  | "path" ->
    let ix =
      match st.pindex with
      | Some ix when maintained -> ix
      | _ -> Path_index.build ~depth:st.path_depth g
    in
    st.pindex <- Some ix;
    Path_index.to_bytes ix
  | "guide" ->
    let dg =
      match st.guide with
      | Some dg when maintained -> dg
      | _ -> Dataguide.build g
    in
    st.guide <- Some dg;
    Dataguide.to_bytes dg
  | other -> fail "store: unknown index segment %S" other

(* Segment payloads for a graph version: dict, CSR graph, and the
   maintained index segments. *)
let encode_version st ~index_names g =
  let dict = Seg.dict_of_graph g in
  let segs =
    [ ("dict", Seg.encode_dict dict); ("graph", Seg.encode_graph ~dict g) ]
    @ List.map (fun n -> (n, build_index_payload st n g)) index_names
  in
  (dict, order_segs segs)

(* ------------------------------------------------------------------ *)
(* Fingerprint                                                         *)
(* ------------------------------------------------------------------ *)

(* CRC32 chain over the canonical dict + graph segment payloads: equal
   fingerprints mean byte-identical durable content. *)
let fingerprint_of_payloads dict_b graph_b =
  let c = B.crc32 dict_b in
  B.crc32_update c graph_b 0 (Bytes.length graph_b)

let fingerprint_graph g =
  let dict = Seg.dict_of_graph g in
  fingerprint_of_payloads (Seg.encode_dict dict) (Seg.encode_graph ~dict g)

let fingerprint st =
  fingerprint_of_payloads
    (List.assoc "dict" st.seg_payloads)
    (List.assoc "graph" st.seg_payloads)

(* ------------------------------------------------------------------ *)
(* Open / recovery                                                     *)
(* ------------------------------------------------------------------ *)

let redo_txns ~page_size data wal (scan : Wal.scan_result) =
  List.iter
    (fun (txn : Wal.txn) ->
      List.iter
        (fun (p, img) -> Vfs.really_pwrite data img ~off:(Page.page_offset ~page_size p))
        txn.Wal.pages)
    scan.Wal.txns;
  (match List.rev scan.Wal.txns with
  | last :: _ ->
    Vfs.really_pwrite data last.Wal.sb_page ~off:(Page.page_offset ~page_size 0);
    let _, sb_payload = Page.unframe ~page_size last.Wal.sb_page in
    let sb = Page.decode_superblock sb_payload in
    data.Vfs.truncate (Page.page_offset ~page_size sb.Page.n_pages)
  | [] -> ());
  data.Vfs.fsync ();
  wal.Vfs.truncate Wal.header_size;
  wal.Vfs.fsync ()

let open_ ?(pool_pages = 64) ?(checkpoint_every = max_int) (vfs : Vfs.t) =
  if not (vfs.Vfs.exists data_file) then
    fail "store: no data file (not a store, or not initialized)";
  let data = vfs.Vfs.open_file data_file in
  let wal = vfs.Vfs.open_file wal_file in
  let hdr = Bytes.create Page.header_size in
  Vfs.really_pread data hdr ~off:0;
  let page_size = Page.decode_header hdr in
  (* Analysis: scan the log, discarding the torn tail. *)
  let wal_bytes = Vfs.read_all wal in
  if Bytes.length wal_bytes = 0 then begin
    Vfs.really_pwrite wal (Wal.encode_header ()) ~off:0;
    wal.Vfs.fsync ()
  end;
  let wal_bytes = if Bytes.length wal_bytes = 0 then Vfs.read_all wal else wal_bytes in
  let scan = Wal.scan wal_bytes in
  let n_txns = List.length scan.Wal.txns in
  let had_tail = scan.Wal.torn_bytes > 0 || scan.Wal.in_flight > 0 in
  (* Redo: replay committed transactions, then clear the log. *)
  if n_txns > 0 then begin
    Metrics.incr m_recoveries;
    Metrics.add m_recovered_txns n_txns;
    redo_txns ~page_size data wal scan
  end
  else if had_tail || scan.Wal.scanned_bytes > 0 then begin
    (* Nothing committed, but stale/torn frames remain: clear them. *)
    wal.Vfs.truncate Wal.header_size;
    wal.Vfs.fsync ()
  end;
  let sb_img = read_page_from_disk ~page_size data 0 in
  let _, sb_payload = Page.unframe ~page_size ~page_no:0 sb_img in
  let sb = Page.decode_superblock sb_payload in
  let was_clean = sb.Page.clean && n_txns = 0 && not had_tail && scan.Wal.scanned_bytes = 0 in
  let recovery = { recovered_txns = n_txns; torn_bytes = scan.Wal.torn_bytes; was_clean } in
  let pool =
    Bufpool.create ~capacity:pool_pages ~read_page:(read_page_from_disk ~page_size data)
  in
  let st =
    {
      data;
      wal;
      page_size;
      sb;
      images = Hashtbl.create 64;
      dirty = Hashtbl.create 64;
      pool;
      wal_size = Wal.header_size;
      graph = Graph.empty;
      dict = [||];
      seg_payloads = [];
      vindex = None;
      tindex = None;
      pindex = None;
      guide = None;
      incr = None;
      path_depth = sb.Page.path_depth;
      checkpoint_every;
      txns_since_ckpt = 0;
      closed = false;
      recovery;
    }
  in
  (* Load the current version (dict + graph) through the page layers. *)
  let dict_seg =
    match find_seg st "dict" with
    | Some s -> s
    | None -> fail "store: superblock has no dict segment"
  in
  let graph_seg =
    match find_seg st "graph" with
    | Some s -> s
    | None -> fail "store: superblock has no graph segment"
  in
  let dict_b = segment_bytes st dict_seg in
  let graph_b = segment_bytes st graph_seg in
  let dict = Seg.decode_dict dict_b in
  let g = Seg.decode_graph ~dict graph_b in
  st.dict <- dict;
  st.graph <- g;
  st.seg_payloads <- [ ("dict", dict_b); ("graph", graph_b) ];
  (* Mark open-for-write: the clean-flag flip travels through the WAL
     like any other superblock change, so a torn write cannot destroy
     page 0 — the log stays authoritative until the next checkpoint. *)
  if sb.Page.clean then append_txn st ~pages:[] { sb with Page.clean = false };
  Metrics.set g_last_recovery_txns (float_of_int recovery.recovered_txns);
  Metrics.set g_last_recovery_torn (float_of_int recovery.torn_bytes);
  update_gauges st;
  if not was_clean then
    Events.emit Events.default "wal.recovery"
      [
        ("recovered_txns", Ssd.Json.Int recovery.recovered_txns);
        ("torn_bytes", Ssd.Json.Int recovery.torn_bytes);
      ];
  st

(* ------------------------------------------------------------------ *)
(* Create                                                              *)
(* ------------------------------------------------------------------ *)

let create ?(page_size = Page.default_page_size) ?(indexes = all_indexes)
    ?(path_depth = 3) ?pool_pages ?checkpoint_every (vfs : Vfs.t) g =
  if page_size < Page.min_page_size || page_size > 65536 then
    fail "store: page size %d out of range [%d, 65536]" page_size Page.min_page_size;
  List.iter
    (fun n -> if not (List.mem n all_indexes) then fail "store: unknown index %S" n)
    indexes;
  let data = vfs.Vfs.open_file data_file in
  let wal = vfs.Vfs.open_file wal_file in
  (* Throwaway shell so the segment encoders can cache into it. *)
  let dict = Seg.dict_of_graph g in
  let scratch_index name =
    match name with
    | "value" -> Value_index.to_bytes (Value_index.build g)
    | "text" -> Text_index.to_bytes (Text_index.build g)
    | "path" -> Path_index.to_bytes (Path_index.build ~depth:path_depth g)
    | "guide" -> Dataguide.to_bytes (Dataguide.build g)
    | other -> fail "store: unknown index segment %S" other
  in
  let segs =
    order_segs
      ([ ("dict", Seg.encode_dict dict); ("graph", Seg.encode_graph ~dict g) ]
      @ List.map (fun n -> (n, scratch_index n)) indexes)
  in
  let dir, n_pages = layout ~page_size segs in
  let sb = { Page.clean = true; next_lsn = 1; n_pages; path_depth; segs = dir } in
  data.Vfs.truncate 0;
  Vfs.really_pwrite data (Page.encode_header ~page_size) ~off:0;
  Vfs.really_pwrite data
    (Page.frame ~page_size ~lsn:0 (Page.encode_superblock sb))
    ~off:(Page.page_offset ~page_size 0);
  List.iter2
    (fun (_, payload) (s : Page.seg) ->
      List.iter
        (fun (p, img) -> Vfs.really_pwrite data img ~off:(Page.page_offset ~page_size p))
        (seg_pages ~page_size ~lsn:0 ~first:s.first_page payload))
    segs dir;
  data.Vfs.fsync ();
  wal.Vfs.truncate 0;
  Vfs.really_pwrite wal (Wal.encode_header ()) ~off:0;
  wal.Vfs.fsync ();
  data.Vfs.close ();
  wal.Vfs.close ();
  open_ ?pool_pages ?checkpoint_every vfs

(* ------------------------------------------------------------------ *)
(* Commit / checkpoint / close                                         *)
(* ------------------------------------------------------------------ *)

let check_open st = if st.closed then fail "store: already closed"

let index_names st =
  List.filter_map
    (fun (s : Page.seg) -> if List.mem s.Page.name all_indexes then Some s.Page.name else None)
    st.sb.Page.segs

let checkpoint st =
  check_open st;
  if Hashtbl.length st.dirty > 0 || st.wal_size > Wal.header_size then begin
    Metrics.incr m_checkpoints;
    Trace.with_span "store.checkpoint" @@ fun () ->
    let n_flushed = Hashtbl.length st.dirty in
    let wal_dropped = st.wal_size - Wal.header_size in
    let pages = Hashtbl.fold (fun p () acc -> p :: acc) st.dirty [] in
    List.iter
      (fun p ->
        Vfs.really_pwrite st.data (Hashtbl.find st.images p)
          ~off:(Page.page_offset ~page_size:st.page_size p))
      (List.sort compare pages);
    st.data.Vfs.truncate (Page.page_offset ~page_size:st.page_size st.sb.Page.n_pages);
    st.data.Vfs.fsync ();
    st.wal.Vfs.truncate Wal.header_size;
    st.wal.Vfs.fsync ();
    st.wal_size <- Wal.header_size;
    Hashtbl.reset st.dirty;
    (* Overlay pages now live on disk; drop them so reads exercise the
       pool again. *)
    Hashtbl.reset st.images;
    st.txns_since_ckpt <- 0;
    update_gauges st;
    Events.emit Events.default "wal.checkpoint"
      [
        ("pages_flushed", Ssd.Json.Int n_flushed);
        ("wal_bytes_dropped", Ssd.Json.Int wal_dropped);
      ]
  end

let commit st g =
  check_open st;
  Metrics.incr m_commits;
  Trace.with_span "store.commit" @@ fun () ->
  let index_names = index_names st in
  maintain_indexes st ~index_names g;
  let dict, segs = encode_version st ~index_names g in
  let dir, n_pages = layout ~page_size:st.page_size segs in
  let lsn = st.sb.Page.next_lsn in
  (* Diff at page granularity: a page is logged if its payload differs
     from the current committed image (or lies past the old end). *)
  let changed = ref [] in
  List.iter2
    (fun (_, payload) (s : Page.seg) ->
      List.iter
        (fun (p, img) ->
          let same =
            p < st.sb.Page.n_pages
            && (try
                  let _, old = Page.unframe ~page_size:st.page_size (page_image st p) in
                  let _, neu = Page.unframe ~page_size:st.page_size img in
                  Bytes.equal old neu
                with B.Corrupt _ -> false)
          in
          if not same then changed := (p, img) :: !changed)
        (seg_pages ~page_size:st.page_size ~lsn ~first:s.Page.first_page payload))
    segs dir;
  let pages = List.sort (fun (a, _) (b, _) -> compare a b) !changed in
  append_txn st ~pages { st.sb with Page.n_pages; segs = dir };
  (* Drop overlay/cache entries past the new end. *)
  let below_end p v = if p >= n_pages then None else Some v in
  Hashtbl.filter_map_inplace below_end st.dirty;
  Hashtbl.filter_map_inplace below_end st.images;
  st.graph <- g;
  st.dict <- dict;
  st.seg_payloads <- segs;
  st.txns_since_ckpt <- st.txns_since_ckpt + 1;
  update_gauges st;
  Events.emit Events.default "wal.commit"
    [
      ("lsn", Ssd.Json.Int lsn);
      ("pages_logged", Ssd.Json.Int (List.length pages));
      ("wal_backlog_bytes", Ssd.Json.Int (st.wal_size - Wal.header_size));
    ];
  if st.txns_since_ckpt >= st.checkpoint_every then checkpoint st

let close st =
  if not st.closed then begin
    (* The clean flag flips durably in the WAL before the data file is
       touched; see the protocol note at the top. *)
    append_txn st ~pages:[] { st.sb with Page.clean = true };
    checkpoint st;
    st.closed <- true;
    st.data.Vfs.close ();
    st.wal.Vfs.close ();
    update_gauges st
  end

let compact st =
  (* Layout is re-derived tightly at every commit, so compaction is
     applying the log and trimming the data file to the live pages. *)
  checkpoint st

(* ------------------------------------------------------------------ *)
(* Accessors                                                           *)
(* ------------------------------------------------------------------ *)

let graph st = st.graph
let recovery st = st.recovery
let page_size st = st.page_size
let path_depth st = st.path_depth
let n_pages st = st.sb.Page.n_pages
let wal_size st = st.wal_size - Wal.header_size
let indexes st = index_names st

(* Canonical bytes of an index segment, for byte-identity checks. *)
let index_segment_bytes st name =
  match name with
  | "value" -> Value_index.to_bytes (value_index st)
  | "text" -> Text_index.to_bytes (text_index st)
  | "path" -> Path_index.to_bytes (path_index st)
  | "guide" -> Dataguide.to_bytes (dataguide st)
  | other -> fail "store: unknown index segment %S" other

type stat = {
  stat_page_size : int;
  stat_n_pages : int;
  stat_wal_bytes : int;
  stat_clean : bool;
  stat_segs : (string * int) list;
  stat_nodes : int;
  stat_edges : int;
}

let stat st =
  {
    stat_page_size = st.page_size;
    stat_n_pages = st.sb.Page.n_pages;
    stat_wal_bytes = st.wal.Vfs.size () - Wal.header_size;
    stat_clean = st.sb.Page.clean;
    stat_segs = List.map (fun (s : Page.seg) -> (s.Page.name, s.Page.byte_len)) st.sb.Page.segs;
    stat_nodes = Graph.n_nodes st.graph;
    stat_edges = Graph.n_edges st.graph;
  }

(* ------------------------------------------------------------------ *)
(* Offline checker (fsck)                                              *)
(* ------------------------------------------------------------------ *)

let diag sev code fmt = Printf.ksprintf (fun msg -> Ssd_diag.make sev ~code msg) fmt

(* Offline structural check; read-only.  Codes:
   SSD560 bad magic/version, SSD561 CRC mismatch, SSD562 torn WAL tail,
   SSD563 dangling page reference, SSD564 malformed segment,
   SSD565 recovery pending (note). *)
let fsck (vfs : Vfs.t) =
  let diags = ref [] in
  let push d = diags := d :: !diags in
  if not (vfs.Vfs.exists data_file) then begin
    push (diag Ssd_diag.Error "SSD560" "fsck: no data file");
    List.rev !diags
  end
  else begin
    let data = vfs.Vfs.open_file data_file in
    let size = data.Vfs.size () in
    let page_size =
      if size < Page.header_size then begin
        push
          (diag Ssd_diag.Error "SSD560" "fsck: data file too short for a header (%d bytes)"
             size);
        None
      end
      else begin
        let hdr = Bytes.create Page.header_size in
        Vfs.really_pread data hdr ~off:0;
        try Some (Page.decode_header hdr)
        with B.Corrupt { offset; expected; found } ->
          push
            (diag Ssd_diag.Error "SSD560" "fsck: bad store header at byte %d: expected %s, found %s"
               offset expected found);
          None
      end
    in
    (match page_size with
    | None -> ()
    | Some page_size -> (
      let read_page p =
        let buf = Bytes.create page_size in
        Vfs.really_pread data buf ~off:(Page.page_offset ~page_size p);
        buf
      in
      match
        (try
           let _, payload = Page.unframe ~page_size ~page_no:0 (read_page 0) in
           Some (Page.decode_superblock payload)
         with B.Corrupt { offset; expected; found } ->
           push
             (diag Ssd_diag.Error "SSD561"
                "fsck: superblock unreadable (byte %d: expected %s, found %s)" offset
                expected found);
           None)
      with
      | None -> ()
      | Some sb ->
        let file_pages = (size - Page.header_size) / page_size in
        if file_pages < sb.Page.n_pages then
          push
            (diag Ssd_diag.Error "SSD563"
               "fsck: superblock declares %d pages but the file holds %d" sb.Page.n_pages
               file_pages);
        (* Per-page CRC sweep over the declared extent. *)
        for p = 1 to min sb.Page.n_pages file_pages - 1 do
          try ignore (Page.unframe ~page_size ~page_no:p (read_page p))
          with B.Corrupt { offset; expected; found } ->
            push
              (diag Ssd_diag.Error "SSD561" "fsck: page %d corrupt (byte %d: expected %s, found %s)"
                 p offset expected found)
        done;
        (* Directory: bounds, then segment content CRC and decode. *)
        let dict = ref [||] in
        List.iter
          (fun (s : Page.seg) ->
            let k = Page.pages_for ~page_size s.Page.byte_len in
            if s.Page.first_page < 1 || s.Page.first_page + k > sb.Page.n_pages then
              push
                (diag Ssd_diag.Error "SSD563"
                   "fsck: segment %S spans pages %d..%d, outside 1..%d" s.Page.name
                   s.Page.first_page
                   (s.Page.first_page + k - 1)
                   (sb.Page.n_pages - 1))
            else begin
              try
                let buf = Buffer.create s.Page.byte_len in
                for i = 0 to k - 1 do
                  let _, payload =
                    Page.unframe ~page_size ~page_no:(s.Page.first_page + i)
                      (read_page (s.Page.first_page + i))
                  in
                  Buffer.add_bytes buf payload
                done;
                let payload = Buffer.to_bytes buf in
                if Bytes.length payload <> s.Page.byte_len then
                  push
                    (diag Ssd_diag.Error "SSD564"
                       "fsck: segment %S holds %d bytes, directory says %d" s.Page.name
                       (Bytes.length payload) s.Page.byte_len)
                else if B.crc32 payload <> s.Page.crc then
                  push
                    (diag Ssd_diag.Error "SSD561"
                       "fsck: segment %S content CRC mismatch (expected %08x, found %08x)"
                       s.Page.name s.Page.crc (B.crc32 payload))
                else begin
                  try
                    match s.Page.name with
                    | "dict" -> dict := Seg.decode_dict payload
                    | "graph" -> ignore (Seg.decode_graph ~dict:!dict payload)
                    | "value" -> ignore (Value_index.of_bytes payload)
                    | "text" -> ignore (Text_index.of_bytes payload)
                    | "path" -> ignore (Path_index.of_bytes payload)
                    | "guide" -> ignore (Dataguide.of_bytes payload)
                    | other ->
                      push
                        (diag Ssd_diag.Warning "SSD564" "fsck: unknown segment %S (%d bytes)"
                           other s.Page.byte_len)
                  with B.Corrupt { offset; expected; found } ->
                    push
                      (diag Ssd_diag.Error "SSD564"
                         "fsck: segment %S malformed at byte %d: expected %s, found %s"
                         s.Page.name offset expected found)
                end
              with B.Corrupt _ ->
                (* Page-level damage already reported by the sweep. *)
                ()
            end)
          sb.Page.segs;
        (* WAL: header, frame scan, tail state. *)
        if not (vfs.Vfs.exists wal_file) then
          push (diag Ssd_diag.Warning "SSD562" "fsck: missing WAL file")
        else begin
          let wal = vfs.Vfs.open_file wal_file in
          let wb = Vfs.read_all wal in
          (try
             let scan = Wal.scan wb in
             if scan.Wal.torn_bytes > 0 then
               push
                 (diag Ssd_diag.Warning "SSD562"
                    "fsck: WAL has a torn tail (%d bytes discarded on recovery)"
                    scan.Wal.torn_bytes);
             if scan.Wal.in_flight > 0 then
               push
                 (diag Ssd_diag.Warning "SSD562"
                    "fsck: WAL ends with %d uncommitted page frames (discarded on recovery)"
                    scan.Wal.in_flight);
             if List.length scan.Wal.txns > 0 then
               push
                 (diag Ssd_diag.Note "SSD565"
                    "fsck: %d committed transactions await recovery (open the store to apply)"
                    (List.length scan.Wal.txns))
             else if sb.Page.clean && scan.Wal.scanned_bytes = 0 && scan.Wal.torn_bytes = 0
             then ()
             else if not sb.Page.clean then
               push
                 (diag Ssd_diag.Note "SSD565"
                    "fsck: store was not closed cleanly (recovery will run on open)")
           with B.Corrupt { offset; expected; found } ->
             push
               (diag Ssd_diag.Error "SSD560"
                  "fsck: bad WAL header at byte %d: expected %s, found %s" offset expected
                  found));
          wal.Vfs.close ()
        end));
    data.Vfs.close ();
    List.rev !diags
  end
