(* The persistent store: segment codecs, page frames, WAL scan,
   cold-open byte-identity, recovery after an unclean stop, and the
   stable fsck codes.  The seeded crash schedules live in the separate
   [crash_fuzz] executable; these are the deterministic unit cases. *)

module Graph = Ssd.Graph
module Label = Ssd.Label
module B = Ssd_storage.Bytesio
module Disk = Ssd_fault.Disk
module Vfs = Ssd_store.Vfs
module Page = Ssd_store.Page
module Wal = Ssd_store.Wal
module Seg = Ssd_storage.Seg
module Store = Ssd_store.Store
module Metrics = Ssd_obs.Metrics

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let fig1 () = Ssd_workload.Movies.figure1 ()
let movies n = Ssd_workload.Movies.generate ~seed:7 ~n_entries:n ()

(* ------------------------------------------------------------------ *)
(* Codecs                                                              *)
(* ------------------------------------------------------------------ *)

let seg_roundtrip () =
  let g = fig1 () in
  let dict = Seg.dict_of_graph g in
  let dict' = Seg.decode_dict (Seg.encode_dict dict) in
  check "dict round-trip" true (dict = dict');
  let gb = Seg.encode_graph ~dict g in
  let g' = Seg.decode_graph ~dict:dict' gb in
  check_int "nodes" (Graph.n_nodes g) (Graph.n_nodes g');
  check_int "edges" (Graph.n_edges g) (Graph.n_edges g');
  check_int "root" (Graph.root g) (Graph.root g');
  check "same value" true (Ssd.Bisim.equal g g');
  (* Canonical: re-encoding the decode is byte-identical. *)
  check "canonical bytes" true (Bytes.equal gb (Seg.encode_graph ~dict:dict' g'))

let superblock_roundtrip () =
  let sb =
    {
      Page.clean = false;
      next_lsn = 42;
      n_pages = 17;
      path_depth = 5;
      segs =
        [
          { Page.name = "dict"; first_page = 1; byte_len = 100; crc = 0xDEAD };
          { Page.name = "graph"; first_page = 2; byte_len = 999; crc = 0xBEEF };
        ];
    }
  in
  check "superblock round-trip" true (Page.decode_superblock (Page.encode_superblock sb) = sb)

let page_frame () =
  let page_size = 256 in
  let payload = Bytes.of_string "some page payload" in
  let framed = Page.frame ~page_size ~lsn:9 payload in
  check_int "framed to page size" page_size (Bytes.length framed);
  let lsn, payload' = Page.unframe ~page_size framed in
  check_int "lsn survives" 9 lsn;
  check "payload survives" true (Bytes.equal payload payload');
  (* Any flipped bit must be caught by the CRC. *)
  let stomped = Bytes.copy framed in
  Bytes.set stomped 40 (Char.chr (Char.code (Bytes.get stomped 40) lxor 1));
  (match Page.unframe ~page_size stomped with
  | exception B.Corrupt _ -> ()
  | _ -> Alcotest.fail "flipped bit accepted");
  match Page.unframe ~page_size (Bytes.make page_size '\000') with
  | exception B.Corrupt _ -> ()
  | _ -> Alcotest.fail "zero page accepted"

let wal_scan () =
  let sb_page b = Bytes.of_string ("sb" ^ b) in
  let buf = Buffer.create 256 in
  Buffer.add_bytes buf (Wal.encode_header ());
  (* txn 1: two pages + commit; txn 2: one page + commit. *)
  Buffer.add_bytes buf (Wal.encode_frame ~typ:Wal.t_page ~lsn:1 ~arg:3 (Bytes.of_string "p3"));
  Buffer.add_bytes buf (Wal.encode_frame ~typ:Wal.t_page ~lsn:1 ~arg:5 (Bytes.of_string "p5"));
  Buffer.add_bytes buf (Wal.encode_frame ~typ:Wal.t_commit ~lsn:1 ~arg:0 (sb_page "1"));
  Buffer.add_bytes buf (Wal.encode_frame ~typ:Wal.t_page ~lsn:2 ~arg:3 (Bytes.of_string "p3'"));
  Buffer.add_bytes buf (Wal.encode_frame ~typ:Wal.t_commit ~lsn:2 ~arg:0 (sb_page "2"));
  (* an in-flight txn 3 whose commit frame is torn off mid-way; its page
     frame is valid, so it still counts as scanned *)
  let in_flight = Wal.encode_frame ~typ:Wal.t_page ~lsn:3 ~arg:8 (Bytes.of_string "p8") in
  let scanned = Buffer.length buf - Wal.header_size + Bytes.length in_flight in
  Buffer.add_bytes buf in_flight;
  let torn = Wal.encode_frame ~typ:Wal.t_commit ~lsn:3 ~arg:0 (sb_page "3") in
  Buffer.add_bytes buf (Bytes.sub torn 0 (Bytes.length torn - 5));
  let scan = Wal.scan (Buffer.to_bytes buf) in
  check_int "two committed txns" 2 (List.length scan.Wal.txns);
  check_int "valid frames scanned" scanned scan.Wal.scanned_bytes;
  check "tail discarded" true (scan.Wal.torn_bytes > 0);
  check_int "in-flight pages dropped" 1 scan.Wal.in_flight;
  let t1 = List.hd scan.Wal.txns and t2 = List.nth scan.Wal.txns 1 in
  check_int "txn order" 1 t1.Wal.txn_lsn;
  check "txn pages" true
    (List.map fst t1.Wal.pages = [ 3; 5 ] && List.map fst t2.Wal.pages = [ 3 ]);
  check "commit carries the superblock" true (Bytes.equal t2.Wal.sb_page (sb_page "2"))

(* ------------------------------------------------------------------ *)
(* Store lifecycle (fault-free, in-memory VFS)                         *)
(* ------------------------------------------------------------------ *)

let new_mem () = Vfs.mem_create Disk.none

let cold_open () =
  let g = movies 20 in
  let _mem, vfs = new_mem () in
  let st = Store.create ~page_size:512 vfs g in
  let fp = Store.fingerprint st in
  check_int "create fingerprint matches the oracle" (Store.fingerprint_graph g) fp;
  Store.close st;
  let st = Store.open_ vfs in
  check "clean open skips recovery" true (Store.recovery st).Store.was_clean;
  check_int "fingerprint survives" fp (Store.fingerprint st);
  check "graph survives" true (Ssd.Bisim.equal g (Store.graph st));
  (* Indexes come off the checkpointed segments, not a rebuild. *)
  let builds = Metrics.counter "index.value.builds" in
  let before = Metrics.value builds in
  let ix = Store.value_index st in
  check_int "cold open rebuilds nothing" before (Metrics.value builds);
  check "index answers" true
    (Ssd_index.Value_index.find_nodes ix (Label.sym "movie") <> []);
  (* Every checkpointed index segment is byte-identical to a fresh
     canonical build on the same graph. *)
  let oracle = function
    | "value" -> Ssd_index.Value_index.(to_bytes (build g))
    | "text" -> Ssd_index.Text_index.(to_bytes (build g))
    | "path" -> Ssd_index.Path_index.(to_bytes (build ~depth:3 g))
    | "guide" -> Ssd_schema.Dataguide.(to_bytes (build g))
    | _ -> assert false
  in
  List.iter
    (fun name ->
      check (name ^ " segment canonical") true
        (Bytes.equal (Store.index_segment_bytes st name) (oracle name)))
    (Store.indexes st);
  Store.close st

let commit_visibility () =
  let g1 = movies 5 and g2 = movies 9 in
  let _mem, vfs = new_mem () in
  let st = Store.create ~page_size:512 vfs g1 in
  Store.commit st g2;
  check "commit replaces the graph" true (Ssd.Bisim.equal g2 (Store.graph st));
  check_int "fingerprint tracks the commit" (Store.fingerprint_graph g2) (Store.fingerprint st);
  Store.close st;
  let st = Store.open_ vfs in
  check "committed version survives close/open" true (Ssd.Bisim.equal g2 (Store.graph st));
  Store.close st

let kill9_recovery () =
  let g1 = movies 5 and g2 = movies 9 in
  let mem, vfs = new_mem () in
  let st = Store.create ~page_size:512 vfs g1 in
  Store.commit st g2;
  (* kill -9: no close, no checkpoint — reopen from the surviving bytes *)
  let images = Vfs.crash_images mem in
  let _mem2, vfs2 = Vfs.mem_create ~images Disk.none in
  let st2 = Store.open_ vfs2 in
  let r = Store.recovery st2 in
  check "unclean stop needs recovery" true (not r.Store.was_clean);
  check "replays the committed txns" true (r.Store.recovered_txns >= 1);
  check_int "acked commit survives kill -9" (Store.fingerprint_graph g2) (Store.fingerprint st2);
  (* Recovery is idempotent: a second open from the same images agrees. *)
  let _mem3, vfs3 = Vfs.mem_create ~images:(Vfs.crash_images mem) Disk.none in
  let st3 = Store.open_ vfs3 in
  check_int "recovery is deterministic" (Store.fingerprint st2) (Store.fingerprint st3);
  Store.close st2;
  check "close after recovery goes clean" true
    (Store.recovery (Store.open_ vfs2)).Store.was_clean

let compact_preserves () =
  let g1 = movies 12 and g2 = movies 4 in
  let _mem, vfs = new_mem () in
  let st = Store.create ~page_size:512 vfs g1 in
  Store.commit st g2;
  let fp = Store.fingerprint st in
  let wal_before = Store.wal_size st in
  check "commits grow the wal" true (wal_before > 0);
  Store.compact st;
  check_int "compact preserves content" fp (Store.fingerprint st);
  check_int "compact empties the wal" 0 (Store.wal_size st);
  check "shrinking commit reclaims pages" true (Store.n_pages st > 0);
  Store.close st;
  let st = Store.open_ vfs in
  check_int "compacted store reopens identical" fp (Store.fingerprint st);
  Store.close st

(* ------------------------------------------------------------------ *)
(* fsck: the stable SSD56x codes                                       *)
(* ------------------------------------------------------------------ *)

let images_of_clean_store () =
  let mem, vfs = new_mem () in
  let st = Store.create ~page_size:256 vfs (movies 6) in
  Store.commit st (movies 8);
  Store.close st;
  Vfs.crash_images mem

let fsck_with images = Store.fsck (snd (Vfs.mem_create ~images Disk.none))
let has_code c diags = List.exists (fun d -> d.Ssd_diag.code = c) diags

let mutate images name f =
  List.map (fun (n, b) -> if n = name then (n, f (Bytes.copy b)) else (n, b)) images

let fsck_codes () =
  let images = images_of_clean_store () in
  check "clean store fscks clean" true (fsck_with images = []);
  (* SSD560: bad magic *)
  let bad_magic =
    mutate images "data" (fun b ->
        Bytes.blit_string "XXXX" 0 b 0 4;
        b)
  in
  check "SSD560 bad magic" true (has_code "SSD560" (fsck_with bad_magic));
  (* SSD561: a stomped byte inside page 1's frame *)
  let stomped =
    mutate images "data" (fun b ->
        let off = Page.page_offset ~page_size:256 1 + 37 in
        Bytes.set b off (Char.chr (Char.code (Bytes.get b off) lxor 0x10));
        b)
  in
  check "SSD561 crc mismatch" true (has_code "SSD561" (fsck_with stomped));
  (* SSD562: a torn frame left on the wal tail *)
  let torn =
    mutate images "wal" (fun b ->
        let junk = Wal.encode_frame ~typ:Wal.t_page ~lsn:99 ~arg:1 (Bytes.of_string "x") in
        Bytes.cat b (Bytes.sub junk 0 (Bytes.length junk - 3)))
  in
  check "SSD562 torn wal tail" true (has_code "SSD562" (fsck_with torn));
  (* SSD563: the directory points past the end of a truncated file *)
  let truncated = mutate images "data" (fun b -> Bytes.sub b 0 (Bytes.length b - 300)) in
  check "SSD563 dangling pages" true (has_code "SSD563" (fsck_with truncated));
  (* SSD565: store left open (kill -9), recovery pending *)
  let mem, vfs = new_mem () in
  let st = Store.create ~page_size:256 vfs (movies 6) in
  Store.commit st (movies 8);
  let unclean = Vfs.crash_images mem in
  check "SSD565 recovery pending" true (has_code "SSD565" (fsck_with unclean));
  check "fsck is read-only on pending recovery" true
    (Store.fingerprint_graph (movies 8)
    = Store.fingerprint (Store.open_ (snd (Vfs.mem_create ~images:unclean Disk.none))))

let tests =
  [
    Alcotest.test_case "segment codec round-trip" `Quick seg_roundtrip;
    Alcotest.test_case "superblock round-trip" `Quick superblock_roundtrip;
    Alcotest.test_case "page frame CRC" `Quick page_frame;
    Alcotest.test_case "wal scan and torn tail" `Quick wal_scan;
    Alcotest.test_case "cold open is byte-identical" `Quick cold_open;
    Alcotest.test_case "commit visibility" `Quick commit_visibility;
    Alcotest.test_case "kill -9 recovery" `Quick kill9_recovery;
    Alcotest.test_case "compact preserves content" `Quick compact_preserves;
    Alcotest.test_case "fsck stable codes" `Quick fsck_codes;
  ]
