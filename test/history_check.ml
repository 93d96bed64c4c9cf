(* Concurrent history checker for the serving engine.

   Every seed drives one engine store, backed by a persistent store on
   an in-memory disk, from three domains at once: one writer sends a
   seeded chain of UPDATEs (some with a failing persist hook, then
   retried) while two readers send seeded QUERYs on their own
   connections.  Each client stamps every invoke and every response
   with a ticket from one shared atomic counter, so "A happened before
   B" is "A's ticket is smaller".  After the domains join, the history
   is checked offline against scratch evaluation:

   - version [k] is the graph after the writer's [k]-th acknowledged
     UPDATE, replayed here with plain [Lorel.Update.run];
   - a read invoked at ticket [i] that returned at ticket [r] must be
     byte-identical to scratch evaluation of its query (UnQL or
     datalog, the latter over a freshly loaded EDB, so the engine's
     per-version frozen EDB is built by whichever read comes first,
     racing across domains) on some version
     [v] with  lo <= v <= hi,  where [lo] counts the UPDATEs acked
     before [i] (no stale answer after an ack) and [hi] counts those
     sent before [r] (no answer from the future, and a failed persist
     is never visible);
   - the versions one connection observes never go backwards (the
     smallest consistent choice is taken greedily, which finds a
     monotone assignment whenever one exists);
   - at the end the STATS engine section reports the last version.

   The seed fixes the graph, the update chain, the failures and every
   reader's query sequence; the interleaving is whatever the scheduler
   makes of it, so a failing seed is replayed by running it again,
   possibly a few times:  history_check --seed S  *)

module Disk = Ssd_fault.Disk
module Vfs = Ssd_store.Vfs
module Store = Ssd_store.Store
module Engine = Ssd_serve.Engine
module Proto = Ssd_serve.Proto
module Graph = Ssd.Graph
module Json = Ssd.Json
module Lang = Ssd_lint.Lang

let n_updates = 12
let n_readers = 2
(* Readers run until the writer is done, with at least this many reads
   each (and at most [max_reads], to bound the history). *)
let min_reads = 20
let max_reads = 20_000
let fail fmt = Printf.ksprintf failwith fmt

(* SplitMix64, the same stream update_fuzz uses. *)
type rng = { mutable s : int64 }

let rng_make seed = { s = Int64.of_int ((seed * 2) + 1) }

let rand r n =
  r.s <- Int64.add r.s 0x9E3779B97F4A7C15L;
  let z = r.s in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.to_int (Int64.logxor z (Int64.shift_right_logical z 31)) land max_int mod n

(* Footprints both disjoint from and overlapping the updates, so reads
   hit revalidated cache entries as well as fresh evaluations; the
   datalog reads share their version's frozen EDB. *)
let queries : (Lang.t * string) array =
  [|
    (Lang.Unql, "select {t: \\T} where {entry.movie.title: \\T} <- DB");
    (Lang.Unql, "select {hit: {}} where {entry.movie.title: _} <- DB");
    (Lang.Unql, "select {z: \\Z} where {annex.zzz.m: \\Z} <- DB");
    (Lang.Unql, "select {d: \\D} where {entry.movie.director: \\D} <- DB");
    (Lang.Unql, "select {kind: \\k} where {entry.\\k: _} <- DB");
    ( Lang.Datalog,
      "t(?T) :- root(?R), edge(?R, entry, ?E), edge(?E, movie, ?M), edge(?M, title, ?A), \
       edge(?A, ?T, _)." );
    ( Lang.Datalog,
      "r(?X) :- root(?X). r(?Y) :- r(?X), edge(?X, ?L, ?Y). \
       z(?V) :- r(?X), edge(?X, zzz, ?Z), edge(?Z, m, ?W), edge(?W, ?V, _)." );
  |]

let update_text rng k =
  match rand rng 7 with
  | 0 | 1 ->
    Printf.sprintf "insert DB := {entry: {movie: {title: \"H%d\", director: \"D%d\"}}}" k k
  | 2 -> Printf.sprintf "insert DB := {annex: {zzz: {m: \"Z%d\"}}}" k
  | 3 -> Printf.sprintf "insert DB.entry := {movie: {title: \"G%d\"}}" k
  | 4 -> "delete DB.annex"
  | 5 -> "rename DB.entry.movie to film"
  | _ -> "rename DB.entry.film to movie"

(* What the CLI prints for a query: UnQL evaluated from scratch, datalog
   over the triples loaded afresh. *)
let render db (lang, text) =
  Lang.render (Ssd.Budget.value (Lang.eval ~db (Lang.compile lang text)))

let req ?(lang : Lang.t = Unql) verb body =
  let opts = { Proto.default_options with Proto.lang = Lang.name lang } in
  Proto.render_request { Proto.verb; opts; body }

(* The seed's update chain: statements that apply to the graph before
   them, and the versions they produce ([versions.(0)] is the base). *)
let chain seed g0 =
  let rng = rng_make seed in
  let texts = ref [] and versions = ref [ g0 ] and k = ref 0 in
  while List.length !texts < n_updates do
    incr k;
    let text = update_text rng !k in
    match Lorel.Update.run ~db:(List.hd !versions) text with
    | exception _ -> ()
    | g ->
      texts := text :: !texts;
      versions := g :: !versions
  done;
  (Array.of_list (List.rev !texts), Array.of_list (List.rev !versions))

type read = {
  qi : int;
  inv : int;
  ret : int;
  body : string;
  status : Proto.status;
}

let run_one seed =
  let g0 = Ssd_workload.Movies.generate ~seed:(9001 + seed) ~n_entries:4 () in
  let texts, versions = chain seed g0 in
  let _mem, vfs = Vfs.mem_create Disk.none in
  let st = Store.create ~page_size:512 ~path_depth:2 vfs g0 in
  let es = Engine.store ~cache_capacity:8 ~db:(Store.graph st) () in
  let fail_persist = Atomic.make false in
  Engine.set_persist es (fun g ->
      (* the in-memory disk has no fsync latency; stand in for it so
         reads land inside the commit window *)
      Unix.sleepf 0.0005;
      if Atomic.get fail_persist then failwith "injected persist failure";
      Store.commit st g);
  let engine = Engine.create es in
  let clock = Atomic.make 0 in
  let tick () = Atomic.fetch_and_add clock 1 in
  let start = Atomic.make false in
  let wait_start () = while not (Atomic.get start) do Domain.cpu_relax () done in
  (* inv.(k-1) / ack.(k-1): tickets around the successful UPDATE k *)
  let inv = Array.make n_updates max_int and ack = Array.make n_updates max_int in
  let writer_done = Atomic.make false in
  let writer () =
    wait_start ();
    Fun.protect ~finally:(fun () -> Atomic.set writer_done true) @@ fun () ->
    let rng = rng_make (seed lxor 0x3c6ef372) in
    Array.iteri
      (fun k text ->
        if rand rng 4 = 0 then begin
          (* a failed attempt: error frame, nothing published *)
          Atomic.set fail_persist true;
          let r, _ = Engine.handle engine (req Proto.Update text) in
          Atomic.set fail_persist false;
          if r.Proto.status <> Proto.Error then
            fail "UPDATE %d with a failing persist hook answered %s" (k + 1)
              (Proto.status_to_string r.Proto.status)
        end;
        inv.(k) <- tick ();
        let r, _ = Engine.handle engine (req Proto.Update text) in
        ack.(k) <- tick ();
        if r.Proto.status <> Proto.Complete then
          fail "UPDATE %d failed: %s %s" (k + 1) r.Proto.detail r.Proto.body;
        let g = versions.(k + 1) in
        let head =
          Printf.sprintf "updated: %d nodes, %d edges;" (Graph.n_nodes g) (Graph.n_edges g)
        in
        if not (String.starts_with ~prefix:head r.Proto.body) then
          fail "UPDATE %d ack %S does not match the replayed version" (k + 1) r.Proto.body)
      texts
  in
  let reader c () =
    wait_start ();
    let rng = rng_make (seed + (1000 * (c + 1))) in
    let rec go n acc =
      if n >= max_reads || (n >= min_reads && Atomic.get writer_done) then List.rev acc
      else begin
        let qi = rand rng (Array.length queries) in
        let inv = tick () in
        let lang, text = queries.(qi) in
        let r, _ = Engine.handle ~conn_id:(c + 1) engine (req ~lang Proto.Query text) in
        let ret = tick () in
        go (n + 1) ({ qi; inv; ret; body = r.Proto.body; status = r.Proto.status } :: acc)
      end
    in
    go 0 []
  in
  let w = Domain.spawn writer in
  let rs = List.init n_readers (fun c -> Domain.spawn (reader c)) in
  Atomic.set start true;
  let histories = List.map Domain.join rs in
  Domain.join w;
  (* offline check *)
  let memo = Hashtbl.create 64 in
  let scratch v qi =
    match Hashtbl.find_opt memo (v, qi) with
    | Some s -> s
    | None ->
      let s = render versions.(v) queries.(qi) in
      Hashtbl.replace memo (v, qi) s;
      s
  in
  let count_before t tickets = Array.fold_left (fun n x -> if x < t then n + 1 else n) 0 tickets in
  List.iteri
    (fun c history ->
      let last = ref 0 in
      List.iteri
        (fun i rd ->
          if rd.status <> Proto.Complete then
            fail "connection %d read %d (%s): status %s" (c + 1) i (snd queries.(rd.qi))
              (Proto.status_to_string rd.status);
          let lo = count_before rd.inv ack and hi = count_before rd.ret inv in
          let fits v = String.equal rd.body (scratch v rd.qi) in
          let rec first v = if v > hi then None else if fits v then Some v else first (v + 1) in
          match first (max lo !last) with
          | Some v -> last := v
          | None ->
            let any = List.filter fits (List.init (hi - lo + 1) (fun d -> lo + d)) in
            fail
              "connection %d read %d (%s): answer matches no version in [%d, %d] at or after \
               version %d last seen on this connection%s"
              (c + 1) i (snd queries.(rd.qi)) lo hi !last
              (match any with
              | [] -> ""
              | vs -> " (it matches " ^ String.concat ", " (List.map string_of_int vs) ^ ")"))
        history)
    histories;
  let stats, _ = Engine.handle engine (req Proto.Stats "") in
  let version =
    match Json.parse stats.Proto.body with
    | Json.Obj fields -> (
      match List.assoc_opt "engine" fields with
      | Some (Json.Obj e) -> List.assoc_opt "version" e
      | _ -> None)
    | _ -> None
  in
  if version <> Some (Json.Int n_updates) then
    fail "STATS engine section does not report version %d" n_updates;
  Store.close st

let () =
  let seeds = ref 200 and first = ref 0 and one = ref None in
  let rec parse = function
    | [] -> ()
    | "--seeds" :: n :: rest ->
      seeds := int_of_string n;
      parse rest
    | "--first" :: n :: rest ->
      first := int_of_string n;
      parse rest
    | "--seed" :: s :: rest ->
      one := Some (int_of_string s);
      parse rest
    | a :: _ -> fail "history_check: unknown argument %S (try --seeds N | --first N | --seed S)" a
  in
  parse (List.tl (Array.to_list Sys.argv));
  let run_checked seed =
    try
      run_one seed;
      true
    with e ->
      Printf.eprintf "history_check: FAILED seed=%d: %s\n  replay with: history_check --seed %d\n%!"
        seed (Printexc.to_string e) seed;
      false
  in
  match !one with
  | Some s -> if run_checked s then print_endline "history_check: seed passed" else exit 1
  | None ->
    let failures = ref 0 in
    for s = !first to !first + !seeds - 1 do
      if not (run_checked s) then incr failures
    done;
    Printf.printf "history_check: %d seeds, %d failures (%d updates, %d readers)\n%!"
      !seeds !failures n_updates n_readers;
    if !failures > 0 then exit 1
