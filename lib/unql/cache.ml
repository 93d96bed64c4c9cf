module Graph = Ssd.Graph
module Label = Ssd.Label
module Metrics = Ssd_obs.Metrics
module Trace = Ssd_obs.Trace

let m_hits = Metrics.counter "unql.cache.hits"
let m_misses = Metrics.counter "unql.cache.misses"
let m_evictions = Metrics.counter "unql.cache.evictions"
let m_invalidations = Metrics.counter "unql.cache.invalidations"
let m_plan_hits = Metrics.counter "unql.cache.plan_hits"
let m_plan_misses = Metrics.counter "unql.cache.plan_misses"
let m_revalidated = Metrics.counter "incr.cache.revalidated"
let m_reval_dropped = Metrics.counter "incr.cache.dropped"

(* ------------------------------------------------------------------ *)
(* Graph fingerprints                                                  *)
(* ------------------------------------------------------------------ *)

(* FNV-1a-style mixing over the canonical edge listing.  [fold_edges]
   visits nodes in id order and edges in insertion order, both fixed for
   an immutable graph, so the fingerprint is a pure function of the
   graph value. *)
let mix h x = (h * 0x01000193) lxor (x land max_int)

let compute_fingerprint g =
  let h = ref (mix (mix 0x811c9dc5 (Graph.n_nodes g)) (Graph.root g)) in
  Graph.fold_edges
    (fun () u l v ->
      let lh = match l with Graph.Eps -> 17 | Graph.Lab l -> Label.hash l in
      h := mix (mix (mix !h u) lh) v)
    () g;
  !h land max_int

(* Fingerprints are O(edges); repeated queries against one resident
   database are the common case, so memoize the last few graphs by
   physical identity.  Concurrent domains share the memo; a racing
   insert may lose to another (last writer wins), which only costs a
   recomputation later. *)
let fp_memo : (Graph.t * int) list Atomic.t = Atomic.make []
let fp_memo_capacity = 8

let fingerprint g =
  let memo = Atomic.get fp_memo in
  match List.find_opt (fun (g0, _) -> g0 == g) memo with
  | Some (_, fp) -> fp
  | None ->
    let fp = compute_fingerprint g in
    let keep = List.filteri (fun i _ -> i < fp_memo_capacity - 1) memo in
    Atomic.set fp_memo ((g, fp) :: keep);
    fp

(* ------------------------------------------------------------------ *)
(* The cache                                                           *)
(* ------------------------------------------------------------------ *)

type key = {
  qtext : string; (* canonical rendering of the normalized AST *)
  fp : int;
}

type entry = {
  result : Graph.t;
  mutable tick : int; (* last use; larger = more recent *)
}

type t = {
  cache_capacity : int;
  table : (key, entry) Hashtbl.t;
  plans : (key, Ast.expr) Hashtbl.t;
      (* chosen plans, same key space; bounded by cache_capacity with
         drop-all overflow (plans are cheap to recompute, a planned AST
         holds no graph data) *)
  mutable clock : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable invalidations : int;
}

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  invalidations : int;
  size : int;
}

let create ?(capacity = 128) () =
  {
    cache_capacity = max 1 capacity;
    table = Hashtbl.create 64;
    plans = Hashtbl.create 64;
    clock = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
    invalidations = 0;
  }

let shared = create ()

let capacity c = c.cache_capacity

let stats (c : t) : stats =
  {
    hits = c.hits;
    misses = c.misses;
    evictions = c.evictions;
    invalidations = c.invalidations;
    size = Hashtbl.length c.table;
  }

let drop_invalidated (c : t) n =
  c.invalidations <- c.invalidations + n;
  Metrics.add m_invalidations n

let clear c =
  let n = Hashtbl.length c.table in
  Hashtbl.reset c.table;
  Hashtbl.reset c.plans;
  drop_invalidated c n

let invalidate c db =
  let fp = fingerprint db in
  let doomed =
    Hashtbl.fold (fun k _ acc -> if k.fp = fp then k :: acc else acc) c.table []
  in
  List.iter (Hashtbl.remove c.table) doomed;
  (* Plans depend on the statistics of the same graph: drop them too. *)
  let doomed_plans =
    Hashtbl.fold (fun k _ acc -> if k.fp = fp then k :: acc else acc) c.plans []
  in
  List.iter (Hashtbl.remove c.plans) doomed_plans;
  let n = List.length doomed in
  drop_invalidated c n;
  n

(* Delta-driven revalidation: instead of dropping every entry of the
   superseded graph wholesale, the caller proves some queries untouched
   (label-footprint disjoint from the update's delta, see {!Footprint})
   and those entries are re-keyed to the new fingerprint — the cached
   result is still the right answer.  Plans move with them: a kept
   query only reads labels the delta did not touch, so the statistics
   its plan was chosen under are unchanged too. *)
let revalidate c ~old_db ~new_db ~keep =
  let old_fp = fingerprint old_db in
  let new_fp = fingerprint new_db in
  if old_fp = new_fp then (0, 0)
  else begin
    let moved =
      Hashtbl.fold
        (fun k e acc -> if k.fp = old_fp then (k, e) :: acc else acc)
        c.table []
    in
    let kept = ref 0 and dropped = ref 0 in
    List.iter
      (fun ((k : key), e) ->
        Hashtbl.remove c.table k;
        if keep k.qtext then begin
          incr kept;
          Hashtbl.replace c.table { k with fp = new_fp } e
        end
        else incr dropped)
      moved;
    let plans =
      Hashtbl.fold
        (fun k p acc -> if k.fp = old_fp then (k, p) :: acc else acc)
        c.plans []
    in
    List.iter
      (fun ((k : key), p) ->
        Hashtbl.remove c.plans k;
        if keep k.qtext then Hashtbl.replace c.plans { k with fp = new_fp } p)
      plans;
    drop_invalidated c !dropped;
    Metrics.add m_revalidated !kept;
    Metrics.add m_reval_dropped !dropped;
    (!kept, !dropped)
  end

let touch c e =
  c.clock <- c.clock + 1;
  e.tick <- c.clock

(* Capacity is small (default 128), so LRU eviction by linear scan is
   cheaper than maintaining an intrusive list. *)
let evict_lru c =
  let victim =
    Hashtbl.fold
      (fun k e acc ->
        match acc with
        | Some (_, e0) when e0.tick <= e.tick -> acc
        | _ -> Some (k, e))
      c.table None
  in
  match victim with
  | Some (k, _) ->
    Hashtbl.remove c.table k;
    c.evictions <- c.evictions + 1;
    Metrics.incr m_evictions
  | None -> ()

(* The query half of the cache key, FNV-1a over the canonical rendering
   of the normalized AST.  Shared with the lint pass: [ssdql check] and
   the cache report the same fingerprint for the same query. *)
let query_text q = Pretty.expr_to_string (Optimize.reorder q)

let query_fingerprint q =
  let s = query_text q in
  let h = ref 0x811c9dc5 in
  String.iter (fun c -> h := mix !h (Char.code c)) s;
  !h land max_int

let key_of ~db q = { qtext = query_text q; fp = fingerprint db }

(* Lookup and insertion halves of [eval], exposed separately so a caller
   that owns its own lock (the query server shares one cache across
   concurrent clients) can consult the cache under the lock but run the
   miss evaluation outside it.  Counting matches [eval]: a [find] is a
   hit or a miss; [add] only evicts/inserts. *)
let find cache ~db q =
  let key = Trace.with_span "unql.cache.key" (fun () -> key_of ~db q) in
  match Hashtbl.find_opt cache.table key with
  | Some e ->
    touch cache e;
    cache.hits <- cache.hits + 1;
    Metrics.incr m_hits;
    Trace.bump "cache_hits" 1;
    Some e.result
  | None ->
    cache.misses <- cache.misses + 1;
    Metrics.incr m_misses;
    Trace.bump "cache_misses" 1;
    None

let add cache ~db q result =
  let key = key_of ~db q in
  if not (Hashtbl.mem cache.table key) then begin
    if Hashtbl.length cache.table >= cache.cache_capacity then evict_lru cache;
    let e = { result; tick = 0 } in
    touch cache e;
    Hashtbl.replace cache.table key e
  end

(* ------------------------------------------------------------------ *)
(* Plan cache                                                          *)
(* ------------------------------------------------------------------ *)

(* Chosen plans are keyed exactly like results: (normalized query text,
   graph fingerprint).  The result key's normalization is [reorder] only
   — planned generator orders must NOT leak into [query_text], or a
   planner change would silently split the result cache. *)
let find_plan cache ~db q =
  let key = key_of ~db q in
  match Hashtbl.find_opt cache.plans key with
  | Some planned ->
    Metrics.incr m_plan_hits;
    Some planned
  | None ->
    Metrics.incr m_plan_misses;
    None

let add_plan cache ~db q planned =
  let key = key_of ~db q in
  if not (Hashtbl.mem cache.plans key) then begin
    if Hashtbl.length cache.plans >= cache.cache_capacity then
      Hashtbl.reset cache.plans;
    Hashtbl.replace cache.plans key planned
  end

(* Find-or-compute the cost-based rewrite of [q] for [db] under the
   annotated guide. *)
let planned cache ~db ~annotated q =
  match find_plan cache ~db q with
  | Some p -> p
  | None ->
    let p =
      Trace.with_span "unql.cache.plan" (fun () ->
          Optimize.reorder_generators annotated q)
    in
    add_plan cache ~db q p;
    p

let eval ?(options = Eval.default_options) ~cache ~db q =
  match find cache ~db q with
  | Some result -> result
  | None ->
    let result =
      Trace.with_span "unql.cache.fill" (fun () -> Eval.eval ~options ~db q)
    in
    add cache ~db q result;
    result

let run ?options ~cache ~db src = eval ?options ~cache ~db (Parser.parse src)
