(** The transport-agnostic request engine behind [ssdql serve].

    An {!Engine.t} turns one protocol frame into one protocol response —
    it knows nothing about sockets, so the property suites drive it
    through an in-process transport (plain function calls from
    concurrent domains) and the socket server ({!Server}) is a thin IO
    loop on top.

    {2 Shared state}

    Several engines may serve the same {!store}: the store owns the
    database-of-record, the shared {!Unql.Cache} (plan/result cache
    keyed by normalized query × graph fingerprint — client B hits the
    entry client A warmed), the live subscriptions and the
    admission-control in-flight count.

    The database-of-record is a published {e snapshot}: an immutable
    graph plus its version, the number of [UPDATE]s committed before
    it.  A [QUERY] reads the current snapshot with one atomic load and
    takes no writer lock, so it never waits behind an [UPDATE]'s
    commit.  Each snapshot also memoizes what readers derive from its
    graph: its frozen datalog EDB ({!Relstore.Datalog.edb}),
    built by the first datalog reader of that version — a [QUERY], a
    [SUBSCRIBE], or an [UPDATE] re-preparing datalog subscriptions —
    in a [datalog.base] span counted by [datalog.base.builds], and
    shared by every later one; and the annotated DataGuide behind
    slow-query estimates.  Each is built once, under a mutex held only
    while building; neither is built by UnQL/Lorel traffic or by an
    [UPDATE] that re-prepares no datalog subscription.  Writers
    ([UPDATE], [SUBSCRIBE], [UNSUBSCRIBE] and {!drop_conn}) serialize
    on a writer mutex.  The shared cache has a small mutex of its own,
    held only for single lookups, inserts and revalidations, never
    across evaluation or commit.  The contract:

    - {b snapshot reads}: a query answers from one committed version;
      one that overlaps an [UPDATE] answers from the last committed
      version, never from a half-applied one;
    - {b ack-then-visible}: an [UPDATE] publishes its version after its
      persist hook returned (WAL fsync under [--store]) and before its
      subscription pushes and its acknowledgement;
    - {b no stale answer after an ack}: any request invoked after an
      [UPDATE] was acknowledged sees that version or a later one
      (checked by the concurrent history test).

    The answering version is reported in telemetry (the [serve.request]
    span's [version] attribute, the [slow_query] and [incr.update]
    events, the [STATS] [engine] section); response frames are not
    stamped.

    {2 Admission control and load shedding}

    Each request reports the load it sees: [queued] (frames already
    waiting behind it, supplied by the transport) plus the store-wide
    in-flight count.  Overload degrades in two stages instead of letting
    the queue collapse:

    - load > [pressure_at]: the request is admitted but its step budget
      is clamped to [pressure_max_steps] (tightening any client-supplied
      budget), so it answers quickly with a typed [partial] response — a
      sound lower bound of the complete answer;
    - load > [shed_at]: the request is refused outright with a [shed]
      response carrying SSD554; the client should retry later.

    Every response carries the typed completeness status, and the engine
    never raises: any parse or evaluation failure becomes an [error]
    response (SSD55x).

    {2 Telemetry}

    A [QUERY] or [SUBSCRIBE] body is compiled once
    ({!Ssd_lint.Lang.compile}, one [lang.compile] span under the
    request's [serve.request] span); the lint gate, cache lookup,
    evaluation and slow-query estimate all reuse it.

    Every request bills to a tenant — the [tenant=] option, or
    ["default"] — on labeled counter families
    ([serve.tenant.requests{tenant="…"}], [bytes_in], [bytes_out],
    [steps], [partials], [shed]) in the default {!Ssd_obs.Metrics}
    registry.  Admission decisions ([admission.shed],
    [admission.clamp]), cache invalidations ([cache.invalidate]) and
    queries slower than [slow_query_ms] ([slow_query], with plan and
    est-vs-actual cardinality) emit structured events to
    {!Ssd_obs.Events.default}; [STATS] returns the full registry
    snapshot as JSON and [EVENTS] tails the event ring, so protocol
    clients see exactly what the admin plane serves.

    {2 Live subscriptions}

    [SUBSCRIBE] registers a query (unql or datalog) against the store;
    every committed [UPDATE] then re-checks it and pushes a [delta]
    frame when its result changed (see {!Proto}).  The incremental
    machinery keeps this proportional to the change, not the database:
    updates whose edge delta is label-disjoint from the query's static
    footprint ({!Unql.Footprint}) are skipped without evaluating;
    datalog subscriptions hold a retained model
    ({!Relstore.Datalog.Incremental}) advanced semi-naively from the
    inserted edges on monotone ε-free deltas; and the result cache is
    {e revalidated} ({!Unql.Cache.revalidate}) instead of flushed, so
    footprint-disjoint cached answers survive the update.  Subscription
    activity shows up on the [incr.sub.*] metrics and the
    [incr.subscribe] / [incr.push] / [incr.update] events. *)

type config = {
  max_frame : int; (** frames longer than this are refused (SSD551) *)
  shed_at : int; (** load above this sheds (SSD554) *)
  pressure_at : int; (** load above this clamps budgets -> partial *)
  pressure_max_steps : int; (** the clamped step budget under pressure *)
  slow_query_ms : float;
      (** queries slower than this emit a [slow_query] event carrying
          the plan, the static cardinality estimate vs the actual root
          fanout, and the budget outcome *)
}

(** [max_frame = 65536], [shed_at = 64], [pressure_at = 8],
    [pressure_max_steps = 20_000], [slow_query_ms = 250.]. *)
val default_config : config

(** Shared serving state: database-of-record + shared result cache +
    admission counters. *)
type store

val store : ?cache_capacity:int -> db:Ssd.Graph.t -> unit -> store

(** The current database-of-record: the last published snapshot's
    graph (one atomic load, no lock). *)
val store_db : store -> Ssd.Graph.t

(** Install a durability hook: on every [UPDATE] it is called under the
    writer mutex with the new graph {e before} the snapshot is
    published — if it raises, the database-of-record and cache are
    untouched, no reader ever sees the new graph, and the client gets
    the error.  Used by [ssdql serve --store] to route
    updates through {!Ssd_store.Store.commit} (WAL append + fsync), so
    an acknowledged UPDATE survives [kill -9]. *)
val set_persist : store -> (Ssd.Graph.t -> unit) -> unit

(** The shared cache's counters (hits/misses/invalidations). *)
val cache_stats : store -> Unql.Cache.stats

(** Live subscriptions currently registered on the store. *)
val n_subs : store -> int

type t

val create : ?config:config -> store -> t

val config : t -> config

(** Per-engine counters (each an atomic; a snapshot of them is not
    taken atomically as a whole). *)
type stats = {
  requests : int; (** frames handled, any verb or outcome *)
  accepted : int; (** queries admitted and evaluated *)
  shed : int;
  partial : int;
  errors : int; (** frames answered with status error, any verb *)
  updates : int;
}

val stats : t -> stats

(** [handle t raw] processes one frame ([raw] has no trailing newline)
    and returns the response plus [true] when the connection should
    close afterwards ([QUIT], oversized frame).  [queued] is the
    transport's backlog behind this frame (default 0).  [lane] is the
    trace lane for this request's span (default: the calling domain's
    {!Ssd_obs.Trace.lane}).  Never raises; safe to call from concurrent
    domains.

    [push] makes the connection push-capable: a [SUBSCRIBE] on this
    frame registers a live subscription whose [delta] frames (already
    rendered wire bytes) are delivered through [push] — from whichever
    thread later commits an [UPDATE], so the transport must serialize
    [push] against its own response writes.  Without [push], [SUBSCRIBE]
    answers SSD557.  [conn_id] tags the subscription with its owning
    connection for {!drop_conn}. *)
val handle :
  ?lane:int ->
  ?queued:int ->
  ?push:(string -> unit) ->
  ?conn_id:int ->
  t ->
  string ->
  Proto.response * bool

(** Tear down every subscription owned by [conn_id] (transport calls
    this when the connection closes). *)
val drop_conn : t -> int -> unit

(** {!handle} composed with {!Proto.render_response} (drops the close
    flag) — the one-line in-process transport. *)
val handle_line : ?lane:int -> ?queued:int -> t -> string -> string
