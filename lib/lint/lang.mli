(** The query languages behind one front end — the only module that
    branches on a query's language.

    A request names its language ({!of_string}) and is {!compile}d once;
    the lint gate, the label footprint, the cardinality estimate,
    evaluation and rendering all consume that {!compiled} value instead
    of re-parsing the text.  {!compiled} is a plain variant, so a
    consumer that keys on the UnQL AST (the shared {!Unql.Cache}) or
    on the datalog program (semi-naive subscriptions) can reach it. *)

type t =
  | Unql
  | Lorel
  | Datalog
  | Websql

(** The name table: [unql], [lorel], [datalog], [websql]. *)
val names : (string * t) list

val name : t -> string

(** Raises {!Ssd_diag.Fail} with SSD555 for an unknown name. *)
val of_string : string -> t

(** A parsed query, with the source marks the analyzers turn into
    spans.  WebSQL has no static front end: its parse is deferred to the
    first {!eval}, so a malformed WebSQL query fails there, not in
    {!compile}. *)
type compiled =
  | Unql of Unql.Ast.expr * Unql.Parser.marks
  | Lorel of Lorel.Ast.query * Lorel.Parser.marks
  | Datalog of Relstore.Datalog.program
  | Websql of Websql.Ast.query Lazy.t

(** Parses once, inside a [lang.compile] trace span.  A syntax error
    raises {!Ssd_diag.Fail} with SSD001 (UnQL), SSD002 (Lorel) or SSD003
    (datalog) and counts as one lint check with one error. *)
val compile : t -> string -> compiled

(** {1 Static analysis} *)

type report = {
  diags : Ssd_diag.t list;
  paths_checked : int; (** generators / path expressions traced *)
  dead_paths : int; (** of which provably unsatisfiable *)
  reachable_labels : Ssd.Label.t list;
      (** labels the live products can cross — the statically reachable
          label set {!Unql.Optimize}-style pruning may keep *)
  fingerprint : int option;
      (** {!fingerprint}, filled in by {!Ssd_lint.check_src} only: the
          request path's cache lookup computes its own key *)
}

(** A report of just [diags], counted nowhere. *)
val report_of : Ssd_diag.t list -> report

(** The language's analyzer; [None] for WebSQL, which has none.  Paths
    are checked against [target], else a DataGuide of [db], else not at
    all.  [defined] pre-binds UnQL tree variables (view names).  Counts
    on the [lint.*] metrics. *)
val lint :
  ?db:Ssd.Graph.t ->
  ?target:Lint_unql.target ->
  ?defined:string list ->
  compiled ->
  report option

(** {!Unql.Cache.query_fingerprint} of an UnQL query. *)
val fingerprint : compiled -> int option

(** {!Unql.Footprint.of_expr} for UnQL; ⊤ otherwise. *)
val footprint : compiled -> Unql.Footprint.t

type estimate = {
  card : Lint_card.t;
  plan : string option; (** the planner's generator order (UnQL) *)
}

(** {!Lint_card} over the annotated DataGuide; [declared] (UnQL) also
    checks the inferred result schema (SSD254).  [None] for WebSQL. *)
val estimate :
  ?declared:Ssd_schema.Gschema.t -> Ssd_schema.Annotated.t -> compiled -> estimate option

(** {1 Evaluation} *)

type result =
  | Graph of Ssd.Graph.t (** UnQL, Lorel *)
  | Tuples of (string * Ssd.Label.t list list) list (** datalog *)
  | Relation of Relstore.Relation.t (** WebSQL *)

(** Evaluates under [budget] when given; WebSQL ignores it.  A datalog
    program reads the EDB [edb ()], which must be [db]'s
    {!Relstore.Triple.edb} (the default builds it).  [edb] is called for
    datalog only. *)
val eval :
  ?budget:Ssd.Budget.t ->
  ?edb:(unit -> Relstore.Datalog.edb) ->
  db:Ssd.Graph.t ->
  compiled ->
  result Ssd.Budget.outcome

(** The newline-terminated text the CLI prints and the server frames:
    ssd syntax, a relation table, or [pred: N tuples] blocks. *)
val render : result -> string

(** The root fanout of a graph (explain's and the slow-query log's
    "actual cardinality"); the tuple count otherwise. *)
val rows : result -> int
