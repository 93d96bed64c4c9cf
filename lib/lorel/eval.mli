(** Evaluation of Lorel queries over an OEM graph.

    Semantics, following the Lorel description in the tutorial:

    - a path expression denotes a {e set of objects} (graph nodes); [%]
      ranges over any one edge, [#] over any path (evaluated with a
      visited set, so cyclic data terminates);
    - [from p X] ranges [X] over the objects [p] denotes;
    - comparisons are {e existentially} quantified over operand object
      sets and {e coercing}: an object compares through its atomic
      values (the base labels on its outgoing leaf edges, or the edge
      label that reaches it when it is a leaf), strings that look like
      numbers compare numerically, and [like] does substring matching
      after string coercion;
    - [select] builds an OEM result: one [row] object per binding of the
      [from] variables that survives [where], with one edge per select
      item (labeled by its alias or last path label) pointing at the
      {e original} object — object identity is preserved, not copied. *)

(** Runtime failures carry a {!Ssd_diag.t}; the code (SSD401) matches
    the static analyzer's report for the same defect. *)
exception Runtime_error of Ssd_diag.t

(** [eval ?budget ~db q] returns the result graph.  It shares no
    structure with [db] physically: it holds a fresh root, the part of
    [db] the selected objects reach (copied from [db] in place, in
    ascending [db] node order) and the rows — node for node what
    garbage-collecting a re-rooted copy of all of [db] would leave, so
    it keeps the OEM sharing described above.

    {b Where placement.}  The [where] condition is split on [and] into
    conjuncts, and each is applied as soon as the last [from] range
    binding one of its variables has been enumerated (a closed conjunct
    before the first range), so later ranges only expand rows that can
    still survive.  Filtering keeps rows in order, so the answer is the
    one a filter after full enumeration gives, row for row.  A conjunct
    naming a variable no range binds stays at the end, as does every
    conjunct after it; and when a range starts from a variable no
    earlier range binds, no conjunct moves, so that range still raises
    SSD401.

    A {!Ssd.Budget} is consumed by the [from] range generators only;
    [where] conditions and [select] item paths are always exact.  An
    exhausted budget therefore drops whole rows, never corrupts one: the
    partial result's rows are a subset of the complete result's.
    Because filtered rows are never expanded, a query with a [where] may
    finish within a budget, or return more rows under it, than it would
    if every range were enumerated first. *)
val eval : ?budget:Ssd.Budget.t -> db:Ssd.Graph.t -> Ast.query -> Ssd.Graph.t

(** [eval] plus the completeness verdict (see {!Ssd.Budget.outcome}). *)
val eval_outcome :
  budget:Ssd.Budget.t -> db:Ssd.Graph.t -> Ast.query -> Ssd.Graph.t Ssd.Budget.outcome

(** Parse and evaluate. *)
val run : ?budget:Ssd.Budget.t -> db:Ssd.Graph.t -> string -> Ssd.Graph.t

(** The object set a path expression denotes, with [X] etc. resolved from
    the given (variable, node) bindings.  Exposed for tests and the CLI.
    With a budget, the set is a (possibly strict) subset of the denoted
    one. *)
val eval_path :
  ?budget:Ssd.Budget.t ->
  db:Ssd.Graph.t ->
  env:(string * int) list ->
  Ast.path ->
  int list

(** Does the condition hold for the given (variable, node) bindings?
    Exposed for tests.
    @raise Runtime_error (SSD401) on a path from an unbound variable. *)
val eval_cond : db:Ssd.Graph.t -> env:(string * int) list -> Ast.cond -> bool

(** Atomic values of an object: base labels of its leaf edges. *)
val values_of : Ssd.Graph.t -> int -> Ssd.Label.t list
