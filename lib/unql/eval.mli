(** Evaluation of UnQL queries over a data graph.

    The two computational components of section 3:

    - {e horizontal}: select–where comprehensions are evaluated by
      enumerating edges of the nodes a pattern reaches; regular path
      steps use the graph × automaton product, so arbitrary-depth path
      constraints terminate on cyclic data;
    - {e vertical}: structural recursion ([sfun]) is evaluated with bulk
      semantics — one result node per (function, input node) pair, bodies
      evaluated once per input {e edge}, recursive occurrences wired to
      the (possibly not yet populated) result node of the subtree.  This
      is what makes [rec] well-defined on cycles: no unfolding ever
      happens.

    Restrictions (checked, raising {!Ssd_diag.Fail} SSD306/307/308/309):
    - recursive calls inside an [sfun] body apply the function to the
      case's tree variable only;
    - [sfun] bodies are closed: their only free value variables are the
      case bindings (other [sfun]s are visible).  This keeps results
      independent of the calling environment and makes per-function
      memoization sound. *)

(** Runtime failures raise {!Ssd_diag.Fail} whose [code] matches the
    static analyzer's prediction for the same defect (SSD303 unbound
    variable, SSD304 label/tree conflict, SSD305 unknown function). *)

type options = {
  reorder_clauses : bool;
      (** push [where] conditions to the earliest point their variables
          are bound (see {!Optimize.reorder}); applied before evaluation *)
  cache_nfa : bool;
      (** compile each regular path expression to an NFA once per query
          rather than once per use *)
  dataguide : Ssd_schema.Dataguide.t option;
      (** when set, literal-path generators rooted at [DB] are answered
          from the guide's target sets instead of by traversal *)
  path_index : Ssd_index.Path_index.t option;
      (** when set, literal-path generators rooted at [DB] within the
          index's depth are answered by one index probe (preferred over
          the guide walk); deeper paths fall back to guide or scan *)
}

val default_options : options

(** [eval ?options ?budget ~db q] runs [q] with [DB] bound to [db] and
    returns the result graph (already garbage-collected).

    When a {!Ssd.Budget} is supplied, evaluation consumes it at generator
    positions only — automaton frontier expansion, pattern-step
    enumeration, structural-recursion queue pops — and {e never} while
    deciding a [where]/[if] condition.  On exhaustion the generators stop
    producing further bindings, so the result is a sound lower bound of
    the complete answer (the partial result graph is simulated by the
    complete one); no exception is raised.  Use {!eval_outcome} to learn
    whether the budget ran out. *)
val eval : ?options:options -> ?budget:Ssd.Budget.t -> db:Ssd.Graph.t -> Ast.expr -> Ssd.Graph.t

(** [eval] plus the completeness verdict: [Complete g] when the budget
    survived, [Partial (g, why)] when it ran out ([g] still a sound
    lower bound). *)
val eval_outcome :
  ?options:options ->
  budget:Ssd.Budget.t ->
  db:Ssd.Graph.t ->
  Ast.expr ->
  Ssd.Graph.t Ssd.Budget.outcome

(** [eval] followed by tree extraction.
    @raise Ssd.Graph.Cyclic if the result is cyclic. *)
val eval_tree :
  ?options:options -> ?budget:Ssd.Budget.t -> db:Ssd.Graph.t -> Ast.expr -> Ssd.Tree.t

(** Parse and evaluate concrete syntax (see {!Parser}). *)
val run :
  ?options:options -> ?budget:Ssd.Budget.t -> db:Ssd.Graph.t -> string -> Ssd.Graph.t
