(** Stratified datalog with semi-naive evaluation — the "graph datalog" of
    section 3.

    Some forms of unbounded search (arbitrary-depth paths, transitive
    closure, reachability "from a given root by forward traversal") are
    not expressible in plain relational algebra; the paper points to
    recursive rule languages over the triple encoding.  This engine
    evaluates such programs over an extensional database of
    {!Ssd.Label.t} tuples, typically {!Triple.edb}.

    Concrete syntax:
    {v
      reach(?X)      :- root(?X).
      reach(?Y)      :- reach(?X), edge(?X, ?L, ?Y).
      movie(?M)      :- edge(?E, Movie, ?M).
      bigint(?N)     :- reach(?X), edge(?X, ?N, ?Y), ?N > 65536.
      nonmovie(?X)   :- reach(?X), not movie(?X).
    v}

    Variables are [?name] ([_] is a fresh anonymous variable), constants
    are label literals (bare identifiers are symbols), [not] is stratified
    negation, and infix comparisons [= != < <= > >=] are built-in
    predicates over bound terms. *)

type term =
  | Var of string
  | Const of Ssd.Label.t

type atom = {
  pred : string;
  args : term list;
}

type cmp =
  | Eq
  | Neq
  | Lt
  | Le
  | Gt
  | Ge

type literal =
  | Pos of atom
  | Neg of atom
  | Cmp of cmp * term * term

type rule = {
  head : atom;
  body : literal list;
}

type program = rule list

(** Parses a program; [%] and [#] start comments.  A syntax error raises
    {!Ssd_diag.Fail} with code SSD003 and the span of the failing
    offset. *)
val parse : string -> program
val pp_rule : Format.formatter -> rule -> unit
val pp_program : Format.formatter -> program -> unit

(** An extensional database: predicate name to tuples, frozen.  It is
    immutable once built, read in place by every evaluation, safe to
    share across concurrent evaluations and domains, and compact (column
    arrays, one row-id array per position and value, [Int] labels
    interned).  The server builds one per published snapshot. *)
type edb

(** [edb_of_list preds] freezes a literal EDB; a predicate listed twice
    is the union of its entries.  {!Triple.edb} builds a graph's. *)
val edb_of_list : (string * Ssd.Label.t list list) list -> edb

(** [eval ?budget ~edb program] computes the least fixpoint (per stratum,
    semi-naive within strata) and returns all derived predicates with
    their tuples.  A rule whose head names an [edb] predicate derives
    into a private copy; [edb] itself is never modified.

    A {!Ssd.Budget} is consumed per rule firing and per derived tuple.
    On exhaustion the fixpoint stops and the facts accumulated so far are
    returned — a sound lower bound of the least model: completed strata
    are exact (so negation was decided correctly), and the interrupted
    stratum is monotone.
    @raise Ssd_diag.Fail on an unsafe program (SSD201/202/203, the codes
    {!Ssd_lint} reports) or one that is not stratifiable (SSD210). *)
val eval : ?budget:Ssd.Budget.t -> edb:edb -> program -> (string * Ssd.Label.t list list) list

(** [eval] plus the completeness verdict (see {!Ssd.Budget.outcome}). *)
val eval_outcome :
  budget:Ssd.Budget.t ->
  edb:edb ->
  program ->
  (string * Ssd.Label.t list list) list Ssd.Budget.outcome

(** [query ~edb program pred] is the tuple set of one predicate (empty if
    never derived). *)
val query : edb:edb -> program -> string -> Ssd.Label.t list list

(** Naive (full re-derivation) fixpoint — the reference implementation the
    tests compare {!eval} against.  It copies [edb] into mutable sets
    first, so it shares no join path with {!eval}. *)
val eval_naive : edb:edb -> program -> (string * Ssd.Label.t list list) list

(** Number of strata the program splits into. *)
val n_strata : program -> int

(** {2 Incremental maintenance}

    A retained least model that can absorb EDB {e insertions} without
    recomputation from scratch — the relational half of the delta
    pipeline (lib/incr): a monotone graph update turns into new [edge]
    / [root] triples, and a subscription's datalog program re-derives
    only what those new triples entail. *)
module Incremental : sig
  type state

  (** Insertion-only maintenance is exact only for monotone programs:
      negation can retract conclusions when facts arrive, so programs
      with [not] are rejected (comparisons are fine — they filter a
      single tuple, monotonically). *)
  val supported : program -> bool

  (** Evaluate [program] over [edb] and retain the full model.  The state
      reads [edb] in place and keeps it by reference, never modified.
      @raise Ssd_diag.Fail on safety violations, or (code SSD213) if the
      program is not {!supported}. *)
  val prepare : edb:edb -> program -> state

  (** All derived predicates of the retained model, as {!eval} would
      return them (tuple order may differ; content is equal). *)
  val result : state -> (string * Ssd.Label.t list list) list

  (** [advance st ~edb_delta] inserts the given extensional tuples into
      the state (already-present tuples are ignored; the prepared [edb]
      is unchanged) and runs semi-naive delta rounds from them.  Returns the {e newly derived} tuples per IDB
      predicate — exactly the difference between the new and old least
      models, since negation-free programs are monotone.  Empty list:
      the update provably changed no derived fact. *)
  val advance :
    state ->
    edb_delta:(string * Ssd.Label.t list list) list ->
    (string * Ssd.Label.t list list) list
end

(** [reorder ~edb program] — statistics-driven join ordering, applied per
    rule: positive body literals are greedily ordered by estimated
    binding count (extensional relation sizes from [edb], discounted per
    already-bound argument position), and each negation or comparison is
    placed at the earliest point its variables are positively bound.
    Safety is preserved by construction.  Opt-in rather than part of
    {!eval}: reordering changes derivation order, so derived tuple
    {e order} (not content) can differ from the syntactic program's. *)
val reorder : edb:edb -> program -> program
