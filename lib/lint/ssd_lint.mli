(** Schema-aware static analysis for the three query languages.

    The analyzer runs before evaluation and reports {!Ssd_diag.t}
    diagnostics with stable [SSDxxx] codes (see {!Ssd_diag.codes}):

    - {e path satisfiability} (SSD10x): each regular path expression in a
      query is compiled to an NFA and intersected with a summary of the
      database — a strong DataGuide or a graph schema; an empty product
      means no data path can ever match, so the generator is dead;
    - {e datalog safety} (SSD2xx): range restriction, negation through
      recursion, unknown predicates, inconsistent arities;
    - {e hygiene} (SSD3xx / SSD40x): unused and shadowed binders, unbound
      variables, marker discipline, and the structural-recursion
      restrictions the evaluator enforces at runtime.

    The hygiene errors over-approximate the evaluators' typed failures:
    a query that lints with zero [Error]-severity diagnostics does not
    raise at evaluation time (property-tested in [test/test_lint.ml]). *)

module Diag = Ssd_diag

(** The per-language analyses, exposed for direct AST-level use. *)
module Unql_lint = Lint_unql

module Lorel_lint = Lint_lorel
module Datalog_lint = Lint_datalog

(** The language front end every consumer compiles through. *)
module Lang = Lang

(** What path expressions are checked against. *)
type target = Lint_unql.target =
  | Guide of Ssd_schema.Dataguide.t
  | Schema of Ssd_schema.Gschema.t

type lang = Lang.t =
  | Unql
  | Lorel
  | Datalog
  | Websql

type report = Lang.report = {
  diags : Diag.t list;
  paths_checked : int;
  dead_paths : int;
  reachable_labels : Ssd.Label.t list;
  fingerprint : int option;
}

val errors : report -> int
val warnings : report -> int

(** [check_src ~lang ?db ?target ?defined src] — {!Lang.compile} then
    {!Lang.lint} (see there), with the report's [fingerprint] filled in.
    A syntax error becomes the report's single SSD001/002/003 diagnostic
    instead of an exception; [Websql] yields an empty report.  Pass
    {!Unql.Views.names} as [defined] to lint a query meant to run under
    a view registry. *)
val check_src :
  lang:lang ->
  ?db:Ssd.Graph.t ->
  ?target:target ->
  ?defined:string list ->
  string ->
  report

(** The cardinality / cost analyzer ({!Lint_card}), exposed for direct
    AST-level use. *)
module Card = Lint_card

(** Marker discipline of an UnCAL value: SSD311 for an output marker with
    no matching input, SSD312 for a non-[&] input never used as an
    output. *)
val check_uncal : Unql.Uncal.t -> Diag.t list

(** [prune target q] replaces every select with a provably dead generator
    by [{}]; returns the rewritten query and the number of selects
    removed.  Sound: a dead generator admits no bindings, so its select
    contributes nothing.  Subsumes guide-based literal-path pruning and
    additionally handles regex and predicate steps. *)
val prune : target -> Unql.Ast.expr -> Unql.Ast.expr * int
