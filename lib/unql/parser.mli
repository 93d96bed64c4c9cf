(** Parser for the UnQL concrete syntax.

    {v
      expr    ::= "select" expr "where" clause ("," clause)*
                | "let" "sfun" case ("|" case)* "in" expr
                | "let" IDENT "=" expr "in" expr
                | "if" cond "then" expr "else" expr
                | prim ("union" prim)*
      prim    ::= "{" [entry ("," entry)*] "}"      constructor
                | IDENT "(" expr ")"                sfun application
                | "DB" | IDENT                      database / variable
                | STRING | INT | BOOL               leaf {lit: {}}
                | "(" expr ")"
      entry   ::= labelpos [":" expr]               bare label = leaf
      labelpos::= IDENT | STRING | INT | BOOL       IDENT resolves to a
                                                    label var when bound
      clause  ::= pattern "<-" expr | cond
      pattern ::= backslash IDENT | "_"
                | "{" [pentry ("," pentry)*] "}"
      pentry  ::= steps [":" pattern]               no pattern = _
      steps   ::= step ("." step)*
      step    ::= backslash IDENT                         bind edge label
                | "<" regex ">"                     regular path (Regex)
                | label literal or predicate        one edge
      cond    ::= cond ("or"|"and") cond | "not" cond | "(" cond ")"
                | "isempty" "(" expr ")" | "equal" "(" expr "," expr ")"
                | "isint"/"isfloat"/"isstring"/"isbool"/"issymbol" "(" atom ")"
                | "startswith"/"contains" "(" atom "," STRING ")"
                | atom ("="|"!="|"<"|"<="|">"|">=") atom
      case    ::= IDENT "(" "{" step ":" IDENT "}" ")" "=" expr
    v}

    Example — the paper's "did Allen act in Casablanca, not crossing
    another Movie edge":
    {v
      select {answer: t}
      where {<entry.movie>: \m} <- DB,
            {title."Casablanca"} <- m,
            {<(~movie)*."Allen">: \t} <- m
    v} *)

(** Byte-offset marks recorded in parse order — one [Mstep] per pattern
    step, one [Mbind] per pattern binder.  {!Lint} walks the AST in the
    same order to attach source spans to diagnostics. *)
type mark_kind =
  | Mstep
  | Mbind

type marks = {
  msrc : string;
  items : (mark_kind * int * int) array;
}

(** A syntax error — in the query or in a regex it embeds — raises
    {!Ssd_diag.Fail} with code SSD001 and the span of the failing offset
    in the whole query.  [#] starts a comment. *)
val parse : string -> Ast.expr

(** [parse] plus the recorded marks. *)
val parse_with_marks : string -> Ast.expr * marks

(** Parse a single pattern (exposed for tests). *)
val parse_pattern : string -> Ast.pattern
