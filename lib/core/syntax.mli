(** Concrete textual syntax for semistructured data.

    Grammar (whitespace and [(* ... *)]-free; [#] starts a line comment):

    {v
      node  ::= "&" id node          bind a shared/cyclic node
              | "*" id               reference a bound node
              | "{" [entry ("," entry)*] "}"
      entry ::= label [":" value]    a bare label is sugar for label: {}
      value ::= node | label         a bare label is sugar for {label: {}}
      label ::= INT | FLOAT | STRING | BOOL | IDENT
      id    ::= IDENT | INT
    v}

    Example (a fragment of the paper's Figure 1):

    {v
      {entry: {movie: {title: "Casablanca",
                       cast: {actor: "Bogart", actor: "Bacall"}}}}
    v}

    [&id]/[*id] introduce sharing and cycles; forward references are
    allowed.  {!Graph.pp} prints in the same syntax (with numeric ids), so
    parse/print round-trips up to bisimilarity. *)

(** Parse a (possibly cyclic) graph.  A syntax error raises
    {!Ssd_diag.Fail} with code SSD004 and the span of the failing
    offset. *)
val parse_graph : string -> Graph.t

(** Read one node (and everything it binds) at the cursor, leaving the
    cursor just after it: the data value embedded in another language
    (a Lorel [insert]).  Inside the value [#] starts a comment, as in
    {!parse_graph}.  Errors carry the cursor's code. *)
val read_graph : Scan.t -> Graph.t

(** Parse a finite tree.
    @raise Ssd_diag.Fail on syntax errors.
    @raise Graph.Cyclic if the input uses [&]/[*] to form a cycle. *)
val parse_tree : string -> Tree.t
