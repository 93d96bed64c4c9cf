(** Evaluation of WebSQL-style queries.

    Navigation runs the path expression's derivatives against the
    document/link view (memoized on (document, derivative), so cyclic
    link structures terminate); each surviving binding of the [FROM]
    variables becomes one row of the result {e relation}, with one column
    per select item (named [d_attr]; missing attributes are the empty
    string — the web never promised you a title). *)

(** A reference to a document variable no [FROM] item binds raises
    {!Ssd_diag.Fail} with code SSD410. *)
val eval : db:Ssd.Graph.t -> Ast.query -> Relstore.Relation.t
val run : db:Ssd.Graph.t -> string -> Relstore.Relation.t

(** Documents reachable from [start] along [path] (exposed for tests). *)
val reachable : Web.t -> start:int -> Ast.pathre -> int list
