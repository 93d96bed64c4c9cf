(** Parser for the WebSQL-style concrete syntax (keywords are
    case-insensitive):

    {v
      SELECT d.url, d.title
      FROM DOCUMENT d SUCH THAT "http://host0.example/p0" (-> | =>)* d,
           DOCUMENT e SUCH THAT d -> e
      WHERE e.title CONTAINS "Page" AND NOT d MENTIONS "draft"
    v}

    Path atoms: [->] local link (same host), [=>] global link (crossing
    hosts), [~>] either; combined with [|], [*], [+], [?] and grouping.
    [ANYWHERE d] ranges [d] over all documents (the crawler's view). *)

(** A syntax error raises {!Ssd_diag.Fail} with code SSD005 and the span
    of the failing offset. *)
val parse : string -> Ast.query
