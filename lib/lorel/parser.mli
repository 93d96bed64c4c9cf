(** Parser for the Lorel-style concrete syntax.

    {v
      select X.title, X.year as when
      from DB.entry.movie X, X.cast.actor A
      where X.year >= 1942 and A = "Bogart"
    v}

    Path components: identifiers, quoted strings, integers, [%] (any one
    label) and [#] (any path, including the empty one). *)

(** Byte-offset marks recorded in parse order — one [Mpath] per path
    expression, one [Mvar] per range-variable ident.  {!Lint} walks the
    query in the same order to attach source spans. *)
type mark_kind =
  | Mpath
  | Mvar

type marks = {
  msrc : string;
  items : (mark_kind * int * int) array;
}

(** A syntax error raises {!Ssd_diag.Fail} with code SSD002 and the span
    of the failing offset. *)
val parse : string -> Ast.query

(** {1 Reading from a shared cursor} *)

(** [read_path c] reads one path expression at the cursor (the paths of
    Lorel update statements); errors carry the cursor's code. *)
val read_path : Ssd.Scan.t -> Ast.path

(** [parse] plus the recorded marks. *)
val parse_with_marks : string -> Ast.query * marks

(** Parse a bare path expression (exposed for tests). *)
val parse_path : string -> Ast.path
