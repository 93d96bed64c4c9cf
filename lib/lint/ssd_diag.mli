(** Diagnostics core shared by every layer, from the data model up.

    A diagnostic is a stable error code ([SSD001]...), a severity, an
    optional source span and a message.  The analyzers in [lib/lint]
    return lists of these.  Everything else raises {!Fail} carrying one:
    every parser (through {!Ssd.Scan}, with the span of the failing
    offset), the evaluators, the relational coding and store, the
    storage and serving layers.  It is the only failure type they
    raise, so every failure mode has a grep-able code.

    Codes are grouped by hundreds:
    - [SSD00x] — syntax errors (one code per language or data format)
    - [SSD1xx] — path satisfiability (dead / partially dead paths)
    - [SSD2xx] — datalog safety and stratification
    - [SSD3xx] — UnQL / UnCAL hygiene (binders, markers, recursion)
    - [SSD4xx] — Lorel- and WebSQL-specific checks
    - [SSD5xx] — runtime / storage errors with no static counterpart *)

type severity =
  | Error
  | Warning
  | Note

(** A half-open source region, 1-based lines and columns.  [text] is the
    source slice, kept for rendering context. *)
type span = {
  line : int;
  col : int;
  stop_line : int;
  stop_col : int;
  text : string;
}

type t = {
  code : string;
  severity : severity;
  span : span option;
  message : string;
}

(** The typed error every layer raises instead of
    [failwith]/[invalid_arg] or an exception of its own: it carries the
    full diagnostic, so callers can match on [diag.code].  A printer is
    registered, so an uncaught [Fail] renders like [error[SSD520] ...]. *)
exception Fail of t

(** {1 Construction} *)

val make : ?span:span -> severity -> code:string -> string -> t

(** [error ~code fmt ...] raises {!Fail} with severity [Error]. *)
val error : ?span:span -> code:string -> ('a, unit, string, 'b) format4 -> 'a

(** [span_of_offsets src start stop] converts byte offsets into a
    line/column span (used by {!Ssd.Scan} and the analyzers, which track
    offsets). *)
val span_of_offsets : string -> int -> int -> span

(** {1 Rendering} *)

val severity_to_string : severity -> string

(** [error[SSD101] 2:14-2:25: message  (near "entry.movie")] *)
val to_string : t -> string

val to_json : t -> string

(** Render a report: one line per diagnostic, sorted by severity then
    position, followed by a ["N errors, M warnings"] summary line. *)
val render : t list -> string

val render_json : t list -> string

(** Severity-major, then position order. *)
val sort : t list -> t list

val count : severity -> t list -> int

(** {1 The code registry}

    Every stable code with its default severity and a one-line
    description — the table behind [ssdql check --codes] and the README
    section. *)
val codes : (string * severity * string) list

val describe : string -> string option
