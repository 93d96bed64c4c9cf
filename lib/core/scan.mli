(** The one lexical front end: a mutable cursor over a source string.

    Every parser in the system — the data formats (ssd syntax, JSON,
    OEM), the four query languages, Lorel updates, regular path
    expressions and graph schemas — reads its text through a [Scan.t].
    They share one definition of whitespace and comments, identifiers,
    numbers and string literals (one escape table), so a literal means
    the same thing in every language, and every syntax error is an
    {!Ssd_diag.Fail} whose span starts at the failing offset.

    A parser that embeds another language hands it the same cursor (a
    regex inside an UnQL pattern, a data graph inside a Lorel insert), so
    errors in the embedded text point into the whole source and carry
    the host's diagnostic code.

    The cursor is a plain record so parsers can save and restore
    [pos] to backtrack.  Line and column are computed only when a
    diagnostic is raised. *)

type t = {
  src : string;
  mutable pos : int;  (** byte offset of the next unread character *)
  code : string;  (** diagnostic code of every failure raised here *)
  mutable comments : string list;
      (** non-empty prefixes that start a comment running to the end of
          the line; a reader of text embedded in another language sets
          its own for the embedded part *)
}

(** [make ~code ?comments src] starts at offset 0.  [comments] defaults
    to none. *)
val make : ?comments:string list -> code:string -> string -> t

(** {1 Failure} *)

(** [fail ?at ?stop c msg] raises {!Ssd_diag.Fail} with [c.code],
    severity [Error] and a span from [at] (default [c.pos]) to [stop]
    (default: the cursor, at least one character past [at] unless that
    is the end of input). *)
val fail : ?at:int -> ?stop:int -> t -> string -> 'a

(** {1 Characters} *)

val eof : t -> bool

(** The next character, ['\000'] at the end of input. *)
val peek : t -> char

(** The character [k] positions ahead, ['\000'] past the end. *)
val peek_at : t -> int -> char

val advance : t -> unit

(** [looking_at c s]: does the input continue with [s]?  No allocation. *)
val looking_at : t -> string -> bool

(** Consume [s] if the input continues with it. *)
val eat : t -> string -> bool

(** Consume [s] or fail with [msg]. *)
val expect : t -> string -> string -> unit

(** Skip blanks (space, tab, newline, carriage return) only. *)
val skip_space : t -> unit

(** Skip blanks and comments. *)
val skip_ws : t -> unit

(** {1 Identifiers and keywords} *)

(** Character classes of identifiers, and so of the symbol labels every
    language writes bare. *)
val is_ident_start : char -> bool

val is_ident_char : char -> bool

(** The (possibly empty) run of identifier characters at the cursor. *)
val word : t -> string

(** A non-empty {!word}, else fail "expected an identifier". *)
val ident : t -> string

(** [at_word ?ci c w]: after {!skip_ws}, is the next identifier exactly
    [w] ([ci]: ASCII case-insensitively)?  Does not consume it. *)
val at_word : ?ci:bool -> t -> string -> bool

(** {!at_word}, consuming the word when it matches. *)
val eat_word : ?ci:bool -> t -> string -> bool

(** {1 Literals} *)

type number =
  | Int of int
  | Float of float

(** Is [ch] the first character of a number ([-] or a digit)? *)
val is_number_start : char -> bool

(** [number ?frac c] reads [-? digits (. digits)? ([eE] [+-]? digits)?];
    the fraction only with [frac] (default [true]; languages where [.]
    separates path steps pass [false]).  An integer that overflows reads
    as a float. *)
val number : ?frac:bool -> t -> number

(** [string ?extra c] reads a double-quoted literal at the cursor.  The
    escapes are [\n], [\t], [\r]; any other escaped character stands for
    itself (a backslash, a double quote).  [extra] adds escapes that
    expand to the given text (JSON's [\b], [\f], [\u]). *)
val string : ?extra:(char * string) list -> t -> string
