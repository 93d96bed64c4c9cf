(** Regular expressions over edge labels.

    These are the "something like regular expressions to constrain paths"
    of section 3.  A regex denotes a set of label words; applied to a data
    graph it constrains root-to-node paths (see {!Product}).

    Concrete syntax, loosest to tightest precedence:
    {v
      r ::= r "|" r            alternation
          | r "." r            concatenation
          | r "*" | r "+" | r "?"
          | atom               a label predicate (see Lpred)
          | "(" r ")"
    v}

    Example from the paper (did "Allen" act in "Casablanca"? — the path
    from the Movie edge must not cross another Movie edge):
    {v  movie . (~movie)* . "Allen"  v} *)

type t =
  | Void (** matches no word *)
  | Eps (** the empty word *)
  | Atom of Lpred.t
  | Seq of t * t
  | Alt of t * t
  | Star of t
  | Plus of t
  | Opt of t

(** A syntax error raises {!Ssd_diag.Fail} with code SSD006 and the span
    of the failing offset. *)
val parse : string -> t

(** Where a regex embedded in another language ends: at the first token
    no regex can continue with, and also at a ['.'] ([Stop_dot], the
    step separator of UnQL patterns) or a ['>'] ([Stop_gt], closing an
    UnQL [<regex>]) outside parentheses. *)
type stop =
  | Stop_dot
  | Stop_gt
  | Stop_none

(** [read ?stop c] parses a regex at the cursor and leaves the cursor
    just after it.  Errors carry the cursor's code and point into the
    cursor's whole source. *)
val read : ?stop:stop -> Ssd.Scan.t -> t
val pp : Format.formatter -> t -> unit
val to_string : t -> string

(** Does the regex match a word of labels? (Library-level check used by
    tests; query evaluation goes through {!Nfa}/{!Product}.) *)
val matches : t -> Ssd.Label.t list -> bool

(** Does the regex accept the empty word? *)
val nullable : t -> bool

(** Is the regex's language structurally empty (no word matches,
    whatever the atoms denote)?  True only when [Void] occurs in a
    position that voids the whole language. *)
val is_void : t -> bool

(** Brzozowski derivative by one label — the basis of {!matches} and a
    second, independently-implemented semantics the tests compare the NFA
    against. *)
val deriv : t -> Ssd.Label.t -> t
