(** Labels of the semistructured data model.

    Following Buneman (PODS'97, section 2), an edge of the data graph is
    labeled with a value drawn from a tagged union of base types and
    symbols:

    {[ type label = int | float | string | bool | ... | symbol ]}

    Symbols are the attribute-like names ([Movie], [Title], ...) that a
    schema would normally own; in semistructured data they live in the data
    itself.  Strings and symbols are distinct label constructors even though
    both are represented as strings internally. *)

type t =
  | Int of int
  | Float of float
  | Str of string
  | Bool of bool
  | Sym of string

val int : int -> t
val float : float -> t
val str : string -> t
val bool : bool -> t
val sym : string -> t

(** Total order on labels (constructor order first, then value order;
    [-0.0] and [0.0] are one label, and so are all NaNs).  Used to give
    trees their set semantics via sorted edge lists. *)
val compare : t -> t -> int

val equal : t -> t -> bool
val hash : t -> int

(** {1 Dynamic type tests}

    Semistructured data is "self-describing": programs switch on the runtime
    type of a label (section 2 of the paper).  These are the predicates a
    query language exposes, e.g. [isInt], [isString]. *)

val is_int : t -> bool
val is_float : t -> bool
val is_str : t -> bool
val is_bool : t -> bool
val is_sym : t -> bool

(** Name of the runtime type: ["int"], ["float"], ["string"], ["bool"],
    ["symbol"]. *)
val type_name : t -> string

(** {1 Printing and parsing} *)

(** [to_string l] prints in the concrete data syntax: symbols bare
    ([Movie]), strings quoted and escaped (["Casablanca"]), numbers and
    booleans as literals.  A float prints with the fewest significant
    digits (at least 12) that read back to the same float, so
    [of_string (to_string l)] equals [l] for every non-symbol label. *)
val to_string : t -> string

(** The float part of {!to_string}: [1.0], [0.1], [1e+16], [nan], [-inf];
    [-0.0] prints as [0.0], the label it equals. *)
val float_to_string : float -> string

val pp : Format.formatter -> t -> unit

(** [read c] reads one label literal at the cursor: a string, a number,
    [true]/[false] or a symbol identifier; fails through {!Scan.fail}
    otherwise. *)
val read : Scan.t -> t

(** [of_string s] parses a single label literal (surrounding blanks
    allowed), and [nan], [inf], [-inf] as floats; inverse of
    {!to_string} on well-formed input.  Raises {!Ssd_diag.Fail} (SSD004)
    on malformed input. *)
val of_string : string -> t
