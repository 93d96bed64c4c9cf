(** The Object Exchange Model's textual format (Tsimmis; §1.2).

    OEM is the §1.2 motivation made concrete: "an internal data structure
    for exchange of data between DBMSs".  Its textual form labels every
    object with an optional object id, a type, and a value:

    {v
      obj   ::= ["&" id] "<" label "," type "," value ">"
      type  ::= set | int | real | str | bool
      value ::= "{" obj ("," obj)* "}"        when type = set
              | literal                        otherwise
      ref   ::= "&" id                         a reference in value position
    v}

    Example (a fragment of Figure 1):

    {v
      <entry, set, {
        &m1 <movie, set, {
          <title, str, "Casablanca">,
          <year, int, 1942>,
          <references, set, { &m1 }> }> }>
    v}

    Mapping into the edge-labeled model: an OEM object becomes an edge
    labeled with the object's label; atomic values hang below it as leaf
    edges; set members become the target's edges; [&id] definitions and
    references share graph nodes, so cyclic OEM databases map to cyclic
    graphs.  [of_graph]/[to_graph] round-trip up to bisimilarity
    (property-tested). *)

type otype =
  | Set
  | Int
  | Real
  | Str
  | Bool

type t = {
  oid : string option; (** [&id] binder, if any *)
  label : string;
  value : value;
}

and value =
  | Atom of Label.t
  | Objects of member list

and member =
  | Obj of t
  | Ref of string (** [&id] reference *)

(** A syntax error, a dangling [&id] reference or an object id bound
    twice raises {!Ssd_diag.Fail} with code SSD004 and the span of the
    failing offset. *)
val parse : string -> t
val pp : Format.formatter -> t -> unit
val to_string : t -> string

(** Decode an OEM document into a data graph (the document's object is
    the single edge out of the root).  The document is one {!parse}
    accepted or {!of_graph} built, so its references resolve. *)
val to_graph : t -> Graph.t

(** Encode a graph as an OEM document under the given top label.  Nodes
    with several labeled parents (or on cycles) get generated [&o<n>]
    ids; base-label leaf edges become atomic objects typed by their
    label. *)
val of_graph : ?top:string -> Graph.t -> t
