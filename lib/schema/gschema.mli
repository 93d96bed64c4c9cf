(** Graph schemas.

    Section 5, after Buneman–Davidson–Fernandez–Suciu (ICDT'97): "a schema
    is defined as a graph whose edges are labeled with predicates and the
    property of simulation is used to describe the relationship between
    data and schema."  Unlike a conventional schema this only places
    {e loose} constraints: data conforms if every edge it has is allowed,
    not if every allowed edge is present.

    Concrete syntax — the data syntax with predicates for labels:
    {v
      &s {entry: {movie: {title: #string,
                          cast: {_ : *s}},
                  tvshow: {title: #string}}}
    v}
    ([&id]/[*id] create the cyclic schemas that describe recursive data,
    e.g. ACeDB's trees of arbitrary depth.) *)

type t

(** {1 Construction} *)

module Builder : sig
  type schema := t
  type t

  val create : unit -> t
  val add_node : t -> int
  val add_edge : t -> int -> Ssd_automata.Lpred.t -> int -> unit
  val set_root : t -> int -> unit
  val finish : t -> schema
end

(** A syntax error, in the node structure or in a predicate, raises
    {!Ssd_diag.Fail} with code SSD006 and the span of the failing
    offset.  [##] starts a comment. *)
val parse : string -> t

val root : t -> int
val n_nodes : t -> int
val succ : t -> int -> (Ssd_automata.Lpred.t * int) list

(** [step s nodes p] — schema nodes reachable from [nodes] along one
    edge whose predicate is {!Ssd_automata.Lpred.compatible} with the
    query predicate [p].  The frontier-advance primitive of schema-aware
    path satisfiability: an empty result proves the step dead. *)
val step : t -> int list -> Ssd_automata.Lpred.t -> int list
val pp : Format.formatter -> t -> unit
val to_string : t -> string

(** {1 Conformance} *)

(** [conforms g s]: is the data root simulated by the schema root?  This
    is the paper's data/schema relationship. *)
val conforms : Ssd.Graph.t -> t -> bool

(** The full maximal simulation: for each data node, the schema nodes that
    simulate it.  Used for classification ("which schema class is this
    object?") and for query pruning. *)
val classify : Ssd.Graph.t -> t -> int list array

(** Nodes of the data graph that fail to be simulated by any schema node —
    the diagnostic for non-conforming data. *)
val violations : Ssd.Graph.t -> t -> int list
