(** The evaluator's node store: an overlay over the queried database.

    Query evaluation works over a single edge-labeled graph: the
    database, read in place, plus an append-only arena that grows as
    constructors allocate result nodes.  [create ~base:db ()] gives
    [db]'s nodes the ids [0 … n_nodes db - 1] and reads their edges
    straight from [db]; arena nodes are numbered from [n_nodes db] on.
    Nothing of [db] is copied, so a query allocates only what it builds.
    Base nodes are read-only: arena edges may point into the base, but
    an edge {e from} a base node raises [Invalid_argument].  Tree values
    are plain node ids, so subtree references are O(1) and fully shared
    — no copying, and cyclic values cost nothing extra.  {!to_graph}
    snapshots the part reachable from a result node back into an
    immutable {!Ssd.Graph.t}. *)

type t

(** [create ~base ()] overlays an empty arena on [base] (no base: an
    empty store). *)
val create : ?base:Ssd.Graph.t -> unit -> t

(** Refer to an immutable graph; returns the store id of its root.  The
    base graph is already in the store (its root id is [Graph.root
    base]); any other graph is copied into the arena.  Memoized on
    physical identity, so referring to a graph many times costs at most
    one copy. *)
val import : t -> Ssd.Graph.t -> int

val add_node : t -> int

(** [add_edge st u l v] adds [u --l--> v].
    @raise Invalid_argument if [u] is a base node. *)
val add_edge : t -> int -> Ssd.Label.t -> int -> unit

(** @raise Invalid_argument if the source is a base node. *)
val add_eps : t -> int -> int -> unit

val n_nodes : t -> int

(** Outgoing labeled edges through ε-closure (the tree semantics view),
    newest edge first; a depth-first walk of the ε-edges in the same
    order.  A node without ε-edges answers without a visited table. *)
val labeled_succ : t -> int -> (Ssd.Label.t * int) list

(** Raw successors (ε-edges visible), in insertion order. *)
val succ : t -> int -> (Ssd.Graph.edge_label * int) list

(** Snapshot the subgraph reachable from [root] as an immutable graph. *)
val to_graph : t -> root:int -> Ssd.Graph.t
