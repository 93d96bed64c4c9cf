(** The triple encoding of a data graph.

    Section 3: "We can take the database as a large relation of type
    (node-id, label, node-id) and consider the expressive power of
    relational languages on this structure."  The paper's complications are
    handled as follows:

    - heterogeneous labels: field values are the {!Ssd.Label.t} tagged
      union (complication 1);
    - no information is held at nodes in our model, so no extra relation
      is needed (complication 2);
    - node identifiers appear as [Int] labels and are meant as temporary
      names; {!to_graph} consumes them again (complication 3);
    - reachability from the root: the encoding also exports a unary [root]
      relation so queries can restrict to forward-reachable data
      (complication 4). *)

(** [edges g] is the relation [edge(src, label, dst)] over attributes
    ["src"; "label"; "dst"].  ε-edges are ε-eliminated first, so the
    encoding captures the tree semantics. *)
val edges : Ssd.Graph.t -> Relation.t

(** [root g] is the unary relation [root(node)] over attribute ["node"]. *)
val root : Ssd.Graph.t -> Relation.t

(** Rebuild a graph from [edge] and [root] relations (inverse of
    {!edges}/{!root} up to node renaming, hence up to bisimilarity).
    @raise Invalid_argument if [root] is not a singleton or attributes are
    wrong. *)
val to_graph : edges:Relation.t -> root:Relation.t -> Ssd.Graph.t

(** The frozen datalog EDB [edge(src, label, dst)], [root(n)] that
    {!Datalog.eval} reads; build it once per graph and share it. *)
val edb : Ssd.Graph.t -> Datalog.edb
