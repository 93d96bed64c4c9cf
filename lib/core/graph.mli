(** Rooted edge-labeled graphs with node identities.

    This is the OEM-flavoured representation of section 2 of the paper:
    nodes carry object identities (here: dense integer ids), edges carry
    labels, cycles are allowed, and everything of interest is what is
    reachable from a distinguished root by forward traversal.

    ε-edges (unlabeled edges) are supported; they are the standard device
    for giving graphs a cheap union/append and are invisible to the tree
    semantics: the tree denoted by a node is the union of the trees over
    its ε-closure. *)

type edge_label =
  | Eps                 (** unlabeled; collapsed by the tree semantics *)
  | Lab of Label.t

type t

exception Cyclic
(** Raised by {!to_tree} when the graph reachable from the root has a
    cycle (its unfolding is infinite). *)

(** {1 Construction} *)

module Builder : sig
  type graph := t
  type t

  val create : unit -> t

  (** Allocate a fresh node and return its id. *)
  val add_node : t -> int

  (** [add_edge b u l v] adds edge [u --l--> v]. *)
  val add_edge : t -> int -> Label.t -> int -> unit

  (** [add_eps b u v] adds an ε-edge [u --> v]. *)
  val add_eps : t -> int -> int -> unit

  val set_root : t -> int -> unit
  val n_nodes : t -> int

  (** Freeze into an immutable graph.  The root defaults to node 0; it is
      an error to finish a builder with no nodes. *)
  val finish : t -> graph
end

(** [import_into b g] copies all of [g]'s nodes and edges into the builder
    and returns the new id of [g]'s root (node [i] of [g] maps to
    [i + returned_root - root g]). *)
val import_into : Builder.t -> t -> int

(** The one-node graph denoting the empty tree [{}]. *)
val empty : t

(** [edge l g] denotes [{l: T(g)}]: a fresh root with an [l]-edge to the
    root of [g]. *)
val edge : Label.t -> t -> t

(** [leaf l] denotes [{l: {}}]. *)
val leaf : Label.t -> t

(** [union a b] denotes tree union: a fresh root with ε-edges to both
    roots.  Node ids of [b] are shifted. *)
val union : t -> t -> t

val unions : t list -> t

(** [of_tree t] builds a tree-shaped graph (one node per tree node). *)
val of_tree : Tree.t -> t

(** {1 Observers} *)

val root : t -> int
val n_nodes : t -> int

(** Number of edges, ε-edges included. *)
val n_edges : t -> int

(** Outgoing edges of a node, ε-edges included. *)
val succ : t -> int -> (edge_label * int) list

(** [fold_succ f init g u] folds [f] over [u]'s outgoing edges in order,
    ε-edges included, without building a list. *)
val fold_succ : ('a -> edge_label -> int -> 'a) -> 'a -> t -> int -> 'a

(** Does the node have an outgoing ε-edge? *)
val has_eps : t -> int -> bool

(** Outgoing labeled edges after ε-closure: the edges of the tree denoted
    by the node.  A node without ε-edges answers with its own labeled
    edges, in order, without computing a closure. *)
val labeled_succ : t -> int -> (Label.t * int) list

(** ε-closure of a node (includes the node itself). *)
val eps_closure : t -> int -> int list

(** [fold_edges f init g] folds over all edges [(u, l, v)] of [g],
    ε-edges included. *)
val fold_edges : ('a -> int -> edge_label -> int -> 'a) -> 'a -> t -> 'a

(** Fold over labeled edges only (ε-edges skipped, not closed over). *)
val fold_labeled_edges : ('a -> int -> Label.t -> int -> 'a) -> 'a -> t -> 'a

(** [reachable g] marks nodes reachable from the root (following all
    edges). *)
val reachable : t -> bool array

(** Is the subgraph reachable from the root free of cycles?  ε-edges
    count. *)
val is_acyclic : t -> bool

(** {1 Transformations} *)

(** Restrict to the nodes reachable from the root, remapping ids densely.
    This is how unreachable garbage produced by restructuring queries is
    collected. *)
val gc : t -> t

(** Remove ε-edges, preserving the tree semantics (each node inherits the
    labeled edges of its ε-closure). *)
val eps_eliminate : t -> t

val map_labels : (Label.t -> Label.t) -> t -> t

(** {1 Conversion to trees} *)

(** [to_tree g] computes the tree denoted by [g].  Linear in the size of
    the underlying DAG (memoized), but the resulting tree can be
    exponentially larger once shared nodes are unfolded.
    @raise Cyclic if the reachable part of [g] is cyclic. *)
val to_tree : t -> Tree.t

(** [unfold ~depth g] is the tree denoting [g] cut at [depth] labeled
    edges; total on cyclic graphs. *)
val unfold : depth:int -> t -> Tree.t

(** {1 Printing} *)

(** Prints the graph in data syntax, introducing [&n]/[*n] sharing markers
    for nodes with several incoming edges or on cycles. *)
val pp : Format.formatter -> t -> unit

val to_string : t -> string
