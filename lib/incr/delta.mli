(** Edge-level deltas between two versions of a graph.

    The unit of change is the edge: an update takes the database from
    [old] to [new], and the delta is the multiset difference of their
    edge sets (parallel edges count).  Everything downstream — index
    maintenance, DataGuide maintenance, cache revalidation, result
    subscriptions — consumes this one type, so an update's cost is
    proportional to the delta, not to the database.

    The key split is {!monotone}: a delta that only {e adds} edges (no
    removals, no root move, no node-id remap) admits the insert-only
    fast paths of {!Guide_inc} and {!Path_inc}.  Lorel [insert] updates
    produce exactly this shape — {!Lorel.Update} grafts new structure
    onto the existing builder without renumbering — while [delete] and
    [rename] rebuild and may gc-remap node ids, which surfaces here as a
    non-monotone delta and sends maintainers down the rebuild path. *)

type edge = {
  src : int;
  lab : Ssd.Graph.edge_label;
  dst : int;
}

type t = {
  added : edge list;  (** with multiplicity; order unspecified *)
  removed : edge list;  (** with multiplicity; order unspecified *)
  old_nodes : int;
  new_nodes : int;
  root_moved : bool;
  new_has_eps : bool;  (** does the {e new} graph contain any ε edge? *)
}

(** Multiset edge diff, one pass over both graphs node by node:
    O(|E_old| + |E_new|) when each node's surviving edges keep their
    order (as Lorel updates leave them), plus a sort of the rows that
    differ past their common prefix.
    This is the delta {e source} for callers that only hold graph
    versions (the store's commit path); callers that know their edits
    can construct {!t} directly. *)
val diff : Ssd.Graph.t -> Ssd.Graph.t -> t

val is_empty : t -> bool

(** No removals, root unmoved, node count did not shrink: every old
    node id still denotes the same node, so insert-only maintenance
    applies. *)
val monotone : t -> bool

(** Labels mentioned by the delta, sorted; [None] means ⊤ (an ε edge
    changed, which can alter the ε-closed successors of any label). *)
val touched_labels : t -> Ssd.Label.t list option

val n_added : t -> int
val n_removed : t -> int
