(** Strong DataGuides (Goldman & Widom, 1997; section 5 of the paper).

    A DataGuide is a concise, accurate summary of a data graph: every
    label path from the data root occurs exactly once in the guide, and
    every guide path occurs in the data.  It is the determinization
    (subset construction) of the data graph, with each guide node
    annotated by its {e target set} — the data nodes that its path
    reaches.  Guides drive query formulation (browsing the structure
    without a schema) and optimization (pruning regular path queries,
    experiments E2/E8). *)

type t

val build : Ssd.Graph.t -> t

(** Trusted constructor from a deterministic guide graph and its
    per-node target sets (one per guide node, else [Invalid_argument]).
    Used by the incremental maintainer (lib/incr), which reproduces
    [build]'s canonical numbering itself. *)
val make : Ssd.Graph.t -> int list array -> t

(** The guide as a plain graph (deterministic: no node has two equal
    outgoing labels). *)
val graph : t -> Ssd.Graph.t

(** Data nodes reached by the guide node's path. *)
val targets : t -> int -> int list

(** Follow a label path through the guide; [None] if the path does not
    occur in the data, otherwise the guide node. *)
val follow : t -> Ssd.Label.t list -> int option

(** Target set of a path: the answer to an exact path query, by guide
    lookup instead of data traversal. *)
val find : t -> Ssd.Label.t list -> int list

val n_nodes : t -> int

(** All label paths of the guide up to the given length — the structure
    summary shown to a browsing user. *)
val paths : t -> max_len:int -> Ssd.Label.t list list

(** Canonical bytes: the guide graph as {!Ssd_storage.Seg} dictionary
    and graph blobs plus sorted target sets.  Guides of the same data
    serialize identically. *)
val to_bytes : t -> bytes

(** Raises [Ssd_storage.Bytesio.Corrupt] on malformed input. *)
val of_bytes : bytes -> t
