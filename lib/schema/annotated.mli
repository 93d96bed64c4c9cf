(** Cardinality-annotated DataGuides — the optimizer's statistics catalog.

    A strong DataGuide ({!Dataguide}) summarizes {e which} label paths
    exist; this module annotates each guide node with {e how many} data
    nodes its path reaches (target-set size), each guide edge with the
    worst-case per-node fan-out of its label, and the whole guide with a
    per-label edge histogram ({!Ssd_index.Value_index}) and the catalog
    statistics ({!Ssd_index.Stats}).  The annotations form an abstract
    domain: stepping a {e frontier} of (guide node, count) pairs through
    a label predicate or a path regex yields a sound {b upper bound} on
    the number of (environment, data node) pairs a query generator can
    produce — the quantity the cost-based planner orders generators by
    and the lint cardinality pass reports. *)

type t

(** Build the guide and its annotations from the data graph. *)
val build : Ssd.Graph.t -> t

(** Annotate an already-built guide for the same graph. *)
val of_guide : Ssd.Graph.t -> Dataguide.t -> t

val guide : t -> Dataguide.t
val stats : t -> Ssd_index.Stats.t

(** Target-set size of a guide node: exactly how many data nodes its
    path reaches (DataGuides are accurate, so this one is not a bound). *)
val card : t -> int -> int

(** [fmax t u l] — the maximum number of [l]-labeled edges out of any
    single data node in [u]'s target set (parallel edges counted). *)
val fmax : t -> int -> Ssd.Label.t -> int

(** Number of edges in the data carrying this label (value-index
    histogram). *)
val label_count : t -> Ssd.Label.t -> int

(** Distinct labels in the data, sorted. *)
val labels : t -> Ssd.Label.t list

(** The [k] most frequent labels with edge counts, descending. *)
val top_labels : t -> k:int -> (Ssd.Label.t * int) list

(** Is some guide cycle reachable from these guide nodes?  (A recursive
    path expression over such a region can cross unboundedly many paths
    under a step budget.) *)
val cyclic_from : t -> int list -> bool

(** Does the regex contain a non-void [Star]/[Plus]? *)
val regex_recursive : Ssd_automata.Regex.t -> bool

(** {2 Frontier estimation}

    A frontier maps guide nodes to an upper bound on the number of
    (environment, data node) pairs currently at that node; stepping is
    monotone in these bounds, so any sequence of steps from {!start}
    over-approximates the evaluator. *)

type frontier = (int * float) list

(** The guide root with count 1 (one empty environment at the data root). *)
val start : t -> frontier

(** Step every frontier entry across each guide edge whose label the
    predicate matches; counts multiply by the edge's {!fmax}. *)
val step_pred : t -> frontier -> Ssd_automata.Lpred.t -> frontier

(** Step through a path regex by NFA × guide product.  Each entry
    contributes at most [card v] pairs per accepting guide node [v]
    (the evaluator dedups regex results to node sets).  The flag is
    true when the regex is recursive over a cyclic guide region — the
    estimate is still finite but the traversal is unbounded under a
    step budget. *)
val step_regex : t -> frontier -> Ssd_automata.Regex.t -> frontier * bool

(** Total count of a frontier — the cardinality estimate. *)
val total : frontier -> float

val nodes : frontier -> int list

(** Sum of target-set sizes over all guide nodes reachable from these —
    the work estimate of a regex traversal started there. *)
val region_card : t -> int list -> float
