(** Resource governance for query evaluation: step budgets and deadlines
    with graceful degradation.

    The north star asks the system to handle "as many scenarios as you can
    imagine"; the scenario this module covers is the query that is too
    expensive for its caller's patience.  Instead of raising when a limit
    is hit, every evaluator ({!Unql.Eval}, {!Lorel.Eval},
    {!Relstore.Datalog}, {!Ssd_dist.Decompose}) degrades to a typed
    {e partial} result: evaluation stops expanding new work and returns
    what it has, tagged with the reason.  The contract — property-tested —
    is that a partial answer is a {e sound lower bound}: everything in it
    is also in the complete answer, never the other way around.

    Budgets achieve this by being consulted only at {e generator}
    positions (frontier expansion, binding enumeration, fixpoint rounds),
    never inside conditions: a binding that is produced is always judged
    exactly, so exhaustion can only shrink the answer. *)

type exhaustion =
  | Steps (** the step budget ran out *)
  | Deadline (** the deadline passed *)
  | Stalled
      (** forward progress stopped (distributed evaluation: the round cap
          was hit before quiescence, e.g. under a 100% message-drop fault
          plan) *)

val exhaustion_to_string : exhaustion -> string

(** The result of a budgeted evaluation.  [Partial (a, why)] carries an
    answer [a] that is a subset of (is simulated by) the [Complete]
    answer. *)
type 'a outcome =
  | Complete of 'a
  | Partial of 'a * exhaustion

type t

(** A budget that never exhausts (the default everywhere). *)
val unlimited : unit -> t

(** [create ?deadline_ms ?max_steps ()] exhausts after [max_steps] units
    of generator work or once [deadline_ms] milliseconds of processor
    time have elapsed (checked every 128 steps), whichever comes first. *)
val create : ?deadline_ms:float -> ?max_steps:int -> unit -> t

(** Consume one step.  [false] means the budget is exhausted and the
    caller must stop producing new work (it keeps returning [false]).
    Inside {!exempt} it always returns [true] and consumes nothing.

    Thread-safe: the step counter and exhaustion flag are atomics, so
    the worker domains of a parallel region ({!module:Ssd_par} users)
    may draw from one shared budget.  Under contention the grant count
    can overshoot [max_steps] by at most the number of domains; on a
    single domain exactly [max_steps] steps are granted. *)
val step : t -> bool

(** Has the budget room left?  (Does not consume.) *)
val alive : t -> bool

(** Force exhaustion with the given reason (used by the distributed
    evaluator's round cap). First reason wins. *)
val exhaust : t -> exhaustion -> unit

val exhausted : t -> exhaustion option

(** [exempt t f] runs [f] with the budget suspended: condition evaluation
    must be exact (a mis-judged [where] could {e add} answers, breaking
    the lower-bound contract), so evaluators wrap it in [exempt].
    Unlike {!step}, exemption is {e not} thread-safe — only the
    coordinating domain may enter/leave [exempt]; parallel regions never
    run exempted code. *)
val exempt : t -> (unit -> 'a) -> 'a

(** Tag a finished evaluation's answer: [Complete] if the budget never
    exhausted, [Partial] otherwise. *)
val wrap : t -> 'a -> 'a outcome

(** The answer, complete or partial. *)
val value : 'a outcome -> 'a

(** The answer mapped, the verdict kept. *)
val map : ('a -> 'b) -> 'a outcome -> 'b outcome

(** Steps consumed so far. *)
val steps_used : t -> int
