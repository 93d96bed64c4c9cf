type exhaustion =
  | Steps
  | Deadline
  | Stalled

let exhaustion_to_string = function
  | Steps -> "steps"
  | Deadline -> "deadline"
  | Stalled -> "stalled"

type 'a outcome =
  | Complete of 'a
  | Partial of 'a * exhaustion

(* Steps and the exhaustion flag are Atomics so a budget can be shared by
   the worker domains of a parallel region (lib/par): every domain draws
   from the same counter, so the total amount of work stays bounded and a
   Partial answer is still a sound lower bound.  Concurrent [step] calls
   can overshoot [max_steps] by at most the number of domains (each may
   pass the pre-check before any increments land) — never unboundedly.
   On a single domain the behavior is exactly the pre-atomic one:
   exactly [max_steps] grants, [steps_used] counting grants. *)
type t = {
  max_steps : int;
  deadline : float; (* monotonic clock ns; infinity = no deadline *)
  steps : int Atomic.t;
  stopped : exhaustion option Atomic.t;
  mutable exempt_depth : int; (* coordinator-domain only; see .mli *)
}

let unlimited () =
  {
    max_steps = max_int;
    deadline = infinity;
    steps = Atomic.make 0;
    stopped = Atomic.make None;
    exempt_depth = 0;
  }

(* CLOCK_MONOTONIC, not [Sys.time]: process CPU time is summed over all
   domains and stands still while a request blocks. *)
let now_ns () = Int64.to_float (Monotonic_clock.now ())

let create ?deadline_ms ?max_steps () =
  let deadline =
    match deadline_ms with
    | None -> infinity
    | Some ms -> now_ns () +. (ms *. 1e6)
  in
  {
    max_steps = Option.value ~default:max_int max_steps;
    deadline;
    steps = Atomic.make 0;
    stopped = Atomic.make None;
    exempt_depth = 0;
  }

(* Exhaustion is recorded with a compare-and-set so the first reason wins
   even under contention. *)
let trip t why = ignore (Atomic.compare_and_set t.stopped None (Some why))

let step t =
  if t.exempt_depth > 0 then true
  else
    match Atomic.get t.stopped with
    | Some _ -> false
    | None ->
      if Atomic.get t.steps >= t.max_steps then begin
        trip t Steps;
        false
      end
      else begin
        let s = Atomic.fetch_and_add t.steps 1 + 1 in
        (* The clock is only read every 128 steps: a deadline costs one
           [land] per step, not a syscall. *)
        if t.deadline < infinity && s land 127 = 0 && now_ns () > t.deadline
        then begin
          trip t Deadline;
          false
        end
        else true
      end

let alive t = Atomic.get t.stopped = None

let exhaust t why = trip t why

let exhausted t = Atomic.get t.stopped

let exempt t f =
  t.exempt_depth <- t.exempt_depth + 1;
  Fun.protect ~finally:(fun () -> t.exempt_depth <- t.exempt_depth - 1) f

let wrap t v =
  match Atomic.get t.stopped with
  | None -> Complete v
  | Some why -> Partial (v, why)

let value = function Complete v | Partial (v, _) -> v

let map f = function
  | Complete v -> Complete (f v)
  | Partial (v, why) -> Partial (f v, why)

let steps_used t = min (Atomic.get t.steps) t.max_steps
