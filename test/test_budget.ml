(* Budgets and graceful partial answers.

   The contract under test, for every evaluator: a budgeted run either
   returns [Complete] with exactly the unbudgeted answer, or [Partial]
   with a sound lower bound of it — never extra answers, never an
   exception. *)

module Budget = Ssd.Budget
module Graph = Ssd.Graph
module Label = Ssd.Label
open Gen

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let step_budget_counts () =
  let b = Budget.create ~max_steps:5 () in
  let granted = ref 0 in
  for _ = 1 to 20 do
    if Budget.step b then incr granted
  done;
  check_int "exactly max_steps granted" 5 !granted;
  check_int "steps_used counts grants" 5 (Budget.steps_used b);
  check "exhausted with Steps" true (Budget.exhausted b = Some Budget.Steps);
  check "not alive" false (Budget.alive b);
  (* exhaustion is sticky and the first reason wins *)
  Budget.exhaust b Budget.Stalled;
  check "first reason wins" true (Budget.exhausted b = Some Budget.Steps)

let exempt_suspends () =
  let b = Budget.create ~max_steps:1 () in
  ignore (Budget.step b);
  check "budget spent" false (Budget.step b);
  (* conditions must stay exact even after exhaustion *)
  let inside = Budget.exempt b (fun () -> Budget.step b && Budget.step b) in
  check "steps free inside exempt" true inside;
  check_int "exempt consumed nothing" 1 (Budget.steps_used b);
  check "still exhausted outside" false (Budget.step b)

let unlimited_never_exhausts () =
  let b = Budget.unlimited () in
  for _ = 1 to 10_000 do
    ignore (Budget.step b)
  done;
  check "still alive" true (Budget.alive b);
  check "wrap says Complete" true (Budget.wrap b 42 = Budget.Complete 42)

let deadline_exhausts () =
  (* an already-expired deadline is noticed at the next 128-step check *)
  let b = Budget.create ~deadline_ms:0. () in
  let denied = ref false in
  for _ = 1 to 512 do
    if not (Budget.step b) then denied := true
  done;
  check "deadline denies steps" true !denied;
  check "reason is Deadline" true (Budget.exhausted b = Some Budget.Deadline)

let deadline_is_wall_clock () =
  (* a request that blocks past its deadline is out of time, although it
     used no processor time while blocked *)
  let b = Budget.create ~deadline_ms:20. () in
  Unix.sleepf 0.06;
  let granted = ref 0 in
  for _ = 1 to 128 do
    if Budget.step b then incr granted
  done;
  check "steps denied after the deadline" true (!granted < 128);
  check "reason is Deadline" true (Budget.exhausted b = Some Budget.Deadline)

(* ------------------------------------------------------------------ *)
(* Partial answers are sound lower bounds, per evaluator.              *)
(* ------------------------------------------------------------------ *)

let unql_partial_is_lower_bound =
  qtest "unql: partial result simulated by complete" ~count:60
    (Q.triple graph unql_query (Q.int_range 1 60))
    (fun (db, q, steps) ->
      let complete = Unql.Eval.eval ~db q in
      let budget = Budget.create ~max_steps:steps () in
      match Unql.Eval.eval_outcome ~budget ~db q with
      | Budget.Complete g -> Ssd.Bisim.equal g complete
      | Budget.Partial (g, Budget.Steps) -> Ssd.Simulation.simulates g complete
      | Budget.Partial _ -> false)

let lorel_partial_is_lower_bound =
  let db = Ssd_workload.Movies.generate ~n_entries:40 () in
  let queries =
    [
      "select X.title from DB.entry.movie X";
      "select X.title from DB.entry.% X where exists X.cast";
      "select X from DB.entry.movie.cast.# X";
      (* two ranges and a where: filtered as soon as X is bound *)
      {|select X.title, A from DB.entry.% X, X.cast.# A where X.title like "a" and exists A.actors|};
    ]
  in
  qtest "lorel: partial result simulated by complete" ~count:60
    (Q.pair (Q.oneofl queries) (Q.int_range 1 300))
    (fun (src, steps) ->
      let q = Lorel.Parser.parse src in
      let complete = Lorel.Eval.eval ~db q in
      let budget = Budget.create ~max_steps:steps () in
      match Lorel.Eval.eval_outcome ~budget ~db q with
      | Budget.Complete g -> Ssd.Bisim.equal g complete
      | Budget.Partial (g, Budget.Steps) -> Ssd.Simulation.simulates g complete
      | Budget.Partial _ -> false)

let datalog_partial_is_lower_bound =
  let edb =
    [
      ("e", List.init 29 (fun i -> [ Label.int i; Label.int (i + 1) ]));
      ("start", [ [ Label.int 0 ] ]);
      ("node", List.init 30 (fun i -> [ Label.int i ]));
    ]
    |> Relstore.Datalog.edb_of_list
  in
  let program =
    Relstore.Datalog.parse
      {| reach(?X) :- start(?X).
         reach(?Y) :- reach(?X), e(?X, ?Y).
         unreach(?X) :- node(?X), not reach(?X). |}
  in
  let tuples pred facts = try List.assoc pred facts with Not_found -> [] in
  qtest "datalog: partial facts subset of least model" ~count:80
    (Q.int_range 1 400)
    (fun steps ->
      let complete = Relstore.Datalog.eval ~edb program in
      let budget = Budget.create ~max_steps:steps () in
      match Relstore.Datalog.eval_outcome ~budget ~edb program with
      | Budget.Complete facts ->
        List.for_all
          (fun (pred, ts) ->
            List.sort compare ts = List.sort compare (tuples pred complete))
          facts
      | Budget.Partial (facts, Budget.Steps) ->
        List.for_all
          (fun (pred, ts) ->
            let full = tuples pred complete in
            List.for_all (fun t -> List.mem t full) ts)
          facts
      | Budget.Partial _ -> false)

let tests =
  [
    Alcotest.test_case "step budget counts" `Quick step_budget_counts;
    Alcotest.test_case "exempt suspends the budget" `Quick exempt_suspends;
    Alcotest.test_case "unlimited never exhausts" `Quick unlimited_never_exhausts;
    Alcotest.test_case "deadline exhausts" `Quick deadline_exhausts;
    Alcotest.test_case "deadline is wall-clock time" `Quick deadline_is_wall_clock;
    unql_partial_is_lower_bound;
    lorel_partial_is_lower_bound;
    datalog_partial_is_lower_bound;
  ]
