(* Budgets under parallel evaluation.

   Workers consume the (atomic) step budget concurrently, so *which*
   prefix of the work gets done before exhaustion may differ from the
   sequential run — but a parallel [Partial] answer must still be a
   sound lower bound of the sequential [Complete] one, and exhaustion
   must never deadlock the pool or leak worker domains. *)

module Pool = Ssd_par.Pool
module Budget = Ssd.Budget
module Label = Ssd.Label
open Gen

let check = Alcotest.(check bool)

let with_jobs jobs f =
  Pool.set_default_jobs jobs;
  Fun.protect ~finally:(fun () -> Pool.set_default_jobs 1) f

let unql_parallel_partial_is_lower_bound =
  qtest "unql: parallel partial simulated by sequential complete" ~count:50
    (Q.triple graph unql_query (Q.int_range 1 60))
    (fun (db, q, steps) ->
      let complete = Unql.Eval.eval ~db q in
      with_jobs 4 (fun () ->
          let budget = Budget.create ~max_steps:steps () in
          match Unql.Eval.eval_outcome ~budget ~db q with
          | Budget.Complete g -> Ssd.Bisim.equal g complete
          | Budget.Partial (g, Budget.Steps) -> Ssd.Simulation.simulates g complete
          | Budget.Partial _ -> false))

let datalog_parallel_partial_is_subset =
  let edb =
    [
      ("e", List.init 40 (fun i -> [ Label.int i; Label.int (i + 1) ]));
      ("start", [ [ Label.int 0 ] ]);
      ("node", List.init 41 (fun i -> [ Label.int i ]));
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
  qtest "datalog: parallel partial facts subset of least model" ~count:60
    (Q.int_range 1 300)
    (fun steps ->
      let complete = Relstore.Datalog.eval ~edb program in
      with_jobs 4 (fun () ->
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
          | Budget.Partial _ -> false))

let budget_overshoot_is_bounded =
  (* Concurrent Budget.step callers may each win a grant before seeing
     the trip, so the grant count can exceed max_steps — but only by at
     most the number of racing domains. *)
  qtest "budget: concurrent grants overshoot by at most #domains" ~count:30
    (Q.pair (Q.int_range 1 200) (Q.oneofl [ 2; 4; 8 ]))
    (fun (max_steps, domains) ->
      let b = Budget.create ~max_steps () in
      let granted = Atomic.make 0 in
      let worker () =
        for _ = 1 to max_steps do
          if Budget.step b then Atomic.incr granted
        done
      in
      let ds = List.init (domains - 1) (fun _ -> Domain.spawn worker) in
      worker ();
      List.iter Domain.join ds;
      let g = Atomic.get granted in
      g >= max_steps && g <= max_steps + domains
      && Budget.exhausted b = Some Budget.Steps
      && Budget.steps_used b <= max_steps)

let exceptions_propagate_and_pool_survives () =
  (* A raising worker function must re-raise on the caller, leave the
     pool reusable, and repeated setup/teardown must neither deadlock
     nor leak domains (the soak would hang or die if it did). *)
  for _ = 1 to 50 do
    let pool = Pool.create ~jobs:4 in
    let raised =
      try
        ignore
          (Pool.map_range ~pool ~min_par:1 64 (fun i ->
               if i = 33 then failwith "boom" else i));
        false
      with Failure m -> m = "boom"
    in
    check "exception propagates to caller" true raised;
    (* the barrier is intact: the next region on the same pool works *)
    let ok = Pool.map_range ~pool ~min_par:1 64 Fun.id = Array.init 64 Fun.id in
    check "pool survives a failed region" true ok;
    Pool.shutdown pool;
    (* shutdown is idempotent *)
    Pool.shutdown pool
  done

let exhaustion_mid_region_terminates () =
  (* Budget exhaustion inside a parallel region must stop cleanly: the
     evaluator returns Partial, never hangs on the barrier. *)
  let db = Ssd_workload.Webgraph.generate ~n_pages:200 () in
  let q =
    Unql.Parser.parse
      {| select {t: \T} where {<host.page.(link)*.title>: \T} <- DB |}
  in
  let complete = Unql.Eval.eval ~db q in
  with_jobs 4 (fun () ->
      List.iter
        (fun steps ->
          let budget = Budget.create ~max_steps:steps () in
          match Unql.Eval.eval_outcome ~budget ~db q with
          | Budget.Complete g ->
            check "complete matches" true (Ssd.Bisim.equal g complete)
          | Budget.Partial (g, _) ->
            check "partial is lower bound" true (Ssd.Simulation.simulates g complete))
        [ 1; 7; 50; 400; 3000 ])

let tests =
  [
    unql_parallel_partial_is_lower_bound;
    datalog_parallel_partial_is_subset;
    budget_overshoot_is_bounded;
    Alcotest.test_case "pool: exceptions propagate, setup/teardown soak" `Quick
      exceptions_propagate_and_pool_survives;
    Alcotest.test_case "budget: exhaustion mid-region terminates" `Quick
      exhaustion_mid_region_terminates;
  ]
