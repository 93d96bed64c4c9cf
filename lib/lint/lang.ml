(* The query languages behind one front end.  See lang.mli. *)

module Diag = Ssd_diag
module Graph = Ssd.Graph
module Label = Ssd.Label
module Budget = Ssd.Budget
module Metrics = Ssd_obs.Metrics

type t =
  | Unql
  | Lorel
  | Datalog
  | Websql

let names = [ ("unql", Unql); ("lorel", Lorel); ("datalog", Datalog); ("websql", Websql) ]

let name l = fst (List.find (fun (_, l') -> l' = l) names)

let of_string s =
  match List.assoc_opt s names with
  | Some l -> l
  | None -> Diag.error ~code:"SSD555" "unsupported query language %S" s

type compiled =
  | Unql of Unql.Ast.expr * Unql.Parser.marks
  | Lorel of Lorel.Ast.query * Lorel.Parser.marks
  | Datalog of Relstore.Datalog.program
  | Websql of Websql.Ast.query Lazy.t

type report = {
  diags : Diag.t list;
  paths_checked : int;
  dead_paths : int;
  reachable_labels : Label.t list;
  fingerprint : int option;
}

let m_checks = Metrics.counter "lint.checks"
let m_dead = Metrics.counter "lint.dead_paths"
let m_errors = Metrics.counter "lint.errors"
let m_warnings = Metrics.counter "lint.warnings"

let count r =
  Metrics.incr m_checks;
  Metrics.add m_dead r.dead_paths;
  Metrics.add m_errors (Diag.count Diag.Error r.diags);
  Metrics.add m_warnings (Diag.count Diag.Warning r.diags);
  r

let report_of diags =
  {
    diags;
    paths_checked = 0;
    dead_paths = 0;
    reachable_labels = [];
    fingerprint = None;
  }

let compile lang src =
  Ssd_obs.Trace.with_span "lang.compile" (fun () ->
      let syntax code msg =
        let d = Diag.make Diag.Error ~code msg in
        ignore (count (report_of [ d ]));
        raise (Diag.Fail d)
      in
      match (lang : t) with
      | Unql -> (
        match Unql.Parser.parse_with_marks src with
        | q, marks -> Unql (q, marks)
        | exception Unql.Parser.Parse_error msg -> syntax "SSD001" msg)
      | Lorel -> (
        match Lorel.Parser.parse_with_marks src with
        | q, marks -> Lorel (q, marks)
        | exception Lorel.Parser.Parse_error msg -> syntax "SSD002" msg)
      | Datalog -> (
        match Relstore.Datalog.parse src with
        | program -> Datalog program
        | exception Relstore.Datalog.Parse_error msg -> syntax "SSD003" msg)
      | Websql -> Websql (lazy (Websql.Parser.parse src)))

let lint ?db ?target ?(defined = []) c =
  let target =
    match (target, db) with
    | Some t, _ -> Some t
    | None, Some g -> Some (Lint_unql.Guide (Ssd_schema.Dataguide.build g))
    | None, None -> None
  in
  let report ?(paths_checked = 0) ?(dead_paths = 0) ?(reachable_labels = []) diags =
    Some (count { (report_of diags) with paths_checked; dead_paths; reachable_labels })
  in
  match c with
  | Unql (q, marks) ->
    let r = Lint_unql.check ?db ?target ~marks ~defined q in
    report ~paths_checked:r.paths_checked ~dead_paths:r.dead_paths
      ~reachable_labels:r.reachable_labels r.diags
  | Lorel (q, marks) ->
    let r = Lint_lorel.check ?target ~marks q in
    report ~paths_checked:r.paths_checked ~dead_paths:r.dead_paths r.diags
  | Datalog program -> report (Lint_datalog.check program).diags
  | Websql _ -> None

let fingerprint = function
  | Unql (q, _) -> Some (Unql.Cache.query_fingerprint q)
  | Lorel _ | Datalog _ | Websql _ -> None

let footprint = function
  | Unql (q, _) -> Unql.Footprint.of_expr q
  | Lorel _ | Datalog _ | Websql _ -> Unql.Footprint.Top

type estimate = {
  card : Lint_card.t;
  plan : string option;
}

let estimate ?declared ann = function
  | Unql (q, _) ->
    let plan = Unql.Pretty.expr_to_string (Unql.Optimize.reorder_generators ann q) in
    Some { card = Lint_card.check_unql ann ?declared q; plan = Some plan }
  | Lorel (q, _) -> Some { card = Lint_card.check_lorel ann q; plan = None }
  | Datalog program -> Some { card = Lint_card.check_datalog ann program; plan = None }
  | Websql _ -> None

type result =
  | Graph of Graph.t
  | Tuples of (string * Label.t list list) list
  | Relation of Relstore.Relation.t

let eval ?budget ?edb ~db c =
  let graph g = Graph g in
  match (c, budget) with
  | Unql (q, _), Some budget -> Budget.map graph (Unql.Eval.eval_outcome ~budget ~db q)
  | Unql (q, _), None -> Budget.Complete (Graph (Unql.Eval.eval ~db q))
  | Lorel (q, _), Some budget -> Budget.map graph (Lorel.Eval.eval_outcome ~budget ~db q)
  | Lorel (q, _), None -> Budget.Complete (Graph (Lorel.Eval.eval ~db q))
  | Datalog program, _ -> (
    let edb = match edb with Some edb -> edb () | None -> Relstore.Triple.edb db in
    let tuples = Relstore.Datalog.eval ?budget ~edb program in
    match budget with
    | Some budget -> Budget.map (fun r -> Tuples r) (Budget.wrap budget tuples)
    | None -> Budget.Complete (Tuples tuples))
  | Websql q, _ -> Budget.Complete (Relation (Websql.Eval.eval ~db (Lazy.force q)))

let render = function
  | Graph g -> Graph.to_string g ^ "\n"
  | Relation r -> Relstore.Relation.to_string r ^ "\n"
  | Tuples results ->
    let buf = Buffer.create 256 in
    List.iter
      (fun (pred, tuples) ->
        Printf.bprintf buf "%s: %d tuples\n" pred (List.length tuples);
        List.iter
          (fun tuple ->
            Printf.bprintf buf "  %s(%s)\n" pred
              (String.concat ", " (List.map Label.to_string tuple)))
          tuples)
      results;
    Buffer.contents buf

let rows = function
  | Graph g -> List.length (Graph.labeled_succ g (Graph.root g))
  | Tuples results -> List.fold_left (fun a (_, ts) -> a + List.length ts) 0 results
  | Relation r -> Relstore.Relation.cardinality r
