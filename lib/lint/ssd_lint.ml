module Diag = Ssd_diag
module Unql_lint = Lint_unql
module Lorel_lint = Lint_lorel
module Datalog_lint = Lint_datalog

module Lang = Lang

type target = Lint_unql.target =
  | Guide of Ssd_schema.Dataguide.t
  | Schema of Ssd_schema.Gschema.t

type lang = Lang.t =
  | Unql
  | Lorel
  | Datalog
  | Websql

type report = Lang.report = {
  diags : Diag.t list;
  paths_checked : int;
  dead_paths : int;
  reachable_labels : Ssd.Label.t list;
  fingerprint : int option;
}

let errors r = Diag.count Diag.Error r.diags
let warnings r = Diag.count Diag.Warning r.diags

let check_src ~lang ?db ?target ?defined src =
  match Lang.compile lang src with
  | exception Diag.Fail d -> Lang.report_of [ d ]
  | c -> (
    match Lang.lint ?db ?target ?defined c with
    | Some r -> { r with fingerprint = Lang.fingerprint c }
    | None -> Lang.report_of [])

module Card = Lint_card

let check_uncal u =
  let ins = Unql.Uncal.inputs u and outs = Unql.Uncal.outputs u in
  let undefined =
    List.filter_map
      (fun y ->
        if List.mem y ins then None
        else
          Some
            (Diag.make Diag.Warning ~code:"SSD311"
               (Printf.sprintf
                  "output marker &%s has no matching input (it will be closed to {})" y)))
      outs
  in
  let unused =
    List.filter_map
      (fun y ->
        if y = Unql.Uncal.amp || List.mem y outs then None
        else
          Some
            (Diag.make Diag.Warning ~code:"SSD312"
               (Printf.sprintf "input marker &%s is defined but never used as an output"
                  y)))
      ins
  in
  Diag.sort (undefined @ unused)

let prune = Lint_unql.prune
