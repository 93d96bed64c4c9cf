module Label = Ssd.Label
module Relation = Relstore.Relation
open Ast

let reachable w ~start path =
  let seen = Hashtbl.create 64 in
  let answers = Hashtbl.create 16 in
  let rec go d r =
    if r <> Void && not (Hashtbl.mem seen (d, r)) then begin
      Hashtbl.add seen (d, r) ();
      if nullable r then Hashtbl.replace answers d ();
      List.iter (fun (kind, q) -> go q (deriv r kind)) (Web.links w d)
    end
  in
  go start path;
  Hashtbl.fold (fun d () acc -> d :: acc) answers [] |> List.sort_uniq compare

let contains_substring hay needle =
  let nh = String.length hay and nn = String.length needle in
  if nn = 0 then true
  else
    let rec at i = i + nn <= nh && (String.sub hay i nn = needle || at (i + 1)) in
    at 0

let eval_operand w env = function
  | Lit s -> Some s
  | Dattr (d, a) -> (
    match List.assoc_opt d env with
    | None -> Ssd_diag.error ~code:"SSD410" "unbound document variable %s" d
    | Some doc -> Web.attr w doc a)

let rec eval_cond w env = function
  | Equals (o1, o2) -> (
    match eval_operand w env o1, eval_operand w env o2 with
    | Some a, Some b -> a = b
    | _ -> false)
  | Contains (o, needle) -> (
    match eval_operand w env o with
    | Some s -> contains_substring s needle
    | None -> false)
  | Mentions (d, needle) -> (
    match List.assoc_opt d env with
    | None -> Ssd_diag.error ~code:"SSD410" "unbound document variable %s" d
    | Some doc -> List.exists (fun s -> contains_substring s needle) (Web.texts w doc))
  | And (a, b) -> eval_cond w env a && eval_cond w env b
  | Or (a, b) -> eval_cond w env a || eval_cond w env b
  | Not c -> not (eval_cond w env c)

let eval ~db q =
  let w = Web.of_graph db in
  let bind envs spec =
    List.concat_map
      (fun env ->
        let starts =
          match spec.start with
          | From_url u -> (
            match Web.by_url w u with
            | Some d -> [ d ]
            | None -> [])
          | From_var x -> (
            match List.assoc_opt x env with
            | Some d -> [ d ]
            | None -> Ssd_diag.error ~code:"SSD410" "unbound document variable %s" x)
          | From_anywhere -> Web.documents w
        in
        List.concat_map
          (fun start ->
            List.map (fun d -> (spec.dvar, d) :: env) (reachable w ~start spec.path))
          starts)
      envs
  in
  let envs = List.fold_left bind [ [] ] q.from in
  let envs =
    match q.where with
    | None -> envs
    | Some c -> List.filter (fun env -> eval_cond w env c) envs
  in
  let attrs = List.map (fun (d, a) -> d ^ "_" ^ a) q.select in
  List.fold_left
    (fun rel env ->
      let row =
        Array.of_list
          (List.map
             (fun (d, a) ->
               Label.Str (Option.value ~default:"" (eval_operand w env (Dattr (d, a)))))
             q.select)
      in
      Relation.add rel row)
    (Relation.create attrs) envs

let run ~db src = eval ~db (Parser.parse src)
