(* Static analysis of datalog programs: safety (SSD20x, the range
   restriction), stratifiability (SSD210), and two consistency checks
   the evaluator does not enforce — references to predicates that are
   neither derived nor extensional (SSD211) and predicates used at
   inconsistent arities (SSD212).

   Safety and stratification are re-run here as {e diagnostics} rather
   than by catching the evaluator's exceptions one at a time: the
   evaluator stops at the first offence, the linter reports all of
   them. *)

module D = Relstore.Datalog
module Diag = Ssd_diag
module SMap = Map.Make (String)
module SSet = Set.Make (String)

type report = {
  diags : Diag.t list;
  n_rules : int;
}

let rule_str r = Format.asprintf "%a" D.pp_rule r

let term_vars acc = function
  | D.Var v -> SSet.add v acc
  | D.Const _ -> acc

let atom_vars acc (a : D.atom) = List.fold_left term_vars acc a.D.args

(* Default extensional predicates: the triple encoding every graph
   program in this repo runs against ({!Relstore.Triple.edb}). *)
let triple_edb_preds = [ ("edge", 3); ("root", 1) ]

let check ?(edb_preds = triple_edb_preds) (program : D.program) =
  let diags = ref [] in
  let diag sev ~code fmt =
    Printf.ksprintf (fun msg -> diags := Diag.make sev ~code msg :: !diags) fmt
  in
  (* --- safety: every head / negated / compared variable must occur in
     a positive body literal of the same rule --- *)
  List.iter
    (fun r ->
      let positive =
        List.fold_left
          (fun acc -> function D.Pos a -> atom_vars acc a | D.Neg _ | D.Cmp _ -> acc)
          SSet.empty r.D.body
      in
      let flag ~code where v =
        if not (SSet.mem v positive) then
          diag Diag.Error ~code "unsafe rule: variable ?%s in %s is not bound by a \
                                 positive body literal  [%s]"
            v where (rule_str r)
      in
      SSet.iter (flag ~code:"SSD201" "the head") (atom_vars SSet.empty r.D.head);
      List.iter
        (function
          | D.Pos _ -> ()
          | D.Neg a ->
            SSet.iter (flag ~code:"SSD202" "a negated literal") (atom_vars SSet.empty a)
          | D.Cmp (_, a, b) ->
            SSet.iter (flag ~code:"SSD203" "a comparison")
              (term_vars (term_vars SSet.empty a) b))
        r.D.body)
    program;
  (* --- stratification --- *)
  (match D.n_strata program with
   | _ -> ()
   | exception Ssd_diag.Fail d when d.Ssd_diag.code = "SSD210" -> diags := d :: !diags
   | exception Ssd_diag.Fail _ -> () (* safety: already reported above, with more detail *));
  (* --- unknown predicates / inconsistent arities --- *)
  let idb = List.fold_left (fun s r -> SSet.add r.D.head.D.pred s) SSet.empty program in
  let known =
    List.fold_left (fun s (p, _) -> SSet.add p s) idb edb_preds
  in
  let arities = Hashtbl.create 16 in
  let note_arity (a : D.atom) =
    let n = List.length a.D.args in
    match Hashtbl.find_opt arities a.D.pred with
    | None -> Hashtbl.add arities a.D.pred (n, false)
    | Some (m, warned) ->
      if n <> m && not warned then begin
        Hashtbl.replace arities a.D.pred (m, true);
        diag Diag.Warning ~code:"SSD212"
          "predicate %s is used with arity %d and arity %d" a.D.pred n m
      end
  in
  List.iter (fun (p, n) -> Hashtbl.replace arities p (n, false)) edb_preds;
  let warned_unknown = ref SSet.empty in
  List.iter
    (fun r ->
      note_arity r.D.head;
      List.iter
        (function
          | D.Pos a | D.Neg a ->
            note_arity a;
            if (not (SSet.mem a.D.pred known)) && not (SSet.mem a.D.pred !warned_unknown)
            then begin
              warned_unknown := SSet.add a.D.pred !warned_unknown;
              diag Diag.Warning ~code:"SSD211"
                "predicate %s is neither derived by a rule nor extensional" a.D.pred
            end
          | D.Cmp _ -> ())
        r.D.body)
    program;
  { diags = Diag.sort (List.rev !diags); n_rules = List.length program }
