(** Abstract syntax of the UnQL-style query language (section 3).

    The language has the two components the paper describes: a
    "horizontal" select–where fragment (comprehensions over the edges of a
    node, to a fixed depth from the root, with regular path expressions
    for the unbounded-depth part) and a "vertical" fragment — structural
    recursion [sfun], well-defined on cyclic data through its bulk
    semantics (see {!Eval}). *)

module Label = Ssd.Label
module Lpred = Ssd_automata.Lpred
module Regex = Ssd_automata.Regex

(** A label position: a literal, or a name resolved at evaluation time to
    a bound label variable if one is in scope and to a symbol literal
    otherwise (the convention of UnQL's concrete syntax, where [t] and
    [\t] are binding and bound occurrences). *)
type label_expr =
  | Llit of Label.t
  | Lname of string

(** One step of an edge pattern.  A sequence of steps matches a path:
    single-edge steps consume one edge, a regex step spans any path whose
    word it accepts. *)
type step =
  | Slit of label_expr (** exact label (or bound label variable) *)
  | Sbind of string (** [\x] — binds the edge label *)
  | Spred of Lpred.t (** single edge whose label satisfies a predicate *)
  | Sregex of Regex.t * string option
      (** [<re>] — spans a path whose word [re] accepts; [<re> as \p]
          additionally binds [p] to (one shortest witness of) the matched
          path, reified as the chain tree [{l1: {l2: ... {}}}] *)

type pattern =
  | Pbind of string (** [\t] — binds the subtree *)
  | Pany (** [_] *)
  | Pedges of (step list * pattern) list
      (** [{steps1: p1, ..., stepsN: pN}] — conjunctive: every listed path
          must match, bindings joined consistently *)

type cmpop =
  | Eq
  | Neq
  | Lt
  | Le
  | Gt
  | Ge

(** A label-valued atom in a condition. *)
type atom =
  | Alit of Label.t
  | Aname of string

type cond =
  | Ccmp of cmpop * atom * atom
  | Cistype of string * atom (** [isint(a)], [isstring(a)], ... *)
  | Cstarts of atom * string (** [startswith(a, "pre")] *)
  | Ccontains of atom * string
  | Cempty of expr (** [isempty(e)] *)
  | Cequal of expr * expr (** extensional tree equality — decided by bisimulation *)
  | Cnot of cond
  | Cand of cond * cond
  | Cor of cond * cond

and clause =
  | Gen of pattern * expr (** [pattern <- e] *)
  | Where of cond

and expr =
  | Empty (** [{}] *)
  | Db (** the database the query runs against *)
  | Var of string (** tree variable (or [\l] label used as a leaf) *)
  | Tree of (label_expr * expr) list (** [{l1: e1, ..., ln: en}] *)
  | Union of expr * expr
  | Select of expr * clause list
  | If of cond * expr * expr
  | Let of string * expr * expr
  | Letsfun of sfun_def * expr
  | App of string * expr (** structural-recursion application [f(e)] *)

(** [sfun f({case1}) = e1 | f({case2}) = e2 | ...] — cases are tried in
    order on each edge; an edge matching no case contributes [{}]. *)
and sfun_def = {
  fname : string;
  cases : sfun_case list;
}

and sfun_case = {
  cstep : step; (** single-edge label pattern (regex steps not allowed) *)
  ctree : string; (** the bound subtree variable *)
  cbody : expr;
}

(* ------------------------------------------------------------------ *)
(* Free-variable and well-formedness helpers                           *)
(* ------------------------------------------------------------------ *)

let pattern_binders p =
  let rec go acc = function
    | Pbind x -> x :: acc
    | Pany -> acc
    | Pedges entries ->
      List.fold_left
        (fun acc (steps, sub) ->
          let acc =
            List.fold_left
              (fun acc -> function
                | Sbind x -> x :: acc
                | Sregex (_, Some p) -> p :: acc
                | Slit _ | Spred _ | Sregex (_, None) -> acc)
              acc steps
          in
          go acc sub)
        acc entries
  in
  List.sort_uniq String.compare (go [] p)

(* Structural restrictions on sfun definitions raise [Ssd_diag.Fail]
   under the same stable codes the static analyzer reports
   (SSD306/308/309), so a runtime rejection and a lint finding for one
   defect agree. *)

(** Free tree variables of an expression (label names are not included:
    an unbound label name just denotes a symbol literal). *)
let free_tree_vars e =
  let module S = Set.Make (String) in
  let rec go bound acc = function
    | Empty | Db -> acc
    | Var x -> if S.mem x bound then acc else S.add x acc
    | Tree entries -> List.fold_left (fun acc (_, e) -> go bound acc e) acc entries
    | Union (a, b) -> go bound (go bound acc a) b
    | Select (head, clauses) ->
      let bound', acc =
        List.fold_left
          (fun (bound, acc) clause ->
            match clause with
            | Gen (p, e) ->
              let acc = go bound acc e in
              let bound = List.fold_left (fun b x -> S.add x b) bound (pattern_binders p) in
              (bound, acc)
            | Where c -> (bound, go_cond bound acc c))
          (bound, acc) clauses
      in
      go bound' acc head
    | If (c, a, b) -> go bound (go bound (go_cond bound acc c) a) b
    | Let (x, a, b) -> go (S.add x bound) (go bound acc a) b
    | Letsfun (def, e) ->
      let acc =
        List.fold_left (fun acc c -> go (S.add c.ctree bound) acc c.cbody) acc def.cases
      in
      go bound acc e
    | App (_, arg) -> go bound acc arg
  and go_cond bound acc = function
    | Ccmp _ | Cistype _ | Cstarts _ | Ccontains _ -> acc
    | Cempty e -> go bound acc e
    | Cequal (a, b) -> go bound (go bound acc a) b
    | Cnot c -> go_cond bound acc c
    | Cand (a, b) | Cor (a, b) -> go_cond bound (go_cond bound acc a) b
  in
  S.elements (go S.empty S.empty e)

(* Enforce the UnQL restriction that makes structural recursion
   well-defined on cycles: inside the body of [sfun f], recursive
   applications of [f] take exactly the case's tree variable. *)
let check_sfun def =
  let check_case c =
    let rec go = function
      | Empty | Db | Var _ -> ()
      | Tree entries -> List.iter (fun (_, e) -> go e) entries
      | Union (a, b) -> (go a; go b)
      | Select (head, clauses) ->
        go head;
        List.iter (function Gen (_, e) -> go e | Where c -> go_cond c) clauses
      | If (c, a, b) ->
        go_cond c;
        go a;
        go b
      | Let (_, a, b) -> (go a; go b)
      | Letsfun (d, e) ->
        if d.fname = def.fname then
          Ssd_diag.error ~code:"SSD309" "sfun %s shadowed inside its own body" def.fname;
        List.iter (fun c -> go c.cbody) d.cases;
        go e
      | App (f, arg) ->
        if f = def.fname then begin
          match arg with
          | Var v when v = c.ctree -> ()
          | _ ->
            Ssd_diag.error ~code:"SSD306"
              "recursive call %s(...) must be applied to the case's tree variable %s"
              def.fname c.ctree
        end
        else go arg
    and go_cond = function
      | Ccmp _ | Cistype _ | Cstarts _ | Ccontains _ -> ()
      | Cempty e -> go e
      | Cequal (a, b) -> (go a; go b)
      | Cnot c -> go_cond c
      | Cand (a, b) | Cor (a, b) -> (go_cond a; go_cond b)
    in
    (match c.cstep with
     | Sregex _ ->
       Ssd_diag.error ~code:"SSD308" "sfun case patterns match a single edge, not a path"
     | Slit _ | Sbind _ | Spred _ -> ());
    go c.cbody
  in
  List.iter check_case def.cases
