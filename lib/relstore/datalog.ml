module Label = Ssd.Label
module Budget = Ssd.Budget
module Metrics = Ssd_obs.Metrics
module Trace = Ssd_obs.Trace

(* Execution counters (lib/obs), reported to [Metrics.default]. *)
let m_evals = Metrics.counter "datalog.eval.programs"
let m_rounds = Metrics.counter "datalog.seminaive.rounds"
let m_delta = Metrics.counter "datalog.seminaive.delta_tuples"
let m_facts = Metrics.counter "datalog.facts_derived"
let m_firings = Metrics.counter "datalog.rule_firings"
let t_eval = Metrics.timer "datalog.eval.time"
let h_delta = Metrics.histogram "datalog.seminaive.delta_size"

type term =
  | Var of string
  | Const of Label.t

type atom = {
  pred : string;
  args : term list;
}

type cmp =
  | Eq
  | Neq
  | Lt
  | Le
  | Gt
  | Ge

type literal =
  | Pos of atom
  | Neg of atom
  | Cmp of cmp * term * term

type rule = {
  head : atom;
  body : literal list;
}

type program = rule list

exception Parse_error of string
(* Safety and stratification violations carry a diagnostic under the
   analyzer's codes (SSD201/202/203 safety, SSD210 stratification), so a
   runtime rejection and a lint finding for one defect agree. *)
exception Unsafe of Ssd_diag.t
exception Not_stratified of Ssd_diag.t

let unsafe ~code fmt =
  Printf.ksprintf
    (fun msg -> raise (Unsafe (Ssd_diag.make Ssd_diag.Error ~code msg)))
    fmt

let () =
  Printexc.register_printer (function
    | Unsafe d -> Some ("Datalog.Unsafe: " ^ Ssd_diag.to_string d)
    | Not_stratified d -> Some ("Datalog.Not_stratified: " ^ Ssd_diag.to_string d)
    | _ -> None)

(* ------------------------------------------------------------------ *)
(* Printing                                                            *)
(* ------------------------------------------------------------------ *)

let pp_term fmt = function
  | Var v -> Format.fprintf fmt "?%s" v
  | Const l -> Label.pp fmt l

let pp_atom fmt a =
  Format.fprintf fmt "%s(%s)" a.pred
    (String.concat ", " (List.map (Format.asprintf "%a" pp_term) a.args))

let cmp_name = function
  | Eq -> "="
  | Neq -> "!="
  | Lt -> "<"
  | Le -> "<="
  | Gt -> ">"
  | Ge -> ">="

let pp_literal fmt = function
  | Pos a -> pp_atom fmt a
  | Neg a -> Format.fprintf fmt "not %a" pp_atom a
  | Cmp (op, t1, t2) -> Format.fprintf fmt "%a %s %a" pp_term t1 (cmp_name op) pp_term t2

let pp_rule fmt r =
  match r.body with
  | [] -> Format.fprintf fmt "%a." pp_atom r.head
  | body ->
    Format.fprintf fmt "%a :- %s." pp_atom r.head
      (String.concat ", " (List.map (Format.asprintf "%a" pp_literal) body))

let pp_program fmt p =
  Format.fprintf fmt "@[<v>";
  List.iter (fun r -> Format.fprintf fmt "%a@," pp_rule r) p;
  Format.fprintf fmt "@]"

(* ------------------------------------------------------------------ *)
(* Parser                                                              *)
(* ------------------------------------------------------------------ *)

type token =
  | Tident of string
  | Tvar of string
  | Tlabel of Label.t
  | Tlparen
  | Trparen
  | Tcomma
  | Tperiod
  | Tturnstile
  | Tnot
  | Tcmp of cmp
  | Teof

let tokenize src =
  let n = String.length src in
  let pos = ref 0 in
  let anon = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "at offset %d: %s" !pos msg)) in
  let toks = ref [] in
  let push t = toks := t :: !toks in
  let lex_ident () =
    let start = !pos in
    while !pos < n && Label.is_ident_char src.[!pos] do
      incr pos
    done;
    String.sub src start (!pos - start)
  in
  while !pos < n do
    match src.[!pos] with
    | ' ' | '\t' | '\n' | '\r' -> incr pos
    | '%' | '#' ->
      while !pos < n && src.[!pos] <> '\n' do
        incr pos
      done
    | '(' ->
      incr pos;
      push Tlparen
    | ')' ->
      incr pos;
      push Trparen
    | ',' ->
      incr pos;
      push Tcomma
    | '.' ->
      incr pos;
      push Tperiod
    | '?' ->
      incr pos;
      let v = lex_ident () in
      if v = "" then fail "expected a variable name after '?'";
      push (Tvar v)
    | '_' when !pos + 1 >= n || not (Label.is_ident_char src.[!pos + 1]) ->
      incr pos;
      incr anon;
      push (Tvar (Printf.sprintf "_anon%d" !anon))
    | ':' ->
      if !pos + 1 < n && src.[!pos + 1] = '-' then begin
        pos := !pos + 2;
        push Tturnstile
      end
      else fail "expected ':-'"
    | '=' ->
      incr pos;
      push (Tcmp Eq)
    | '!' ->
      if !pos + 1 < n && src.[!pos + 1] = '=' then begin
        pos := !pos + 2;
        push (Tcmp Neq)
      end
      else fail "expected '!='"
    | '<' ->
      if !pos + 1 < n && src.[!pos + 1] = '=' then begin
        pos := !pos + 2;
        push (Tcmp Le)
      end
      else begin
        incr pos;
        push (Tcmp Lt)
      end
    | '>' ->
      if !pos + 1 < n && src.[!pos + 1] = '=' then begin
        pos := !pos + 2;
        push (Tcmp Ge)
      end
      else begin
        incr pos;
        push (Tcmp Gt)
      end
    | '"' ->
      let buf = Buffer.create 8 in
      incr pos;
      let rec loop () =
        if !pos >= n then fail "unterminated string"
        else
          match src.[!pos] with
          | '"' -> incr pos
          | '\\' when !pos + 1 < n ->
            (match src.[!pos + 1] with
             | 'n' -> Buffer.add_char buf '\n'
             | 't' -> Buffer.add_char buf '\t'
             | c -> Buffer.add_char buf c);
            pos := !pos + 2;
            loop ()
          | c ->
            Buffer.add_char buf c;
            incr pos;
            loop ()
      in
      loop ();
      push (Tlabel (Label.Str (Buffer.contents buf)))
    | '-' | '0' .. '9' ->
      let start = !pos in
      let numchar c =
        (c >= '0' && c <= '9') || c = '-' || c = '+' || c = 'e' || c = 'E' || c = '.'
      in
      (* Lookahead: '.' ends a clause unless followed by a digit. *)
      while
        !pos < n
        && numchar src.[!pos]
        && not (src.[!pos] = '.' && not (!pos + 1 < n && src.[!pos + 1] >= '0' && src.[!pos + 1] <= '9'))
      do
        incr pos
      done;
      let s = String.sub src start (!pos - start) in
      (match int_of_string_opt s with
       | Some i -> push (Tlabel (Label.Int i))
       | None ->
         (match float_of_string_opt s with
          | Some f -> push (Tlabel (Label.Float f))
          | None -> fail ("bad number " ^ s)))
    | c when Label.is_ident_start c ->
      let id = lex_ident () in
      (match id with
       | "not" -> push Tnot
       | "true" -> push (Tlabel (Label.Bool true))
       | "false" -> push (Tlabel (Label.Bool false))
       | _ -> push (Tident id))
    | c -> fail (Printf.sprintf "unexpected character %C" c)
  done;
  List.rev (Teof :: !toks)

type pstate = { mutable toks : token list }

let peek st = match st.toks with [] -> Teof | t :: _ -> t
let shift st = match st.toks with [] -> () | _ :: rest -> st.toks <- rest

let expect st tok msg = if peek st = tok then shift st else raise (Parse_error msg)

let parse_term st =
  match peek st with
  | Tvar v ->
    shift st;
    Var v
  | Tlabel l ->
    shift st;
    Const l
  | Tident id ->
    shift st;
    Const (Label.Sym id)
  | _ -> raise (Parse_error "expected a term")

let parse_atom st =
  match peek st with
  | Tident p ->
    shift st;
    expect st Tlparen ("expected '(' after predicate " ^ p);
    let args = ref [] in
    if peek st <> Trparen then begin
      args := [ parse_term st ];
      while peek st = Tcomma do
        shift st;
        args := parse_term st :: !args
      done
    end;
    expect st Trparen "expected ')'";
    { pred = p; args = List.rev !args }
  | _ -> raise (Parse_error "expected a predicate atom")

let parse_literal st =
  match peek st with
  | Tnot ->
    shift st;
    Neg (parse_atom st)
  | Tident _ -> (
    (* Could be an atom p(...) or a symbol constant in a comparison. *)
    match st.toks with
    | Tident _ :: Tlparen :: _ -> Pos (parse_atom st)
    | _ ->
      let t1 = parse_term st in
      (match peek st with
       | Tcmp op ->
         shift st;
         let t2 = parse_term st in
         Cmp (op, t1, t2)
       | _ -> raise (Parse_error "expected a comparison operator")))
  | _ ->
    let t1 = parse_term st in
    (match peek st with
     | Tcmp op ->
       shift st;
       let t2 = parse_term st in
       Cmp (op, t1, t2)
     | _ -> raise (Parse_error "expected a comparison operator"))

let parse_rule st =
  let head = parse_atom st in
  let body =
    match peek st with
    | Tturnstile ->
      shift st;
      let lits = ref [ parse_literal st ] in
      while peek st = Tcomma do
        shift st;
        lits := parse_literal st :: !lits
      done;
      List.rev !lits
    | _ -> []
  in
  expect st Tperiod "expected '.' at end of rule";
  { head; body }

let parse src =
  let st = { toks = tokenize src } in
  let rules = ref [] in
  while peek st <> Teof do
    rules := parse_rule st :: !rules
  done;
  List.rev !rules

(* ------------------------------------------------------------------ *)
(* Safety and stratification                                           *)
(* ------------------------------------------------------------------ *)

let term_vars = List.filter_map (function Var v -> Some v | Const _ -> None)

let check_safety program =
  List.iter
    (fun r ->
      let positive_vars =
        List.concat_map
          (function Pos a -> term_vars a.args | Neg _ | Cmp _ -> [])
          r.body
      in
      let check_var ~code where v =
        if not (List.mem v positive_vars) then
          unsafe ~code
            "variable ?%s in %s of rule '%s' is not bound by a positive literal" v
            where
            (Format.asprintf "%a" pp_rule r)
      in
      List.iter (check_var ~code:"SSD201" "head") (term_vars r.head.args);
      List.iter
        (function
          | Neg a ->
            List.iter (check_var ~code:"SSD202" "negated literal") (term_vars a.args)
          | Cmp (_, t1, t2) ->
            List.iter (check_var ~code:"SSD203" "comparison") (term_vars [ t1; t2 ])
          | Pos _ -> ())
        r.body)
    program

(* stratum.(p): strata are computed by relaxation; a negative dependency
   forces a strictly higher stratum, so divergence beyond the number of
   predicates means negation through recursion. *)
let stratify program =
  let idb = List.map (fun r -> r.head.pred) program |> List.sort_uniq String.compare in
  let strata = Hashtbl.create 16 in
  List.iter (fun p -> Hashtbl.replace strata p 0) idb;
  let stratum_of p = Option.value ~default:0 (Hashtbl.find_opt strata p) in
  let n_idb = List.length idb in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun r ->
        let lower =
          List.fold_left
            (fun acc lit ->
              match lit with
              | Pos a when List.mem a.pred idb -> max acc (stratum_of a.pred)
              | Neg a when List.mem a.pred idb -> max acc (stratum_of a.pred + 1)
              | Pos _ | Neg _ | Cmp _ -> acc)
            0 r.body
        in
        if lower > stratum_of r.head.pred then begin
          if lower > n_idb then
            raise
              (Not_stratified
                 (Ssd_diag.make Ssd_diag.Error ~code:"SSD210"
                    ("predicate " ^ r.head.pred ^ " negates through recursion")));
          Hashtbl.replace strata r.head.pred lower;
          changed := true
        end)
      program
  done;
  strata

let n_strata program =
  check_safety program;
  let strata = stratify program in
  1 + Hashtbl.fold (fun _ s acc -> max acc s) strata 0

(* ------------------------------------------------------------------ *)
(* Evaluation                                                          *)
(* ------------------------------------------------------------------ *)

module Env = Map.Make (String)

(* Tuple sets carry per-position hash indexes so that a body literal with
   a bound argument probes instead of scanning — the difference between a
   nested-loop and an indexed join. *)
type tuple_set = {
  table : (Label.t list, unit) Hashtbl.t;
  index : (int * Label.t, Label.t list list ref) Hashtbl.t;
}

(* [freeze] relies on every set's table starting at this size. *)
let set_table_size = 64

let set_create () = { table = Hashtbl.create set_table_size; index = Hashtbl.create 64 }

let set_mem s t = Hashtbl.mem s.table t

let set_add s t =
  if not (Hashtbl.mem s.table t) then begin
    Hashtbl.replace s.table t ();
    List.iteri
      (fun i v ->
        match Hashtbl.find_opt s.index (i, v) with
        | Some r -> r := t :: !r
        | None -> Hashtbl.add s.index (i, v) (ref [ t ]))
      t
  end

let set_to_list s = Hashtbl.fold (fun t () acc -> t :: acc) s.table []

let set_probe s ~pos ~value =
  match Hashtbl.find_opt s.index (pos, value) with
  | Some r -> !r
  | None -> []

let set_size s = Hashtbl.length s.table

(* A frozen relation: one extensional predicate of an {!edb}, immutable
   once built, so concurrent evaluations (and the chunked parallel
   firing) read it without locks.  Row [i] of the relation is
   [cols.(0).(i)], [cols.(1).(i)], ...  The row-order rule: rows are
   numbered in the order [set_to_list] lists a mutable set into which
   the same tuples were inserted in EDB order, and [probe.(pos)] maps a
   value to its rows in that set's [set_probe] order, so a scan or a
   probe enumerates exactly what the set would, in the same order.
   There is no tuple table: membership probes position 0.  [order]
   holds the row ids in first-insertion order, from which [set_of_rel]
   rebuilds that very set. *)
type rel = {
  n_rows : int;
  arity : int; (* -1: mixed arities, see [arities] *)
  arities : int array; (* per row, only when [arity = -1] *)
  cols : Label.t array array;
  probe : (Label.t, int array) Hashtbl.t array;
  order : int array;
}

type edb = (string, rel) Hashtbl.t

(* A relation as the evaluator reads it: a mutable set (IDB predicates,
   deltas, private copies), a frozen EDB relation, or a frozen relation
   plus the tuples {!Incremental.advance} inserted since. *)
type view =
  | Mut of tuple_set
  | Frozen of rel
  | Grown of rel * tuple_set

let row_arity r i = if r.arity >= 0 then r.arity else r.arities.(i)

let row_to_list r i = List.init (row_arity r i) (fun j -> r.cols.(j).(i))

let rel_probe r ~pos ~value =
  if pos >= Array.length r.probe then [||]
  else Option.value ~default:[||] (Hashtbl.find_opt r.probe.(pos) value)

let row_equal r i tuple =
  let a = row_arity r i in
  let rec go j = function
    | [] -> j = a
    | v :: rest -> j < a && Label.equal r.cols.(j).(i) v && go (j + 1) rest
  in
  go 0 tuple

let rel_mem r = function
  | [] ->
    let rec go i = i < r.n_rows && (row_arity r i = 0 || go (i + 1)) in
    go 0
  | v :: _ as tuple ->
    Array.exists (fun i -> row_equal r i tuple) (rel_probe r ~pos:0 ~value:v)

let view_mem view tuple =
  match view with
  | Mut s -> set_mem s tuple
  | Frozen r -> rel_mem r tuple
  | Grown (r, s) -> rel_mem r tuple || set_mem s tuple

let eval_term env = function
  | Const l -> l
  | Var v -> (
    match Env.find_opt v env with
    | Some l -> l
    | None -> unsafe ~code:"SSD203" "unbound variable ?%s" v)

(* Match an atom's args against a concrete tuple under [env]; None on
   mismatch. *)
let match_tuple env args tuple =
  let rec go env args tuple =
    match args, tuple with
    | [], [] -> Some env
    | arg :: args, v :: tuple -> (
      match arg with
      | Const l -> if Label.equal l v then go env args tuple else None
      | Var x -> (
        match Env.find_opt x env with
        | Some l -> if Label.equal l v then go env args tuple else None
        | None -> go (Env.add x v env) args tuple))
    | _ -> None
  in
  go env args tuple

(* [match_tuple] against row [i] of a frozen relation, read in place
   (written out rather than shared: this is the join's inner loop). *)
let match_row env args r i =
  let a = row_arity r i in
  let rec go env j args =
    match args with
    | [] -> if j = a then Some env else None
    | _ when j >= a -> None
    | arg :: args -> (
      let v = r.cols.(j).(i) in
      match arg with
      | Const l -> if Label.equal l v then go env (j + 1) args else None
      | Var x -> (
        match Env.find_opt x env with
        | Some l -> if Label.equal l v then go env (j + 1) args else None
        | None -> go (Env.add x v env) (j + 1) args))
  in
  go env 0 args

let eval_cmp op l1 l2 =
  let c = Label.compare l1 l2 in
  match op with
  | Eq -> c = 0
  | Neq -> c <> 0
  | Lt -> c < 0
  | Le -> c <= 0
  | Gt -> c > 0
  | Ge -> c >= 0

(* First argument position whose value is fixed under [env]; probing that
   position's index replaces a relation scan. *)
let bound_position env args =
  let rec go i = function
    | [] -> None
    | Const l :: _ -> Some (i, l)
    | Var x :: rest -> (
      match Env.find_opt x env with
      | Some l -> Some (i, l)
      | None -> go (i + 1) rest)
  in
  go 0 args

(* Calls [k] with every extension of [env] matching [args] against a
   tuple of [view]: a probe of the first bound position's index, else a
   scan, in the same order for every kind of view. *)
let rec iter_matches view env args k =
  match view with
  | Mut s ->
    let candidates =
      match bound_position env args with
      | Some (pos, value) -> set_probe s ~pos ~value
      | None -> set_to_list s
    in
    List.iter
      (fun t -> match match_tuple env args t with Some env' -> k env' | None -> ())
      candidates
  | Frozen r -> (
    let visit i = match match_row env args r i with Some env' -> k env' | None -> () in
    match bound_position env args with
    | Some (pos, value) -> Array.iter visit (rel_probe r ~pos ~value)
    | None ->
      for i = 0 to r.n_rows - 1 do
        visit i
      done)
  | Grown (r, s) ->
    iter_matches (Frozen r) env args k;
    iter_matches (Mut s) env args k

(* Evaluate the body left-to-right over environments.  [set_of] maps a
   predicate to its current view; the positive literal at index
   [delta_at] (if given) reads [delta] instead — or, if [delta_list] is
   given, exactly that tuple list in order (used by the chunked parallel
   firing, where the slice stands in for the delta). *)
let eval_rule_raw ~set_of ?delta_at ?delta ?delta_list rule =
  let results = ref [] in
  let rec go i env lits =
    match lits with
    | [] ->
      let tuple = List.map (eval_term env) rule.head.args in
      results := tuple :: !results
    | Pos a :: rest -> (
      let k env' = go (i + 1) env' rest in
      match delta_at, delta_list with
      | Some d, Some tuples when d = i ->
        List.iter
          (fun t -> match match_tuple env a.args t with Some env' -> k env' | None -> ())
          tuples
      | _ ->
        let view =
          match delta_at, delta with
          | Some d, Some dset when d = i -> Mut dset
          | _ -> set_of a.pred
        in
        iter_matches view env a.args k)
    | Neg a :: rest ->
      let tuple = List.map (eval_term env) a.args in
      if not (view_mem (set_of a.pred) tuple) then go (i + 1) env rest
    | Cmp (op, t1, t2) :: rest ->
      if eval_cmp op (eval_term env t1) (eval_term env t2) then go (i + 1) env rest
  in
  go 0 Env.empty rule.body;
  !results

let eval_rule ~set_of ?delta_at ?delta rule =
  Metrics.incr m_firings;
  eval_rule_raw ~set_of ?delta_at ?delta rule

(* Fire [rule] with the delta literal at [delta_at] reading [delta],
   partitioned across the domain pool when the delta literal is the
   outermost enumeration (no positive literal before it — the common
   shape for linear recursion, e.g. [reach(?Y) :- reach(?X), e(?X,?Y)]).
   The delta is materialized once; each chunk fires the rule over its
   slice (pure reads — facts are only added afterwards, on the calling
   domain) and per-chunk derivations are prepended in ascending chunk
   order, which reproduces the whole-list derivation order for every
   chunking.  Derived-tuple order determines set insertion order and so
   the final output order, so this keeps answers byte-identical for
   every --jobs value.  Rules whose delta literal sits under an outer
   enumeration fire sequentially (see DESIGN.md). *)
let eval_rule_delta ~set_of ~delta_at ~delta rule =
  Metrics.incr m_firings;
  let rec no_pos_before i = function
    | _ when i <= 0 -> true
    | [] -> true
    | Pos _ :: _ -> false
    | (Neg _ | Cmp _) :: rest -> no_pos_before (i - 1) rest
  in
  if not (no_pos_before delta_at rule.body) then
    eval_rule_raw ~set_of ~delta_at ~delta rule
  else begin
    let tuples = Array.of_list (set_to_list delta) in
    Ssd_par.Pool.fold_chunks ~n:(Array.length tuples)
      ~chunk:(fun lo hi ->
        let slice = Array.to_list (Array.sub tuples lo (hi - lo)) in
        eval_rule_raw ~set_of ~delta_at ~delta_list:slice rule)
      ~combine:(fun acc part -> part @ acc)
      []
  end

let empty_set = set_create ()

let facts_get facts p = Option.value ~default:empty_set (Hashtbl.find_opt facts p)

let facts_set facts p =
  match Hashtbl.find_opt facts p with
  | Some s -> s
  | None ->
    let s = set_create () in
    Hashtbl.add facts p s;
    s

(* Freeze one predicate's tuples ([chunks], in EDB order, duplicates
   allowed).  Inserting the distinct tuples into a table of the mutable
   sets' initial size reproduces a mutable set's bucket layout, so
   folding it yields [set_to_list]'s row order; consing row ids in
   insertion order yields [set_probe]'s.  [ints] interns [Int] labels
   (node ids recur across rows and positions) across the whole base. *)
let freeze ints chunks =
  let table : (Label.t list, int) Hashtbl.t = Hashtbl.create set_table_size in
  let inserted = ref [] in
  List.iter
    (List.iter (fun t ->
         if not (Hashtbl.mem table t) then begin
           Hashtbl.replace table t (Hashtbl.length table);
           inserted := t :: !inserted
         end))
    chunks;
  let n = Hashtbl.length table in
  let inserted = Array.of_list (List.rev !inserted) in
  let order = Array.make n 0 in
  ignore (Hashtbl.fold (fun _ k row -> order.(k) <- row; row - 1) table (n - 1));
  let len k = List.length inserted.(k) in
  let arity =
    if n = 0 then 0
    else if Array.for_all (fun t -> List.length t = len 0) inserted then len 0
    else -1
  in
  let arities =
    if arity >= 0 then [||]
    else begin
      let a = Array.make n 0 in
      Array.iteri (fun k row -> a.(row) <- len k) order;
      a
    end
  in
  let width = Array.fold_left (fun w t -> max w (List.length t)) 0 inserted in
  let intern = function
    | Label.Int i as l -> (
      match Hashtbl.find_opt ints i with
      | Some l' -> l'
      | None ->
        Hashtbl.add ints i l;
        l)
    | l -> l
  in
  let cols = Array.init width (fun _ -> Array.make n (Label.Int 0)) in
  let groups = Array.init width (fun _ -> Hashtbl.create 64) in
  Array.iteri
    (fun k t ->
      let row = order.(k) in
      List.iteri
        (fun j v ->
          let v = intern v in
          cols.(j).(row) <- v;
          match Hashtbl.find_opt groups.(j) v with
          | Some rows -> rows := row :: !rows
          | None -> Hashtbl.add groups.(j) v (ref [ row ]))
        t)
    inserted;
  let probe =
    Array.map
      (fun g ->
        let h = Hashtbl.create (Hashtbl.length g) in
        Hashtbl.iter (fun v rows -> Hashtbl.add h v (Array.of_list !rows)) g;
        h)
      groups
  in
  { n_rows = n; arity; arities; cols; probe; order }

let edb_of_list edb =
  let chunks = Hashtbl.create 8 and preds = ref [] in
  List.iter
    (fun (p, tuples) ->
      match Hashtbl.find_opt chunks p with
      | Some c -> c := tuples :: !c
      | None ->
        Hashtbl.add chunks p (ref [ tuples ]);
        preds := p :: !preds)
    edb;
  let ints = Hashtbl.create 1024 in
  let edb = Hashtbl.create 8 in
  List.iter
    (fun p -> Hashtbl.add edb p (freeze ints (List.rev !(Hashtbl.find chunks p))))
    (List.rev !preds);
  edb

(* [r] as a mutable set: its distinct tuples re-inserted in their
   original order. *)
let set_of_rel r =
  let s = set_create () in
  Array.iter (fun row -> set_add s (row_to_list r row)) r.order;
  s

(* A fact table for [program] over [edb]: a rule whose head names an EDB
   predicate adds to it, so that predicate gets a private mutable copy
   and [edb] itself is never written. *)
let private_copies edb program =
  let facts = Hashtbl.create 16 in
  List.iter
    (fun r ->
      let p = r.head.pred in
      match Hashtbl.find_opt edb p with
      | Some rel when not (Hashtbl.mem facts p) -> Hashtbl.add facts p (set_of_rel rel)
      | _ -> ())
    program;
  facts

(* How the evaluator reads [p]: its mutable set in [facts] if it has
   one, else the EDB relation read in place, grown by the tuples in
   [added]. *)
let view_of edb facts added p =
  match Hashtbl.find_opt facts p with
  | Some s -> Mut s
  | None -> (
    match (Hashtbl.find_opt edb p, Hashtbl.find_opt added p) with
    | Some r, None -> Frozen r
    | Some r, Some s -> Grown (r, s)
    | None, Some s -> Mut s
    | None, None -> Mut empty_set)

let nothing_added : (string, tuple_set) Hashtbl.t = Hashtbl.create 1

let idb_result program facts =
  let idb = List.map (fun r -> r.head.pred) program |> List.sort_uniq String.compare in
  List.map (fun p -> (p, set_to_list (facts_get facts p))) idb

let strata_order program =
  let strata = stratify program in
  let max_s = Hashtbl.fold (fun _ s acc -> max acc s) strata 0 in
  List.init (max_s + 1) (fun s ->
      List.filter (fun r -> Hashtbl.find strata r.head.pred = s) program)

let eval_naive ~edb program =
  check_safety program;
  Metrics.incr m_evals;
  Metrics.time t_eval @@ fun () ->
  (* reads mutable copies only, independent of the frozen join path *)
  let facts = Hashtbl.create 16 in
  Hashtbl.iter (fun p r -> Hashtbl.add facts p (set_of_rel r)) edb;
  let set_of p = Mut (facts_get facts p) in
  List.iter
    (fun rules ->
      let changed = ref true in
      while !changed do
        changed := false;
        List.iter
          (fun r ->
            let derived = eval_rule ~set_of r in
            let s = facts_set facts r.head.pred in
            List.iter
              (fun t ->
                if not (set_mem s t) then begin
                  set_add s t;
                  Metrics.incr m_facts;
                  changed := true
                end)
              derived)
          rules
      done)
    (strata_order program);
  idb_result program facts

(* Budget exhaustion aborts the fixpoint from deep inside the derivation
   loops; the catch site returns the facts accumulated so far.  That
   partial model is a sound lower bound: every accumulated fact was
   derived by a rule from accumulated facts, strata below the
   interrupted one are complete (so its negations were decided exactly),
   and derivation within a stratum is monotone. *)
exception Out_of_budget

let check_budget b = if not (Budget.step b) then raise Out_of_budget

(* The stratified semi-naive fixpoint, reading [edb] in place. *)
let eval ?budget ~edb program =
  check_safety program;
  Metrics.incr m_evals;
  let budget = match budget with Some b -> b | None -> Budget.unlimited () in
  Metrics.time t_eval @@ fun () ->
  Trace.with_span "datalog.eval" @@ fun () ->
  let facts = private_copies edb program in
  let set_of = view_of edb facts nothing_added in
  (try
     List.iteri
       (fun stratum rules ->
      Trace.with_span "datalog.stratum"
        ~attrs:[ ("stratum", Trace.Int stratum); ("rules", Trace.Int (List.length rules)) ]
      @@ fun () ->
      let stratum_preds =
        List.map (fun r -> r.head.pred) rules |> List.sort_uniq String.compare
      in
      (* Round 0: naive evaluation seeds the deltas. *)
      let deltas = Hashtbl.create 8 in
      List.iter (fun p -> Hashtbl.replace deltas p (set_create ())) stratum_preds;
      List.iter
        (fun r ->
          check_budget budget;
          let s = facts_set facts r.head.pred in
          let d = Hashtbl.find deltas r.head.pred in
          List.iter
            (fun t ->
              check_budget budget;
              if not (set_mem s t) then begin
                set_add s t;
                set_add d t;
                Metrics.incr m_facts
              end)
            (eval_rule ~set_of r))
        rules;
      let record_deltas () =
        let total = Hashtbl.fold (fun _ d acc -> acc + set_size d) deltas 0 in
        if total > 0 then begin
          Metrics.add m_delta total;
          Metrics.observe h_delta (float_of_int total);
          Trace.bump "delta_tuples" total
        end
      in
      record_deltas ();
      (* Semi-naive rounds: each rule fires once per positive body literal
         of an in-stratum predicate, with that literal reading the delta. *)
      let any_delta () =
        Hashtbl.fold (fun _ d acc -> acc || set_size d > 0) deltas false
      in
      while any_delta () do
        Metrics.incr m_rounds;
        Trace.bump "rounds" 1;
        let new_deltas = Hashtbl.create 8 in
        List.iter (fun p -> Hashtbl.replace new_deltas p (set_create ())) stratum_preds;
        List.iter
          (fun r ->
            List.iteri
              (fun i lit ->
                match lit with
                | Pos a when List.mem a.pred stratum_preds ->
                  let delta = Hashtbl.find deltas a.pred in
                  if set_size delta > 0 then begin
                    check_budget budget;
                    let derived = eval_rule_delta ~set_of ~delta_at:i ~delta r in
                    let s = facts_set facts r.head.pred in
                    let nd = Hashtbl.find new_deltas r.head.pred in
                    List.iter
                      (fun t ->
                        check_budget budget;
                        if not (set_mem s t) then begin
                          set_add s t;
                          set_add nd t;
                          Metrics.incr m_facts
                        end)
                      derived
                  end
                | Pos _ | Neg _ | Cmp _ -> ())
              r.body)
          rules;
        List.iter (fun p -> Hashtbl.replace deltas p (Hashtbl.find new_deltas p)) stratum_preds;
        record_deltas ()
      done)
       (strata_order program)
   with Out_of_budget -> ());
  idb_result program facts

let eval_outcome ~budget ~edb program = Budget.wrap budget (eval ~budget ~edb program)

let query ~edb program pred =
  match List.assoc_opt pred (eval ~edb program) with
  | Some tuples -> tuples
  | None -> []

(* ------------------------------------------------------------------ *)
(* Incremental (semi-naive) maintenance under EDB insertions           *)
(* ------------------------------------------------------------------ *)

module Incremental = struct
  (* A retained model: the fact table of a completed evaluation over an
     EDB held by reference, advanced in place when new EDB facts arrive.
     Inserted EDB tuples go to [added], never into the shared EDB.
     Insertion-only and negation-free: a negation-free program is
     monotone in its EDB, so the delta rounds below compute exactly the
     new least model minus the old one — the same rounds [eval] runs,
     just seeded from the inserted facts instead of from scratch. *)
  type state = {
    program : program;
    edb : edb;
    facts : (string, tuple_set) Hashtbl.t;
    added : (string, tuple_set) Hashtbl.t;
  }

  let m_advances = Metrics.counter "incr.datalog.advances"
  let m_new_facts = Metrics.counter "incr.datalog.new_facts"

  let supported program =
    List.for_all
      (fun r ->
        List.for_all (function Neg _ -> false | Pos _ | Cmp _ -> true) r.body)
      program

  let prepare ~edb program =
    check_safety program;
    if not (supported program) then
      unsafe ~code:"SSD213"
        "incremental maintenance requires a negation-free program";
    let facts = private_copies edb program in
    let set_of = view_of edb facts nothing_added in
    (* Negation-free: one stratum; naive rounds to the fixpoint (the
       retained sets make later advances cheap, prepare itself is a
       one-off). *)
    let changed = ref true in
    while !changed do
      changed := false;
      List.iter
        (fun r ->
          let derived = eval_rule ~set_of r in
          let s = facts_set facts r.head.pred in
          List.iter
            (fun t ->
              if not (set_mem s t) then begin
                set_add s t;
                Metrics.incr m_facts;
                changed := true
              end)
            derived)
        program
    done;
    { program; edb; facts; added = Hashtbl.create 4 }

  let result st = idb_result st.program st.facts

  (* [advance st ~edb_delta] adds the given EDB facts and propagates;
     returns the {e new} tuples per IDB predicate (possibly empty). *)
  let advance st ~edb_delta =
    Metrics.incr m_advances;
    let set_of = view_of st.edb st.facts st.added in
    let idb =
      List.map (fun r -> r.head.pred) st.program |> List.sort_uniq String.compare
    in
    let fresh : (string, tuple_set) Hashtbl.t = Hashtbl.create 8 in
    List.iter (fun p -> Hashtbl.replace fresh p (set_create ())) idb;
    (* Seed: genuinely new EDB facts become the first delta. *)
    let deltas : (string, tuple_set) Hashtbl.t = Hashtbl.create 8 in
    let delta_get p =
      match Hashtbl.find_opt deltas p with
      | Some d -> d
      | None ->
        let d = set_create () in
        Hashtbl.add deltas p d;
        d
    in
    List.iter
      (fun (p, tuples) ->
        let s = facts_set (if List.mem p idb then st.facts else st.added) p in
        let view = set_of p in
        List.iter
          (fun t ->
            if not (view_mem view t) then begin
              set_add s t;
              set_add (delta_get p) t
            end)
          tuples)
      edb_delta;
    let any_delta () =
      Hashtbl.fold (fun _ d acc -> acc || set_size d > 0) deltas false
    in
    while any_delta () do
      Metrics.incr m_rounds;
      let new_deltas : (string, tuple_set) Hashtbl.t = Hashtbl.create 8 in
      List.iter (fun p -> Hashtbl.replace new_deltas p (set_create ())) idb;
      List.iter
        (fun r ->
          List.iteri
            (fun i lit ->
              match lit with
              | Pos a -> (
                match Hashtbl.find_opt deltas a.pred with
                | Some delta when set_size delta > 0 ->
                  let derived = eval_rule_delta ~set_of ~delta_at:i ~delta r in
                  let s = facts_set st.facts r.head.pred in
                  let nd = Hashtbl.find new_deltas r.head.pred in
                  let acc = Hashtbl.find fresh r.head.pred in
                  List.iter
                    (fun t ->
                      if not (set_mem s t) then begin
                        set_add s t;
                        set_add nd t;
                        set_add acc t;
                        Metrics.incr m_facts;
                        Metrics.incr m_new_facts
                      end)
                    derived
                | _ -> ())
              | Neg _ | Cmp _ -> ())
            r.body)
        st.program;
      Hashtbl.reset deltas;
      Hashtbl.iter (fun p d -> Hashtbl.replace deltas p d) new_deltas
    done;
    List.filter_map
      (fun p ->
        match set_to_list (Hashtbl.find fresh p) with
        | [] -> None
        | tuples -> Some (p, tuples))
      idb
end

(* ------------------------------------------------------------------ *)
(* Statistics-driven body ordering                                     *)
(* ------------------------------------------------------------------ *)

(* Greedy join ordering per rule: repeatedly place the positive literal
   with the smallest estimated binding count (EDB relation size divided
   by 4 per already-bound argument position — each bound position turns
   the scan into an index probe), flushing negations and comparisons as
   soon as their variables are positively bound.  This is opt-in, not
   part of [eval]: derivation order — and thus tuple order — changes,
   which callers relying on byte-identical output must not see. *)
let reorder ~edb program =
  let default_size = max 1 (Hashtbl.fold (fun _ r acc -> acc + r.n_rows) edb 0) in
  let size pred =
    match Hashtbl.find_opt edb pred with
    | Some r -> r.n_rows
    | None -> default_size (* IDB: unknown until evaluated *)
  in
  let reorder_body body =
    let lits = Array.of_list body in
    let n = Array.length lits in
    let placed = Array.make n false in
    let bound = Hashtbl.create 8 in
    let is_bound = function Const _ -> true | Var v -> Hashtbl.mem bound v in
    let out = ref [] in
    let flush_guards () =
      (* Negations/comparisons whose variables are all bound filter
         maximally early; original relative order is kept. *)
      for j = 0 to n - 1 do
        if not placed.(j) then
          match lits.(j) with
          | Neg a when List.for_all (fun v -> Hashtbl.mem bound v) (term_vars a.args) ->
            placed.(j) <- true;
            out := lits.(j) :: !out
          | Cmp (_, t1, t2) when is_bound t1 && is_bound t2 ->
            placed.(j) <- true;
            out := lits.(j) :: !out
          | Pos _ | Neg _ | Cmp _ -> ()
      done
    in
    let estimate a =
      let bound_args =
        List.length (List.filter is_bound a.args)
      in
      float_of_int (size a.pred) /. (4.0 ** float_of_int bound_args)
    in
    flush_guards ();
    let remaining = ref true in
    while !remaining do
      let best = ref None in
      for j = 0 to n - 1 do
        if not placed.(j) then
          match lits.(j) with
          | Pos a -> (
            let e = estimate a in
            match !best with
            | Some (_, be) when be <= e -> ()
            | _ -> best := Some (j, e))
          | Neg _ | Cmp _ -> ()
      done;
      match !best with
      | None ->
        (* Only guards left; a safe rule has all their variables bound
           by now. *)
        for j = 0 to n - 1 do
          if not placed.(j) then begin
            placed.(j) <- true;
            out := lits.(j) :: !out
          end
        done;
        remaining := false
      | Some (j, _) ->
        placed.(j) <- true;
        (match lits.(j) with
        | Pos a -> List.iter (fun v -> Hashtbl.replace bound v ()) (term_vars a.args)
        | Neg _ | Cmp _ -> ());
        out := lits.(j) :: !out;
        flush_guards ()
    done;
    List.rev !out
  in
  List.map (fun r -> { r with body = reorder_body r.body }) program
