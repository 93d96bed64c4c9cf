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

(* Safety and stratification violations raise [Ssd_diag.Fail] under the
   analyzer's codes (SSD201/202/203 safety, SSD210 stratification), so a
   runtime rejection and a lint finding for one defect agree. *)

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

(* Recursive descent on the shared cursor.  [anon] numbers the
   anonymous variables '_' across the program. *)

module Scan = Ssd.Scan

type pstate = {
  c : Scan.t;
  mutable anon : int;
}

let fail st msg = Scan.fail st.c msg

let skip st = Scan.skip_ws st.c

let expect st s msg =
  skip st;
  Scan.expect st.c s msg

(* A comparison operator at the cursor, consumed. *)
let cmp_op st =
  skip st;
  let c = st.c in
  if Scan.eat c "!=" then Some Neq
  else if Scan.eat c "<=" then Some Le
  else if Scan.eat c ">=" then Some Ge
  else if Scan.eat c "=" then Some Eq
  else if Scan.eat c "<" then Some Lt
  else if Scan.eat c ">" then Some Gt
  else None

let parse_term st =
  skip st;
  let c = st.c in
  match Scan.peek c with
  | '?' ->
    Scan.advance c;
    let v = Scan.word c in
    if v = "" then fail st "expected a variable name after '?'";
    Var v
  | '_' when not (Scan.is_ident_char (Scan.peek_at c 1)) ->
    Scan.advance c;
    st.anon <- st.anon + 1;
    Var (Printf.sprintf "_anon%d" st.anon)
  | '"' | '-' | '0' .. '9' -> Const (Label.read c)
  | ch when Scan.is_ident_start ch -> (
    match Scan.word c with
    | "true" -> Const (Label.Bool true)
    | "false" -> Const (Label.Bool false)
    | "not" -> fail st "expected a term"
    | id -> Const (Label.Sym id))
  | _ -> fail st "expected a term"

(* The arguments of an atom whose predicate [p] was just read. *)
let parse_args st p =
  expect st "(" ("expected '(' after predicate " ^ p);
  skip st;
  let args = ref [] in
  if not (Scan.eat st.c ")") then begin
    args := [ parse_term st ];
    skip st;
    while Scan.eat st.c "," do
      args := parse_term st :: !args;
      skip st
    done;
    expect st ")" "expected ')'"
  end;
  { pred = p; args = List.rev !args }

let parse_atom st =
  skip st;
  let at = st.c.pos in
  if not (Scan.is_ident_start (Scan.peek st.c)) then Scan.fail st.c "expected a predicate atom";
  match Scan.word st.c with
  | "not" | "true" | "false" -> Scan.fail ~at st.c "expected a predicate atom"
  | p -> parse_args st p

(* [not atom], [pred(...)], or a comparison, in which a bare identifier
   is a symbol constant. *)
let parse_literal st =
  let c = st.c in
  skip st;
  let saved = c.pos in
  let comparison () =
    c.pos <- saved;
    let t1 = parse_term st in
    match cmp_op st with
    | Some op -> Cmp (op, t1, parse_term st)
    | None -> fail st "expected a comparison operator"
  in
  if not (Scan.is_ident_start (Scan.peek c)) then comparison ()
  else
    match Scan.word c with
    | "not" -> Neg (parse_atom st)
    | "true" | "false" -> comparison ()
    | p ->
      skip st;
      if Scan.peek c = '(' then Pos (parse_args st p) else comparison ()

let parse_rule st =
  let head = parse_atom st in
  skip st;
  let body =
    if Scan.eat st.c ":-" then begin
      let lits = ref [ parse_literal st ] in
      skip st;
      while Scan.eat st.c "," do
        lits := parse_literal st :: !lits;
        skip st
      done;
      List.rev !lits
    end
    else []
  in
  expect st "." "expected '.' at end of rule";
  { head; body }

let parse src =
  let st = { c = Scan.make ~comments:[ "%"; "#" ] ~code:"SSD003" src; anon = 0 } in
  let rules = ref [] in
  skip st;
  while not (Scan.eof st.c) do
    rules := parse_rule st :: !rules;
    skip st
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
          Ssd_diag.error ~code
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
            Ssd_diag.error ~code:"SSD210" "predicate %s negates through recursion"
              r.head.pred;
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
(* Relations                                                           *)
(* ------------------------------------------------------------------ *)

(* One relation type holds every predicate the evaluator reads or
   writes: the EDB, derived facts, per-round deltas, private copies of
   EDB-headed predicates and the tuples an incremental state inserts.
   Rows are numbered in first-insertion order and never removed; a scan
   lists them in that order, and so does a probe, which lists the rows
   holding one value at one position.

   Row [i] is the cells [start.(i)] to [start.(i + 1) - 1] of [data], so
   rows of one predicate may differ in arity.  For the cell of row [i] at
   position [j], [next] holds the next row with the same value at
   position [j]; the last such row points back to the first, so each
   value's rows form a ring.  The indexes are open-addressing tables of
   row ids (-1: a free slot): [rows] finds a row by its whole tuple, and
   [probe.(j)] finds the last row of a position-[j] value's ring.  Reads
   write nothing, so concurrent evaluations and the chunks of a parallel
   firing share a relation without locks while nothing inserts into
   it.

   Stdlib [Hashtbl]s in place of the two open-addressing tables (tuple
   hash to row ids, value to the last row of its ring) hold the EDB of
   [Movies.generate ~n_entries:2000] in 199 B per edge
   ([Obj.reachable_words]), against 145 B with these tables and 177 B
   for the frozen columns they replaced. *)
type index = {
  mutable slots : int array;
  mutable used : int;
}

type rel = {
  mutable n : int;
  mutable start : int array;
  mutable data : Label.t array;
  mutable next : int array;
  rows : index;
  mutable probe : index array;
}

let index_for n =
  let rec pow2 s = if 3 * s >= 4 * (n + 1) then s else pow2 (2 * s) in
  { slots = Array.make (pow2 8) (-1); used = 0 }

let create ?(rows = 0) ?(cells = 0) () =
  {
    n = 0;
    start = Array.make (rows + 1) 0;
    data = Array.make cells (Label.Int 0);
    next = Array.make cells 0;
    rows = index_for rows;
    probe = [||];
  }

let cell r i j = r.data.(r.start.(i) + j)
let row r i = List.init (r.start.(i + 1) - r.start.(i)) (cell r i)
let to_list r = List.init r.n (row r)

(* The slot of [ix] holding a row [same] accepts, else the free slot
   where it would go: linear probing from hash [h]. *)
let slot ix h same =
  let mask = Array.length ix.slots - 1 in
  let rec go s =
    let i = ix.slots.(s) in
    if i < 0 || same i then s else go ((s + 1) land mask)
  in
  go (h land mask)

(* Room for one more entry: past three quarters full, double the table
   and re-place every row by its [hash]. *)
let reserve ix hash =
  if 4 * (ix.used + 1) > 3 * Array.length ix.slots then begin
    let old = ix.slots in
    ix.slots <- Array.make (2 * Array.length old) (-1);
    Array.iter (fun i -> if i >= 0 then ix.slots.(slot ix (hash i) (fun _ -> false)) <- i) old
  end

let tuple_hash t = List.fold_left (fun h v -> (31 * h) + Label.hash v) 0 t

let row_equal r i t =
  let stop = r.start.(i + 1) in
  let rec go c = function
    | [] -> c = stop
    | v :: t -> c < stop && Label.equal r.data.(c) v && go (c + 1) t
  in
  go r.start.(i) t

let row_slot r t = slot r.rows (tuple_hash t) (fun i -> row_equal r i t)
let mem r t = r.rows.slots.(row_slot r t) >= 0

let value_slot r j v = slot r.probe.(j) (Label.hash v) (fun i -> Label.equal (cell r i j) v)

(* Append row [i]'s position-[j] cell to its value's ring. *)
let link r i j =
  let ix = r.probe.(j) in
  reserve ix (fun i -> Label.hash (cell r i j));
  let s = value_slot r j (cell r i j) in
  let c = r.start.(i) + j in
  let last = ix.slots.(s) in
  if last < 0 then begin
    r.next.(c) <- i;
    ix.used <- ix.used + 1
  end
  else begin
    let lc = r.start.(last) + j in
    r.next.(c) <- r.next.(lc);
    r.next.(lc) <- i
  end;
  ix.slots.(s) <- i

let grow a len fill =
  if len <= Array.length a then a
  else begin
    let a' = Array.make (max len (2 * Array.length a)) fill in
    Array.blit a 0 a' 0 (Array.length a);
    a'
  end

(* Insert [t] as the last row unless [r] holds it; true if inserted. *)
let add r t =
  reserve r.rows (fun i -> tuple_hash (row r i));
  let s = row_slot r t in
  r.rows.slots.(s) < 0
  && begin
       let i = r.n and c = r.start.(r.n) and a = List.length t in
       r.start <- grow r.start (i + 2) 0;
       r.data <- grow r.data (c + a) (Label.Int 0);
       r.next <- grow r.next (c + a) 0;
       List.iteri (fun j v -> r.data.(c + j) <- v) t;
       r.start.(i + 1) <- c + a;
       r.n <- i + 1;
       r.rows.slots.(s) <- i;
       r.rows.used <- r.rows.used + 1;
       let width = Array.length r.probe in
       if a > width then
         r.probe <- Array.init a (fun j -> if j < width then r.probe.(j) else index_for 0);
       for j = 0 to a - 1 do
         link r i j
       done;
       true
     end

(* Calls [f] on every row holding [v] at position [j], in insertion
   order. *)
let iter_probe r j v f =
  if j < Array.length r.probe then begin
    let last = r.probe.(j).slots.(value_slot r j v) in
    let rec go i =
      f i;
      if i <> last then go r.next.(r.start.(i) + j)
    in
    if last >= 0 then go r.next.(r.start.(last) + j)
  end

(* ------------------------------------------------------------------ *)
(* Evaluation                                                          *)
(* ------------------------------------------------------------------ *)

module Env = Map.Make (String)

type edb = (string, rel) Hashtbl.t

(* [tbl]'s binding of [p], made by [make] if absent. *)
let find_or_add tbl p make =
  match Hashtbl.find_opt tbl p with
  | Some v -> v
  | None ->
    let v = make () in
    Hashtbl.add tbl p v;
    v

let edb_of_list preds =
  let edb = Hashtbl.create 8 in
  List.iter
    (fun (p, tuples) ->
      let cells = List.fold_left (fun n t -> n + List.length t) 0 tuples in
      let r = find_or_add edb p (create ~rows:(List.length tuples) ~cells) in
      List.iter (fun t -> ignore (add r t)) tuples)
    preds;
  edb

(* Read only: the relation of a predicate nothing holds. *)
let empty = create ()

(* How the evaluator reads a predicate: one relation, or an EDB relation
   grown by the tuples an incremental state inserted since. *)
type view =
  | One of rel
  | Grown of rel * rel

let view_mem view t =
  match view with
  | One r -> mem r t
  | Grown (r, a) -> mem r t || mem a t

let eval_term env = function
  | Const l -> l
  | Var v -> (
    match Env.find_opt v env with
    | Some l -> l
    | None -> Ssd_diag.error ~code:"SSD203" "unbound variable ?%s" v)

(* Match an atom's args against row [i] of [r], read in place, under
   [env]; None on mismatch. *)
let match_tuple env args r i =
  let stop = r.start.(i + 1) in
  let rec go env c args =
    match args with
    | [] -> if c = stop then Some env else None
    | _ when c = stop -> None
    | arg :: args -> (
      let v = r.data.(c) in
      match arg with
      | Const l -> if Label.equal l v then go env (c + 1) args else None
      | Var x -> (
        match Env.find_opt x env with
        | Some l -> if Label.equal l v then go env (c + 1) args else None
        | None -> go (Env.add x v env) (c + 1) args))
  in
  go env r.start.(i) args

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
   position's rings replaces a relation scan. *)
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

(* Calls [k] with every extension of [env] matching [args] against a row
   of [r] in [lo, hi): a probe of the first bound position when the
   range is the whole relation, else a scan; insertion order either
   way. *)
let iter_matches ?(lo = 0) ?hi r env args k =
  let hi = Option.value hi ~default:r.n in
  let visit i = match match_tuple env args r i with Some env' -> k env' | None -> () in
  match bound_position env args with
  | Some (pos, value) when lo = 0 && hi = r.n -> iter_probe r pos value visit
  | _ ->
    for i = lo to hi - 1 do
      visit i
    done

(* What an evaluation reads and writes: the shared [edb], read in place
   and never written; [facts], one relation per head predicate (an
   EDB-headed one starts as a private copy of the EDB relation); and
   [added], the EDB tuples an incremental state inserted since it was
   prepared. *)
type model = {
  edb : edb;
  facts : (string, rel) Hashtbl.t;
  added : (string, rel) Hashtbl.t;
}

let heads program = List.map (fun r -> r.head.pred) program |> List.sort_uniq String.compare

let model edb program =
  let facts = Hashtbl.create 16 in
  List.iter
    (fun p ->
      let s = create () in
      Option.iter (fun r -> List.iter (fun t -> ignore (add s t)) (to_list r)) (Hashtbl.find_opt edb p);
      Hashtbl.add facts p s)
    (heads program);
  { edb; facts; added = Hashtbl.create 4 }

let view m p =
  match Hashtbl.find_opt m.facts p with
  | Some s -> One s
  | None -> (
    match (Hashtbl.find_opt m.edb p, Hashtbl.find_opt m.added p) with
    | Some r, None -> One r
    | Some r, Some a -> Grown (r, a)
    | None, Some a -> One a
    | None, None -> One empty)

(* The relation a new [p] fact goes into. *)
let target m p =
  match Hashtbl.find_opt m.facts p with
  | Some s -> s
  | None -> find_or_add m.added p create

let result m program = List.map (fun p -> (p, to_list (Hashtbl.find m.facts p))) (heads program)

(* The head tuples [rule] derives, in enumeration order.  A positive
   literal reads its predicate's view, except the one at index [at],
   which reads the delta [d] (only its rows [range] in a chunk of a
   parallel firing). *)
let fire m ?(at = -1) ?(d = empty) ?range rule =
  let out = ref [] in
  let rec go i env = function
    | [] -> out := List.map (eval_term env) rule.head.args :: !out
    | (Pos a, view) :: rest -> (
      let k env' = go (i + 1) env' rest in
      match view with
      | _ when i = at ->
        let lo, hi = Option.value range ~default:(0, d.n) in
        iter_matches ~lo ~hi d env a.args k
      | One r -> iter_matches r env a.args k
      | Grown (r, added) ->
        iter_matches r env a.args k;
        iter_matches added env a.args k)
    | (Neg a, view) :: rest ->
      if not (view_mem view (List.map (eval_term env) a.args)) then go (i + 1) env rest
    | (Cmp (op, t1, t2), _) :: rest ->
      if eval_cmp op (eval_term env t1) (eval_term env t2) then go (i + 1) env rest
  in
  let view_of = function Pos a | Neg a -> view m a.pred | Cmp _ -> One empty in
  go 0 Env.empty (List.map (fun lit -> (lit, view_of lit)) rule.body);
  List.rev !out

(* [rule] fired with its positive literal at [at] reading the delta [d].
   When no positive literal precedes it (the common shape for linear
   recursion, e.g. [reach(?Y) :- reach(?X), e(?X, ?Y)]), the delta's
   rows are split into ranges across the domain pool: each chunk only
   reads, and the chunks' derivations are concatenated in ascending
   order, which is the whole delta's derivation order for every
   chunking, so answers are byte-identical for every --jobs value.  A
   delta literal under an outer enumeration fires sequentially (see
   DESIGN.md). *)
let fire_delta m rule at d =
  Metrics.incr m_firings;
  let before = List.filteri (fun j _ -> j < at) rule.body in
  if List.exists (function Pos _ -> true | Neg _ | Cmp _ -> false) before then fire m ~at ~d rule
  else
    Ssd_par.Pool.fold_chunks ~n:d.n
      ~chunk:(fun lo hi -> fire m ~at ~d ~range:(lo, hi) rule)
      ~combine:(fun acc part -> part :: acc)
      []
    |> List.rev |> List.concat

(* Budget exhaustion aborts the fixpoint from deep inside the derivation
   loops; the catch site returns the facts accumulated so far.  That
   partial model is a sound lower bound: every accumulated fact was
   derived by a rule from accumulated facts, strata below the
   interrupted one are complete (so its negations were decided exactly),
   and derivation within a stratum is monotone. *)
exception Out_of_budget

let check_budget b = if not (Budget.step b) then raise Out_of_budget

(* A function inserting the [p] facts [m] lacks into [m] and into [p]'s
   delta in [deltas]. *)
let inserter ~budget m deltas p =
  let s = target m p and d = find_or_add deltas p create in
  let view = view m p in
  fun t ->
    check_budget budget;
    if not (view_mem view t) then begin
      ignore (add s t);
      ignore (add d t);
      Metrics.incr m_facts
    end

(* A naive round: every rule of [rules] fired once over the whole
   model. *)
let naive_round ~budget m rules insert =
  List.iter
    (fun r ->
      check_budget budget;
      Metrics.incr m_firings;
      List.iter (insert r.head.pred) (fire m r))
    rules

(* The semi-naive fixpoint of [rules] over [m], the one loop {!eval},
   {!Incremental.prepare} and {!Incremental.advance} run.  [seed] makes
   the first delta through the inserter it is given: a naive round, or
   the EDB tuples an update inserts.  Each later round fires every rule
   once per positive body literal whose predicate has a delta, that
   literal reading only the facts the previous round added, until a
   round adds none. *)
let seminaive ~budget m rules seed =
  let rec rounds deltas =
    let total = Hashtbl.fold (fun _ d acc -> acc + d.n) deltas 0 in
    if total > 0 then begin
      Metrics.add m_delta total;
      Metrics.observe h_delta (float_of_int total);
      Trace.bump "delta_tuples" total;
      Metrics.incr m_rounds;
      Trace.bump "rounds" 1;
      let next = Hashtbl.create 8 in
      List.iter
        (fun r ->
          List.iteri
            (fun i lit ->
              match lit with
              | Pos a -> (
                match Hashtbl.find_opt deltas a.pred with
                | Some d when d.n > 0 ->
                  check_budget budget;
                  List.iter (inserter ~budget m next r.head.pred) (fire_delta m r i d)
                | _ -> ())
              | Neg _ | Cmp _ -> ())
            r.body)
        rules;
      rounds next
    end
  in
  let deltas = Hashtbl.create 8 in
  seed (inserter ~budget m deltas);
  rounds deltas

let strata_order program =
  let strata = stratify program in
  let max_s = Hashtbl.fold (fun _ s acc -> max acc s) strata 0 in
  List.init (max_s + 1) (fun s ->
      List.filter (fun r -> Hashtbl.find strata r.head.pred = s) program)

(* The reference [eval] is tested against, sharing no relation or
   matching code with it: EDB relations are read once through [to_list];
   a predicate's tuples are a list, newest first, and Stdlib hash tables
   of its tuples and of each (position, value)'s tuples, whose
   [compare]-based keys agree with [Label.equal].  Naive rounds fire
   every rule of a stratum over all facts until a round adds none. *)
let eval_naive ~edb program =
  check_safety program;
  Metrics.incr m_evals;
  Metrics.time t_eval @@ fun () ->
  let insert (all, set, at) t =
    (not (Hashtbl.mem set t))
    && begin
         Hashtbl.add set t ();
         Metrics.incr m_facts;
         all := t :: !all;
         List.iteri (fun j v -> Hashtbl.add at (j, v) t) t;
         true
       end
  in
  (* A head predicate starts from its EDB tuples. *)
  let rels = Hashtbl.create 16 in
  let rel p =
    find_or_add rels p (fun () ->
        let r = (ref [], Hashtbl.create 16, Hashtbl.create 16) in
        Option.iter (fun e -> List.iter (fun t -> ignore (insert r t)) (to_list e)) (Hashtbl.find_opt edb p);
        r)
  in
  let rec unify env args t =
    match (args, t) with
    | [], [] -> Some env
    | Const l :: args, v :: t -> if Label.equal l v then unify env args t else None
    | Var x :: args, v :: t -> (
      match Env.find_opt x env with
      | Some l -> if Label.equal l v then unify env args t else None
      | None -> unify (Env.add x v env) args t)
    | _ -> None
  in
  let fire r =
    let out = ref [] in
    let rec go env = function
      | [] -> out := List.map (eval_term env) r.head.args :: !out
      | Pos a :: rest ->
        let all, _, at = rel a.pred in
        let bound j = function
          | Const l -> Some (j, l)
          | Var x -> Option.map (fun l -> (j, l)) (Env.find_opt x env)
        in
        let tuples =
          match List.find_mapi bound a.args with None -> !all | Some key -> Hashtbl.find_all at key
        in
        List.iter (fun t -> Option.iter (fun env -> go env rest) (unify env a.args t)) (List.rev tuples)
      | Neg a :: rest ->
        let _, set, _ = rel a.pred in
        if not (Hashtbl.mem set (List.map (eval_term env) a.args)) then go env rest
      | Cmp (op, t1, t2) :: rest -> if eval_cmp op (eval_term env t1) (eval_term env t2) then go env rest
    in
    go Env.empty r.body;
    List.rev !out
  in
  let rec fixpoint rules =
    let grew r =
      Metrics.incr m_firings;
      List.fold_left (fun grew t -> insert (rel r.head.pred) t || grew) false (fire r)
    in
    if List.fold_left (fun acc r -> grew r || acc) false rules then fixpoint rules
  in
  List.iter fixpoint (strata_order program);
  List.map (fun p -> let all, _, _ = rel p in (p, List.rev !all)) (heads program)

let eval ?budget ~edb program =
  check_safety program;
  Metrics.incr m_evals;
  let budget = match budget with Some b -> b | None -> Budget.unlimited () in
  Metrics.time t_eval @@ fun () ->
  Trace.with_span "datalog.eval" @@ fun () ->
  let m = model edb program in
  (try
     List.iteri
       (fun stratum rules ->
         Trace.with_span "datalog.stratum"
           ~attrs:[ ("stratum", Trace.Int stratum); ("rules", Trace.Int (List.length rules)) ]
         @@ fun () -> seminaive ~budget m rules (naive_round ~budget m rules))
       (strata_order program)
   with Out_of_budget -> ());
  result m program

let eval_outcome ~budget ~edb program = Budget.wrap budget (eval ~budget ~edb program)

let query ~edb program pred =
  match List.assoc_opt pred (eval ~edb program) with
  | Some tuples -> tuples
  | None -> []

(* ------------------------------------------------------------------ *)
(* Incremental (semi-naive) maintenance under EDB insertions           *)
(* ------------------------------------------------------------------ *)

module Incremental = struct
  (* A retained model over an EDB held by reference, advanced in place:
     inserted EDB tuples go to the model's [added] relations, never into
     the shared EDB.  Insertion-only and negation-free: a negation-free
     program is monotone in its EDB, so the semi-naive rounds seeded
     from the inserted facts compute exactly the new least model minus
     the old one. *)
  type state = {
    program : program;
    m : model;
  }

  let m_advances = Metrics.counter "incr.datalog.advances"
  let m_new_facts = Metrics.counter "incr.datalog.new_facts"

  let supported program =
    List.for_all
      (fun r ->
        List.for_all (function Neg _ -> false | Pos _ | Cmp _ -> true) r.body)
      program

  (* Negation-free: one stratum, so this is [eval]'s fixpoint exactly. *)
  let prepare ~edb program =
    check_safety program;
    if not (supported program) then
      Ssd_diag.error ~code:"SSD213"
        "incremental maintenance requires a negation-free program";
    let m = model edb program in
    let budget = Budget.unlimited () in
    seminaive ~budget m program (naive_round ~budget m program);
    { program; m }

  let result st = result st.m st.program

  (* The new tuples of each head predicate are the rows its relation
     gained. *)
  let advance st ~edb_delta =
    Metrics.incr m_advances;
    let mark p =
      let s = Hashtbl.find st.m.facts p in
      (p, s, s.n)
    in
    let marks = List.map mark (heads st.program) in
    seminaive ~budget:(Budget.unlimited ()) st.m st.program (fun insert ->
        List.iter (fun (p, tuples) -> List.iter (insert p) tuples) edb_delta);
    List.filter_map
      (fun (p, s, mark) ->
        let k = s.n - mark in
        Metrics.add m_new_facts k;
        if k = 0 then None else Some (p, List.init k (fun i -> row s (mark + i))))
      marks
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
  let default_size = max 1 (Hashtbl.fold (fun _ r acc -> acc + r.n) edb 0) in
  let size pred =
    match Hashtbl.find_opt edb pred with
    | Some r -> r.n
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
