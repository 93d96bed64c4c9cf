module Graph = Ssd.Graph
module Label = Ssd.Label
module Budget = Ssd.Budget
module Lpred = Ssd_automata.Lpred
module Regex = Ssd_automata.Regex
module Nfa = Ssd_automata.Nfa
module Dataguide = Ssd_schema.Dataguide
module Metrics = Ssd_obs.Metrics
module Trace = Ssd_obs.Trace
open Ast

(* Runtime failures carry a full diagnostic under the same stable codes
   the static analyzer predicts them with (SSD303/304/305/307): a query
   that lints clean cannot reach any of these raises. *)
exception Runtime_error of Ssd_diag.t

let runtime_error ~code fmt =
  Printf.ksprintf
    (fun msg -> raise (Runtime_error (Ssd_diag.make Ssd_diag.Error ~code msg)))
    fmt

let () =
  Printexc.register_printer (function
    | Runtime_error d -> Some ("Unql.Eval.Runtime_error: " ^ Ssd_diag.to_string d)
    | _ -> None)

(* Execution counters (lib/obs): what evaluation actually does, as
   opposed to what the optimizer rewrote.  All report to
   [Metrics.default]. *)
let m_queries = Metrics.counter "unql.eval.queries"
let m_nodes = Metrics.counter "unql.eval.nodes_visited"
let m_edges = Metrics.counter "unql.eval.edges_traversed"
let m_bindings = Metrics.counter "unql.eval.bindings_produced"
let m_auto_steps = Metrics.counter "unql.eval.automaton_steps"
let m_sfun_edges = Metrics.counter "unql.eval.sfun_edge_visits"
let t_eval = Metrics.timer "unql.eval.time"
let h_select = Metrics.histogram "unql.eval.bindings_per_select"

type options = {
  reorder_clauses : bool;
  cache_nfa : bool;
  dataguide : Dataguide.t option;
  path_index : Ssd_index.Path_index.t option;
}

let default_options =
  { reorder_clauses = true; cache_nfa = true; dataguide = None; path_index = None }

(* ------------------------------------------------------------------ *)
(* Environments                                                        *)
(* ------------------------------------------------------------------ *)

module Env = Map.Make (String)

type entry =
  | Enode of int
  | Elabel of Label.t

(* An sfun closure: the definition, the sfuns visible at its definition,
   and the (function, input node) memo realizing the bulk semantics. *)
type closure = {
  def : sfun_def;
  mutable fenv : closure Env.t;
  memo : (int, int) Hashtbl.t;
  queue : int Queue.t;
}

type env = {
  vars : entry Env.t;
  funs : closure Env.t;
}

type ctx = {
  st : Store.t;
  db : Graph.t;
  db_node : int;
  opts : options;
  nfa_cache : (Regex.t, Nfa.t * int list array) Hashtbl.t;
  budget : Budget.t;
      (* Consumed only at generator positions (automaton frontier pops,
         pattern steps, sfun queue pops) — never while deciding a
         condition, so budget exhaustion drops whole bindings and the
         partial result stays a sound lower bound. *)
}

let nfa_of ctx r =
  if ctx.opts.cache_nfa then begin
    match Hashtbl.find_opt ctx.nfa_cache r with
    | Some entry -> entry
    | None ->
      let nfa = Nfa.of_regex r in
      let entry = (nfa, Nfa.closures nfa) in
      Hashtbl.add ctx.nfa_cache r entry;
      entry
  end
  else
    let nfa = Nfa.of_regex r in
    (nfa, Nfa.closures nfa)

(* Instrumented edge listing: every traversal below goes through this. *)
let succs ctx u =
  Metrics.incr m_nodes;
  let es = Store.labeled_succ ctx.st u in
  Metrics.add m_edges (List.length es);
  es

let resolve_label env = function
  | Llit l -> l
  | Lname x -> (
    match Env.find_opt x env.vars with
    | Some (Elabel l) -> l
    | Some (Enode _) ->
      runtime_error ~code:"SSD304" "tree variable %s used in label position" x
    | None -> Label.Sym x)

let resolve_atom env = function
  | Alit l -> l
  | Aname x -> (
    match Env.find_opt x env.vars with
    | Some (Elabel l) -> l
    | Some (Enode _) ->
      runtime_error ~code:"SSD304" "tree variable %s used in a condition" x
    | None -> Label.Sym x)

(* Comparisons promote Int/Float pairs so that "integers greater than
   2^16" style conditions behave numerically. *)
let compare_labels a b =
  match a, b with
  | Label.Int x, Label.Float y -> Stdlib.compare (float_of_int x) y
  | Label.Float x, Label.Int y -> Stdlib.compare x (float_of_int y)
  | a, b -> Label.compare a b

(* ------------------------------------------------------------------ *)
(* Regular path traversal inside the store                             *)
(* ------------------------------------------------------------------ *)

(* The two searches below run level-synchronous BFS over (node, state)
   pairs: a FIFO queue pops in exactly level order, so taking a whole
   level, expanding it, and merging the discovered pairs in frontier
   order visits the same pairs in the same order as the classic queue
   loop — but the expansion is pure (store/NFA reads only), so it can
   run across the domain pool (Ssd_par).  Budget steps are consumed on
   the coordinating domain, one per frontier item exactly as the queue
   loop consumed one per pop, before any expansion: the set of expanded
   items — and therefore the answer, even a Partial one — is identical
   for every --jobs value. *)

(* Take the budgeted prefix of a level: one step per item, stopping at
   the first denial (the remaining items are exactly those the queue
   loop would never have popped). *)
let take_budgeted ctx level =
  let n = Array.length level in
  let taken = ref 0 in
  while !taken < n && Budget.step ctx.budget do
    incr taken
  done;
  !taken

let regex_reach ctx start r =
  let nfa, closures = nfa_of ctx r in
  let seen = Hashtbl.create 64 in
  let answers = Hashtbl.create 16 in
  let next = ref [] in
  let push u q =
    if not (Hashtbl.mem seen (u, q)) then begin
      Hashtbl.add seen (u, q) ();
      next := (u, q) :: !next
    end
  in
  List.iter (push start) (Nfa.start_set nfa);
  let running = ref true in
  while !running && !next <> [] do
    let level = Array.of_list (List.rev !next) in
    next := [];
    let taken = take_budgeted ctx level in
    if taken < Array.length level then running := false;
    Metrics.add m_auto_steps taken;
    for i = 0 to taken - 1 do
      let u, q = level.(i) in
      if nfa.Nfa.accept.(q) then Hashtbl.replace answers u ()
    done;
    let expanded =
      Ssd_par.Pool.map_range taken (fun i ->
          let u, q = level.(i) in
          if nfa.Nfa.trans.(q) = [] then []
          else
            List.concat_map
              (fun (l, v) ->
                List.concat_map
                  (fun (p, q') ->
                    if Lpred.matches p l then
                      List.map (fun q'' -> (v, q'')) closures.(q')
                    else [])
                  nfa.Nfa.trans.(q))
              (succs ctx u))
    in
    Array.iter (List.iter (fun (v, q') -> push v q')) expanded
  done;
  Hashtbl.fold (fun u () acc -> u :: acc) answers [] |> List.sort_uniq compare

(* Like [regex_reach], but also return one (shortest, by BFS order)
   witness path per reached node — the value a path variable binds to. *)
let regex_reach_paths ctx start r =
  let nfa, closures = nfa_of ctx r in
  let parent = Hashtbl.create 64 in
  let answers = Hashtbl.create 16 in
  let next = ref [] in
  let push key prev =
    if not (Hashtbl.mem parent key) then begin
      Hashtbl.add parent key prev;
      next := key :: !next
    end
  in
  List.iter (fun q -> push (start, q) None) (Nfa.start_set nfa);
  let running = ref true in
  while !running && !next <> [] do
    let level = Array.of_list (List.rev !next) in
    next := [];
    let taken = take_budgeted ctx level in
    if taken < Array.length level then running := false;
    Metrics.add m_auto_steps taken;
    for i = 0 to taken - 1 do
      let ((u, q) as key) = level.(i) in
      if nfa.Nfa.accept.(q) && not (Hashtbl.mem answers u) then begin
        let rec unwind key acc =
          match Hashtbl.find parent key with
          | None -> acc
          | Some (prev, l) -> unwind prev (l :: acc)
        in
        Hashtbl.add answers u (unwind key [])
      end
    done;
    (* Workers return ((v, q''), (parent key, label)) per discovery;
       merging in frontier order makes first-discovery — and so each
       witness path — identical to the queue loop's. *)
    let expanded =
      Ssd_par.Pool.map_range taken (fun i ->
          let ((u, q) as key) = level.(i) in
          if nfa.Nfa.trans.(q) = [] then []
          else
            List.concat_map
              (fun (l, v) ->
                List.concat_map
                  (fun (p, q') ->
                    if Lpred.matches p l then
                      List.map (fun q'' -> ((v, q''), (key, l))) closures.(q')
                    else [])
                  nfa.Nfa.trans.(q))
              (succs ctx u))
    in
    Array.iter (List.iter (fun (key, prev) -> push key (Some prev))) expanded
  done;
  Hashtbl.fold (fun u path acc -> (u, path) :: acc) answers []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

(* Reify a label path as the chain tree {l1: {l2: ... {}}}. *)
let chain_of_path ctx path =
  List.fold_right
    (fun l next ->
      let u = Store.add_node ctx.st in
      Store.add_edge ctx.st u l next;
      u)
    path
    (Store.add_node ctx.st)

(* ------------------------------------------------------------------ *)
(* Pattern matching                                                    *)
(* ------------------------------------------------------------------ *)

let bind_label env x l k =
  match Env.find_opt x env.vars with
  | Some (Elabel l0) -> if Label.equal l l0 then k env else []
  | Some (Enode _) ->
    runtime_error ~code:"SSD304" "variable %s bound as both tree and label" x
  | None -> k { env with vars = Env.add x (Elabel l) env.vars }

let rec match_steps ctx env node steps k =
  if not (Budget.step ctx.budget) then []
  else
    match steps with
  | [] -> k env node
  | Slit le :: rest ->
    let l = resolve_label env le in
    List.concat_map
      (fun (l', v) -> if Label.equal l l' then match_steps ctx env v rest k else [])
      (succs ctx node)
  | Sbind x :: rest ->
    List.concat_map
      (fun (l, v) -> bind_label env x l (fun env -> match_steps ctx env v rest k))
      (succs ctx node)
  | Spred p :: rest ->
    List.concat_map
      (fun (l, v) -> if Lpred.matches p l then match_steps ctx env v rest k else [])
      (succs ctx node)
  | Sregex (r, None) :: rest ->
    List.concat_map
      (fun v -> match_steps ctx env v rest k)
      (regex_reach ctx node r)
  | Sregex (r, Some p) :: rest ->
    List.concat_map
      (fun (v, path) ->
        let chain = chain_of_path ctx path in
        let env = { env with vars = Env.add p (Enode chain) env.vars } in
        match_steps ctx env v rest k)
      (regex_reach_paths ctx node r)

let rec match_pattern ctx env node = function
  | Pany -> [ env ]
  | Pbind x -> [ { env with vars = Env.add x (Enode node) env.vars } ]
  | Pedges entries ->
    List.fold_left
      (fun envs (steps, sub) ->
        List.concat_map
          (fun env ->
            match_steps ctx env node steps (fun env v -> match_pattern ctx env v sub))
          envs)
      [ env ] entries

(* ------------------------------------------------------------------ *)
(* Expression evaluation                                               *)
(* ------------------------------------------------------------------ *)

let all_literal_steps env steps =
  (* Paths answerable from a DataGuide: every step a fixed label. *)
  let rec go acc = function
    | [] -> Some (List.rev acc)
    | Slit le :: rest -> go (resolve_label env le :: acc) rest
    | (Sbind _ | Spred _ | Sregex _) :: _ -> None
  in
  go [] steps

(* A pattern is safe to match across worker domains when matching it
   cannot mutate the store: every step form reads only, except a regex
   with a path binder (its witness is reified as a chain of fresh store
   nodes).  Conditions never appear inside patterns, so this is the only
   exclusion. *)
let rec pattern_par_safe = function
  | Pany | Pbind _ -> true
  | Pedges entries ->
    List.for_all
      (fun (steps, sub) ->
        List.for_all
          (function Sregex (_, Some _) -> false | Slit _ | Sbind _ | Spred _ | Sregex (_, None) -> true)
          steps
        && pattern_par_safe sub)
      entries

let rec pattern_regexes p acc =
  match p with
  | Pany | Pbind _ -> acc
  | Pedges entries ->
    List.fold_left
      (fun acc (steps, sub) ->
        let acc =
          List.fold_left
            (fun acc -> function Sregex (r, _) -> r :: acc | Slit _ | Sbind _ | Spred _ -> acc)
            acc steps
        in
        pattern_regexes sub acc)
      acc entries

let rec eval_expr ctx env = function
  | Empty -> Store.add_node ctx.st
  | Db -> ctx.db_node
  | Var x -> (
    match Env.find_opt x env.vars with
    | Some (Enode n) -> n
    | Some (Elabel l) ->
      (* A label variable used as a tree denotes the leaf {l: {}}. *)
      let u = Store.add_node ctx.st in
      let v = Store.add_node ctx.st in
      Store.add_edge ctx.st u l v;
      u
    | None -> runtime_error ~code:"SSD303" "unbound variable %s" x)
  | Tree entries ->
    let u = Store.add_node ctx.st in
    List.iter
      (fun (le, e) ->
        let l = resolve_label env le in
        let v = eval_expr ctx env e in
        Store.add_edge ctx.st u l v)
      entries;
    u
  | Union (a, b) ->
    let u = Store.add_node ctx.st in
    Store.add_eps ctx.st u (eval_expr ctx env a);
    Store.add_eps ctx.st u (eval_expr ctx env b);
    u
  | Select (head, clauses) ->
    let clauses =
      if ctx.opts.reorder_clauses then Optimize.reorder_clauses clauses else clauses
    in
    let envs = eval_clauses ctx [ env ] clauses in
    Metrics.observe h_select (float_of_int (List.length envs));
    let u = Store.add_node ctx.st in
    List.iter (fun env -> Store.add_eps ctx.st u (eval_expr ctx env head)) envs;
    u
  | If (c, a, b) ->
    if eval_cond_exact ctx env c then eval_expr ctx env a else eval_expr ctx env b
  | Let (x, a, b) ->
    let n = eval_expr ctx env a in
    eval_expr ctx { env with vars = Env.add x (Enode n) env.vars } b
  | Letsfun (def, e) ->
    check_sfun def;
    List.iter
      (fun c ->
        let allowed =
          c.ctree :: (match c.cstep with Sbind x -> [ x ] | Slit _ | Spred _ | Sregex _ -> [])
        in
        List.iter
          (fun v ->
            if not (List.mem v allowed) then
              ill_formed ~code:"SSD307" "sfun %s: body mentions free variable %s"
                def.fname v)
          (free_tree_vars c.cbody))
      def.cases;
    let closure = { def; fenv = env.funs; memo = Hashtbl.create 64; queue = Queue.create () } in
    closure.fenv <- Env.add def.fname closure closure.fenv;
    eval_expr ctx { env with funs = Env.add def.fname closure env.funs } e
  | App (f, arg) -> (
    match Env.find_opt f env.funs with
    | None -> runtime_error ~code:"SSD305" "unknown function %s" f
    | Some closure ->
      let node = eval_expr ctx env arg in
      apply ctx closure node)

and eval_clauses ctx envs = function
  | [] -> envs
  | Gen (p, e) :: rest ->
    let envs = gen_envs ctx envs p e in
    Metrics.add m_bindings (List.length envs);
    eval_clauses ctx envs rest
  | Where c :: rest ->
    eval_clauses ctx (List.filter (fun env -> eval_cond_exact ctx env c) envs) rest

(* One generator clause over a list of candidate environments.  When the
   source expression needs no evaluation (Db, or a variable already bound
   to a tree node) and the pattern cannot touch the store (see
   [pattern_par_safe]), each environment's match is independent read-only
   work: fan it out across the pool and concatenate the per-environment
   results in input order, which is byte-identical to the sequential
   scan.  Everything else — DataGuide shortcuts, sources that must be
   evaluated, path-binding regexes — keeps the sequential path. *)
and gen_envs ctx envs p e =
  let sequential () =
    List.concat_map
      (fun env ->
        match guided_generator ctx env p e with
        | Some envs -> envs
        | None ->
          let node = eval_expr ctx env e in
          match_pattern ctx env node p)
      envs
  in
  let source_node env =
    match e with
    | Db -> Some ctx.db_node
    | Var x -> (
      match Env.find_opt x env.vars with Some (Enode n) -> Some n | _ -> None)
    | _ -> None
  in
  match envs with
  | [] | [ _ ] -> sequential ()
  | _ ->
    if
      Ssd_par.Pool.default_jobs () <= 1
      || ctx.opts.dataguide <> None
      || ctx.opts.path_index <> None
      || not (pattern_par_safe p)
    then sequential ()
    else begin
      let nodes = List.map source_node envs in
      if List.mem None nodes then sequential ()
      else begin
        (* Workers must only read the NFA cache: build entries for every
           regex in the pattern before entering the region. *)
        List.iter (fun r -> ignore (nfa_of ctx r)) (pattern_regexes p []);
        let arr =
          Array.of_list
            (List.map2 (fun env node -> (env, Option.get node)) envs nodes)
        in
        let parts =
          Ssd_par.Pool.map_range ~min_par:2 (Array.length arr) (fun i ->
              let env, node = arr.(i) in
              match_pattern ctx env node p)
        in
        List.concat (Array.to_list parts)
      end
    end

(* DataGuide shortcuts for single-entry patterns on DB: an all-literal
   path is answered by one guide lookup; a single regex step is answered
   by running the automaton product over the (usually much smaller) guide
   graph and unioning the accepted guide nodes' target sets — sound
   because a strong DataGuide has exactly the data's root paths. *)
and guided_generator ctx env p e =
  match e, p with
  | Db, Pedges [ (steps, sub) ] -> (
    let offset = ctx.db_node - Graph.root ctx.db in
    let continue_at data_nodes =
      Some
        (List.concat_map
           (fun data_node -> match_pattern ctx env (data_node + offset) sub)
           data_nodes)
    in
    match all_literal_steps env steps with
    | Some path -> (
      (* Prefer the path index (O(1) on a precomputed table) over the
         guide walk when the path is within its depth. *)
      match ctx.opts.path_index with
      | Some pidx when List.length path <= Ssd_index.Path_index.depth pidx -> (
        match Ssd_index.Path_index.find pidx path with
        | Some nodes -> continue_at nodes
        | None -> None)
      | _ -> (
        match ctx.opts.dataguide with
        | Some guide -> continue_at (Dataguide.find guide path)
        | None -> None))
    | None -> (
      match ctx.opts.dataguide, steps with
      | Some guide, [ Sregex (r, None) ] ->
        let nfa, _ = nfa_of ctx r in
        let guide_hits =
          Ssd_automata.Product.accepting_nodes (Dataguide.graph guide) nfa
        in
        continue_at
          (List.sort_uniq compare
             (List.concat_map (Dataguide.targets guide) guide_hits))
      | _ -> None))
  | _ -> None

(* Conditions are always decided exactly, even with an exhausted budget:
   an approximate [where] could let wrong rows through, breaking the
   partial-answers-are-a-lower-bound guarantee. *)
and eval_cond_exact ctx env c = Budget.exempt ctx.budget (fun () -> eval_cond ctx env c)

and eval_cond ctx env = function
  | Ccmp (op, a1, a2) ->
    let c = compare_labels (resolve_atom env a1) (resolve_atom env a2) in
    (match op with
     | Eq -> c = 0
     | Neq -> c <> 0
     | Lt -> c < 0
     | Le -> c <= 0
     | Gt -> c > 0
     | Ge -> c >= 0)
  | Cistype (t, a) -> Label.type_name (resolve_atom env a) = t
  | Cstarts (a, prefix) -> Lpred.matches (Lpred.Starts_with prefix) (resolve_atom env a)
  | Ccontains (a, needle) -> Lpred.matches (Lpred.Contains needle) (resolve_atom env a)
  | Cempty e -> succs ctx (eval_expr ctx env e) = []
  | Cequal (e1, e2) ->
    let g1 = Store.to_graph ctx.st ~root:(eval_expr ctx env e1) in
    let g2 = Store.to_graph ctx.st ~root:(eval_expr ctx env e2) in
    Ssd.Bisim.equal g1 g2
  | Cnot c -> not (eval_cond ctx env c)
  | Cand (c1, c2) -> eval_cond ctx env c1 && eval_cond ctx env c2
  | Cor (c1, c2) -> eval_cond ctx env c1 || eval_cond ctx env c2

(* Bulk semantics of structural recursion.  One result node per input
   node, created on demand; each input node's edges are processed exactly
   once, so the evaluation is linear in the input graph and terminates on
   cycles. *)
and apply ctx closure start =
  let result_of u =
    match Hashtbl.find_opt closure.memo u with
    | Some r -> r
    | None ->
      let r = Store.add_node ctx.st in
      Hashtbl.add closure.memo u r;
      Queue.push u closure.queue;
      r
  in
  let r0 = result_of start in
  while (not (Queue.is_empty closure.queue)) && Budget.step ctx.budget do
    let u = Queue.pop closure.queue in
    let r = Hashtbl.find closure.memo u in
    let edges = succs ctx u in
    (* Case matching per edge is pure (find_case never consults the
       store), so a wide node's edge set is scanned across the pool;
       body evaluation stays on this domain, in edge order, so the store
       is constructed in exactly the same order — and result graphs and
       their printed forms are byte-identical — for every jobs value. *)
    let matched =
      if Ssd_par.Pool.default_jobs () > 1 then begin
        let earr = Array.of_list edges in
        Array.to_list
          (Ssd_par.Pool.map_range (Array.length earr) (fun i ->
               let l, v = earr.(i) in
               (v, find_case closure.def.cases l)))
      end
      else List.map (fun (l, v) -> (v, find_case closure.def.cases l)) edges
    in
    List.iter
      (fun (v, case_match) ->
        Metrics.incr m_sfun_edges;
        match case_match with
        | None -> ()
        | Some (case, label_binding) ->
          let vars =
            List.fold_left
              (fun m (x, entry) -> Env.add x entry m)
              (Env.add case.ctree (Enode v) Env.empty)
              label_binding
          in
          (* A recursive occurrence f(T) in the body re-enters [apply] on
             [v]; the memo makes that a constant-time lookup of v's
             result node (possibly still unpopulated — cycles close
             later, when v is dequeued). *)
          let env = { vars; funs = closure.fenv } in
          let frag = eval_expr ctx env case.cbody in
          Store.add_eps ctx.st r frag)
      matched
  done;
  r0

and find_case cases l =
  List.find_map
    (fun case ->
      match case.cstep with
      | Slit le ->
        let lit =
          match le with
          | Llit l0 -> l0
          | Lname x -> Label.Sym x
        in
        if Label.equal l lit then Some (case, []) else None
      | Sbind x -> Some (case, [ (x, Elabel l) ])
      | Spred p -> if Lpred.matches p l then Some (case, []) else None
      | Sregex _ -> None)
    cases

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)
(* ------------------------------------------------------------------ *)

let eval ?(options = default_options) ?budget ~db q =
  Metrics.incr m_queries;
  let budget = match budget with Some b -> b | None -> Budget.unlimited () in
  Metrics.time t_eval (fun () ->
      Trace.with_span "unql.eval" (fun () ->
          (* The store reads [db] in place: the import only names its root. *)
          let st = Store.create ~base:db () in
          let db_node =
            Trace.with_span "unql.eval.import" (fun () -> Store.import st db)
          in
          let ctx =
            { st; db; db_node; opts = options; nfa_cache = Hashtbl.create 8; budget }
          in
          let env = { vars = Env.empty; funs = Env.empty } in
          let root =
            Trace.with_span "unql.eval.expr" (fun () -> eval_expr ctx env q)
          in
          Trace.with_span "unql.eval.snapshot" (fun () ->
              Graph.gc (Store.to_graph st ~root))))

let eval_outcome ?options ~budget ~db q = Budget.wrap budget (eval ?options ~budget ~db q)

let eval_tree ?options ?budget ~db q = Graph.to_tree (eval ?options ?budget ~db q)

let run ?options ?budget ~db src = eval ?options ?budget ~db (Parser.parse src)
