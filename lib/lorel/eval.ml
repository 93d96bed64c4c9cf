module Graph = Ssd.Graph
module Label = Ssd.Label
module Budget = Ssd.Budget
module Metrics = Ssd_obs.Metrics
module Trace = Ssd_obs.Trace
open Ast

(* Runtime failures carry a diagnostic under the same code the static
   analyzer reports for the defect (SSD401: unbound range variable). *)
exception Runtime_error of Ssd_diag.t

let runtime_error ~code fmt =
  Printf.ksprintf
    (fun msg -> raise (Runtime_error (Ssd_diag.make Ssd_diag.Error ~code msg)))
    fmt

let () =
  Printexc.register_printer (function
    | Runtime_error d -> Some ("Lorel.Eval.Runtime_error: " ^ Ssd_diag.to_string d)
    | _ -> None)

module Int_set = Set.Make (Int)

(* Execution counters (lib/obs), reported to [Metrics.default]. *)
let m_queries = Metrics.counter "lorel.eval.queries"
let m_path_steps = Metrics.counter "lorel.eval.path_steps"
let m_edges = Metrics.counter "lorel.eval.edges_traversed"
let m_rows = Metrics.counter "lorel.eval.rows_produced"
let t_eval = Metrics.timer "lorel.eval.time"

let succs g u =
  let es = Graph.labeled_succ g u in
  Metrics.add m_edges (List.length es);
  es

(* ------------------------------------------------------------------ *)
(* Path expressions                                                    *)
(* ------------------------------------------------------------------ *)

(* The budget is consumed per node expanded; an exhausted budget makes
   every remaining expansion a no-op, so the denoted object set only
   shrinks — a sound lower bound. *)
let closure b g nodes =
  (* Reflexive-transitive closure over labeled edges (the '#' wildcard);
     visited set makes it total on cycles. *)
  let seen = ref Int_set.empty in
  let rec go u =
    if (not (Int_set.mem u !seen)) && Budget.step b then begin
      seen := Int_set.add u !seen;
      List.iter (fun (_, v) -> go v) (succs g u)
    end
  in
  Int_set.iter go nodes;
  !seen

let step b g nodes comp =
  Metrics.incr m_path_steps;
  match comp with
  | Clabel l ->
    Int_set.fold
      (fun u acc ->
        if Budget.step b then
          List.fold_left
            (fun acc (l', v) -> if Label.equal l l' then Int_set.add v acc else acc)
            acc (succs g u)
        else acc)
      nodes Int_set.empty
  | Cany ->
    Int_set.fold
      (fun u acc ->
        if Budget.step b then
          List.fold_left (fun acc (_, v) -> Int_set.add v acc) acc (succs g u)
        else acc)
      nodes Int_set.empty
  | Cpath -> closure b g nodes

let eval_path ?budget ~db ~env p =
  let b = match budget with Some b -> b | None -> Budget.unlimited () in
  let start =
    match p.start with
    | None -> Int_set.singleton (Graph.root db)
    | Some x -> (
      match List.assoc_opt x env with
      | Some n -> Int_set.singleton n
      | None -> runtime_error ~code:"SSD401" "unbound range variable %s" x)
  in
  Int_set.elements (List.fold_left (step b db) start p.comps)

let values_of g node =
  List.filter_map
    (fun (l, _) -> if Label.is_sym l then None else Some l)
    (Graph.labeled_succ g node)

(* ------------------------------------------------------------------ *)
(* Coercing comparisons                                                *)
(* ------------------------------------------------------------------ *)

let to_number = function
  | Label.Int i -> Some (float_of_int i)
  | Label.Float f -> Some f
  | Label.Str s -> float_of_string_opt (String.trim s)
  | Label.Bool _ | Label.Sym _ -> None

let to_text = function
  | Label.Str s | Label.Sym s -> s
  | Label.Int i -> string_of_int i
  | Label.Float f -> string_of_float f
  | Label.Bool b -> string_of_bool b

let contains_substring hay needle =
  let nh = String.length hay and nn = String.length needle in
  if nn = 0 then true
  else
    let rec at i = i + nn <= nh && (String.sub hay i nn = needle || at (i + 1)) in
    at 0

let compare_coerced v1 v2 =
  match to_number v1, to_number v2 with
  | Some f1, Some f2 -> Stdlib.compare f1 f2
  | _ -> String.compare (to_text v1) (to_text v2)

let cmp_values op v1 v2 =
  match op with
  | Eq -> Label.equal v1 v2 || compare_coerced v1 v2 = 0
  | Neq -> not (Label.equal v1 v2 || compare_coerced v1 v2 = 0)
  | Lt -> compare_coerced v1 v2 < 0
  | Le -> compare_coerced v1 v2 <= 0
  | Gt -> compare_coerced v1 v2 > 0
  | Ge -> compare_coerced v1 v2 >= 0
  | Like -> contains_substring (to_text v1) (to_text v2)

(* ------------------------------------------------------------------ *)
(* Conditions                                                          *)
(* ------------------------------------------------------------------ *)

let operand_values ~db ~env = function
  | Olit l -> [ l ]
  | Opath p ->
    let nodes = eval_path ~db ~env p in
    (* An object's comparable values; a node with no atomic value still
       contributes the labels of edges into it?  Lorel compares through
       values only — nodes without atomic values simply never satisfy a
       comparison. *)
    List.concat_map (values_of db) nodes

let rec eval_cond ~db ~env = function
  | Cmp (op, o1, o2) ->
    let vs1 = operand_values ~db ~env o1 in
    let vs2 = operand_values ~db ~env o2 in
    List.exists (fun v1 -> List.exists (fun v2 -> cmp_values op v1 v2) vs2) vs1
  | Exists p -> eval_path ~db ~env p <> []
  | And (c1, c2) -> eval_cond ~db ~env c1 && eval_cond ~db ~env c2
  | Or (c1, c2) -> eval_cond ~db ~env c1 || eval_cond ~db ~env c2
  | Not c -> not (eval_cond ~db ~env c)

(* ------------------------------------------------------------------ *)
(* Where placement                                                     *)
(* ------------------------------------------------------------------ *)

let rec conjuncts = function
  | And (c1, c2) -> conjuncts c1 @ conjuncts c2
  | c -> [ c ]

let path_vars p acc = match p.start with Some x -> x :: acc | None -> acc

let rec cond_vars c acc =
  match c with
  | Cmp (_, o1, o2) ->
    let operand acc = function Opath p -> path_vars p acc | Olit _ -> acc in
    operand (operand acc o1) o2
  | Exists p -> path_vars p acc
  | And (c1, c2) | Or (c1, c2) -> cond_vars c1 (cond_vars c2 acc)
  | Not c -> cond_vars c acc

(* [placement q] pairs each [where] conjunct, left to right, with the
   number of [from] ranges after which it is applied (0: before the
   first).  A conjunct goes right after the last range binding any of
   its variables: from there on those variables keep their final (last)
   binding, so it keeps every row it would keep at the end, in the same
   order.  It stays at the end when some variable is bound by no range,
   and so does every conjunct after it: at the end it sees exactly the
   rows the conjuncts to its left let through, and raises SSD401 as
   before.  When some range starts from a variable no earlier range
   binds, nothing moves: that range raises SSD401, and filtering first
   could empty the rows and skip it. *)
let placement q =
  let n_ranges = List.length q.from in
  let conjs = match q.where with None -> [] | Some c -> conjuncts c in
  let ranges = List.mapi (fun i (p, x) -> (i + 1, p, x)) q.from in
  let last_binding x =
    List.fold_left (fun acc (i, _, y) -> if y = x then Some i else acc) None ranges
  in
  let well_ranged =
    List.for_all
      (fun (i, p, _) ->
        match p.start with
        | None -> true
        | Some x -> List.exists (fun (j, _, y) -> j < i && y = x) ranges)
      ranges
  in
  let rec place = function
    | [] -> []
    | c :: rest -> (
      let bindings = List.map last_binding (cond_vars c []) in
      if List.mem None bindings then List.map (fun c -> (n_ranges, c)) (c :: rest)
      else
        let at = List.fold_left (fun acc b -> max acc (Option.get b)) 0 bindings in
        (at, c) :: place rest)
  in
  if well_ranged then place conjs else List.map (fun c -> (n_ranges, c)) conjs

(* ------------------------------------------------------------------ *)
(* Queries                                                             *)
(* ------------------------------------------------------------------ *)

let item_label item =
  match item.alias with
  | Some a -> Label.Sym a
  | None -> (
    match List.rev item.item.comps with
    | Clabel l :: _ -> l
    | _ -> (
      match item.item.start with
      | Some x -> Label.Sym x
      | None -> Label.Sym "item"))

(* The result graph: a root with one [row] edge per row, each row's
   items pointing at the original objects, and the part of [db] those
   objects reach.  The reached db nodes are numbered in ascending db id
   after the root and the rows come after them — the numbering
   [Graph.gc] gives a root-then-db-then-rows copy, without the copy. *)
let build_result ~db rows =
  let ids = Hashtbl.create 64 in
  let rec mark u =
    if not (Hashtbl.mem ids u) then begin
      Hashtbl.add ids u (-1);
      Graph.fold_succ (fun () _ v -> mark v) () db u
    end
  in
  List.iter (List.iter (fun (_, n) -> mark n)) rows;
  let live = Array.of_seq (Hashtbl.to_seq_keys ids) in
  Array.sort compare live;
  let b = Graph.Builder.create () in
  let result_root = Graph.Builder.add_node b in
  Graph.Builder.set_root b result_root;
  Array.iter (fun u -> Hashtbl.replace ids u (Graph.Builder.add_node b)) live;
  Array.iter
    (fun u ->
      let u' = Hashtbl.find ids u in
      Graph.fold_succ
        (fun () l v ->
          let v' = Hashtbl.find ids v in
          match l with
          | Graph.Eps -> Graph.Builder.add_eps b u' v'
          | Graph.Lab l -> Graph.Builder.add_edge b u' l v')
        () db u)
    live;
  let row_sym = Label.Sym "row" in
  List.iter
    (fun items ->
      let row = Graph.Builder.add_node b in
      Graph.Builder.add_edge b result_root row_sym row;
      List.iter (fun (lbl, n) -> Graph.Builder.add_edge b row lbl (Hashtbl.find ids n)) items)
    rows;
  Graph.Builder.finish b

let eval ?budget ~db q =
  Metrics.incr m_queries;
  Metrics.time t_eval @@ fun () ->
  Trace.with_span "lorel.eval" @@ fun () ->
  (* Only the [from] generators consume the budget: dropping range
     bindings loses whole rows.  [where] conditions and [select] item
     paths stay exact, so every emitted row is exactly what the
     unbudgeted evaluation would emit for that binding. *)
  let envs =
    Trace.with_span "lorel.from" @@ fun () ->
    let placed = placement q in
    let filter i envs =
      match List.filter_map (fun (at, c) -> if at = i then Some c else None) placed with
      | [] -> envs
      | cs -> List.filter (fun env -> List.for_all (eval_cond ~db ~env) cs) envs
    in
    snd
      (List.fold_left
         (fun (i, envs) (p, x) ->
           let envs =
             List.concat_map
               (fun env -> List.map (fun n -> (x, n) :: env) (eval_path ?budget ~db ~env p))
               envs
           in
           (i + 1, filter (i + 1) envs))
         (0, filter 0 [ [] ])
         q.from)
  in
  Metrics.add m_rows (List.length envs);
  Trace.annotate "rows" (Trace.Int (List.length envs));
  Trace.with_span "lorel.select" @@ fun () ->
  build_result ~db
    (List.map
       (fun env ->
         List.concat_map
           (fun item ->
             let lbl = item_label item in
             List.map (fun n -> (lbl, n)) (eval_path ~db ~env item.item))
           q.select)
       envs)

let eval_outcome ~budget ~db q = Budget.wrap budget (eval ~budget ~db q)

let run ?budget ~db src = eval ?budget ~db (Parser.parse src)
