(* Cardinality-annotated DataGuides: the statistics catalog behind the
   cost-based planner and the lint cardinality pass.  See annotated.mli. *)

module Graph = Ssd.Graph
module Label = Ssd.Label
module Lpred = Ssd_automata.Lpred
module Regex = Ssd_automata.Regex
module Nfa = Ssd_automata.Nfa
module Product = Ssd_automata.Product

module Label_map = Map.Make (struct
  type t = Label.t

  let compare = Label.compare
end)

type t = {
  guide : Dataguide.t;
  card : int array; (* per guide node: |targets| *)
  fmax : int Label_map.t array; (* per guide node, per label: max fan-out *)
  stats : Ssd_index.Stats.t;
  vindex : Ssd_index.Value_index.t; (* per-label edge histogram *)
}

let of_guide g guide =
  let n = Dataguide.n_nodes guide in
  let card = Array.init n (fun u -> List.length (Dataguide.targets guide u)) in
  let fmax = Array.make n Label_map.empty in
  for u = 0 to n - 1 do
    (* For each data node in the target set, count its outgoing edges per
       label (parallel edges count — the evaluator follows each), then
       keep the per-label maximum over the set. *)
    List.iter
      (fun d ->
        let counts =
          List.fold_left
            (fun m (l, _) ->
              Label_map.update l
                (fun o -> Some (1 + Option.value ~default:0 o))
                m)
            Label_map.empty (Graph.labeled_succ g d)
        in
        fmax.(u) <-
          Label_map.union (fun _ a b -> Some (max a b)) fmax.(u) counts)
      (Dataguide.targets guide u)
  done;
  {
    guide;
    card;
    fmax;
    stats = Ssd_index.Stats.compute g;
    vindex = Ssd_index.Value_index.build g;
  }

let build g = of_guide g (Dataguide.build g)
let guide t = t.guide
let stats t = t.stats
let card t u = t.card.(u)

let fmax t u l =
  Option.value ~default:0 (Label_map.find_opt l t.fmax.(u))

let label_count t l = List.length (Ssd_index.Value_index.find t.vindex l)

let labels t =
  (* Distinct labels present in the guide (= labels present in the data). *)
  let g = Dataguide.graph t.guide in
  let acc = ref [] in
  for u = 0 to Graph.n_nodes g - 1 do
    List.iter (fun (l, _) -> acc := l :: !acc) (Graph.labeled_succ g u)
  done;
  List.sort_uniq Label.compare !acc

let top_labels t ~k =
  (* The histogram lives in the value index; Stats.top_labels would
     rescan the data graph, which we no longer hold. *)
  let all =
    List.filter_map
      (fun l -> match label_count t l with 0 -> None | c -> Some (l, c))
      (labels t)
  in
  let sorted = List.sort (fun (_, a) (_, b) -> compare b a) all in
  let rec take n = function
    | [] -> []
    | _ when n = 0 -> []
    | x :: rest -> x :: take (n - 1) rest
  in
  take k sorted

(* ------------------------------------------------------------------ *)
(* Frontier estimation                                                 *)
(* ------------------------------------------------------------------ *)

type frontier = (int * float) list

let start t =
  let root = Graph.root (Dataguide.graph t.guide) in
  [ (root, 1.0) ]

let normalize acc =
  Hashtbl.fold (fun v c l -> (v, c) :: l) acc []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let step_pred t fr p =
  let g = Dataguide.graph t.guide in
  let acc = Hashtbl.create 8 in
  List.iter
    (fun (u, c) ->
      List.iter
        (fun (l, v) ->
          if Lpred.matches p l then begin
            let f = float_of_int (fmax t u l) in
            let prev = Option.value ~default:0.0 (Hashtbl.find_opt acc v) in
            Hashtbl.replace acc v (prev +. (c *. f))
          end)
        (Graph.labeled_succ g u))
    fr;
  normalize acc

let cyclic_from t starts =
  (* Is any guide cycle reachable from [starts]?  Colored DFS. *)
  let g = Dataguide.graph t.guide in
  let n = Graph.n_nodes g in
  let color = Array.make n 0 in
  (* 0 white, 1 on stack, 2 done *)
  let cyclic = ref false in
  let rec visit u =
    if color.(u) = 1 then cyclic := true
    else if color.(u) = 0 then begin
      color.(u) <- 1;
      List.iter (fun (_, v) -> visit v) (Graph.labeled_succ g u);
      color.(u) <- 2
    end
  in
  List.iter visit starts;
  !cyclic

let rec regex_recursive = function
  | Regex.Star r | Regex.Plus r -> not (Regex.is_void r)
  | Regex.Void | Regex.Eps | Regex.Atom _ -> false
  | Regex.Seq (a, b) | Regex.Alt (a, b) ->
    regex_recursive a || regex_recursive b
  | Regex.Opt r -> regex_recursive r

let step_regex t fr re =
  let g = Dataguide.graph t.guide in
  let nfa = Nfa.of_regex re in
  let acc = Hashtbl.create 8 in
  List.iter
    (fun (u, c) ->
      (* The evaluator dedups regex results to data-node sets per
         environment, so each incoming pair contributes at most
         card(v) pairs at each accepting guide node v. *)
      let accepted = Product.accepting_nodes_from g nfa ~starts:[ u ] in
      List.iter
        (fun v ->
          let prev = Option.value ~default:0.0 (Hashtbl.find_opt acc v) in
          Hashtbl.replace acc v (prev +. (c *. float_of_int t.card.(v))))
        accepted)
    fr;
  let unbounded = regex_recursive re && cyclic_from t (List.map fst fr) in
  (normalize acc, unbounded)

let total fr = List.fold_left (fun s (_, c) -> s +. c) 0.0 fr
let nodes fr = List.map fst fr

let region_card t starts =
  (* Sum of target-set sizes over every guide node reachable from
     [starts] — the size of the data region a regex traversal from
     these positions can touch, hence its work estimate. *)
  let g = Dataguide.graph t.guide in
  let n = Graph.n_nodes g in
  let seen = Array.make n false in
  let acc = ref 0.0 in
  let rec visit u =
    if not seen.(u) then begin
      seen.(u) <- true;
      acc := !acc +. float_of_int t.card.(u);
      List.iter (fun (_, v) -> visit v) (Graph.labeled_succ g u)
    end
  in
  List.iter visit starts;
  !acc
