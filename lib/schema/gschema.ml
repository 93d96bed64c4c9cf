module Graph = Ssd.Graph
module Label = Ssd.Label
module Scan = Ssd.Scan

type t = {
  root : int;
  out : (Ssd_automata.Lpred.t * int) list array;
}

module Builder = struct
  type t = {
    mutable n : int;
    mutable edges : (int * Ssd_automata.Lpred.t * int) list;
    mutable root : int;
  }

  let create () = { n = 0; edges = []; root = 0 }

  let add_node b =
    let id = b.n in
    b.n <- b.n + 1;
    id

  let add_edge b u p v =
    assert (u >= 0 && u < b.n && v >= 0 && v < b.n);
    b.edges <- (u, p, v) :: b.edges

  let set_root b r =
    assert (r >= 0 && r < b.n);
    b.root <- r

  let finish b =
    if b.n = 0 then invalid_arg "Gschema.Builder.finish: empty builder";
    let out = Array.make b.n [] in
    List.iter (fun (u, p, v) -> out.(u) <- (p, v) :: out.(u)) b.edges;
    { root = b.root; out }
end

let root s = s.root
let n_nodes s = Array.length s.out
let succ s u = s.out.(u)

(* One query-predicate step over the schema automaton: successors along
   edges whose predicate may co-match the query predicate
   (conservative, via Lpred.compatible — never loses a live path). *)
let step s nodes p =
  List.concat_map
    (fun u ->
      List.filter_map
        (fun (q, v) -> if Ssd_automata.Lpred.compatible p q then Some v else None)
        (succ s u))
    nodes
  |> List.sort_uniq compare

(* ------------------------------------------------------------------ *)
(* Parsing                                                             *)
(* ------------------------------------------------------------------ *)

(* A schema document is data syntax whose label positions hold predicate
   expressions, read by the regex parser from the same cursor (it stops
   at the ':', ',' or '}' that ends the predicate).  The expression must
   denote a single predicate: alternation [p|q] is folded into
   Ssd_automata.Lpred.Or. *)

type pstate = {
  c : Scan.t;
  builder : Builder.t;
  names : (string, int * (int * int)) Hashtbl.t; (* node, span of first use *)
  bound : (string, unit) Hashtbl.t;
}

let parse_pred c =
  Scan.skip_ws c;
  let at = c.pos in
  let rec pred_of_regex = function
    | Ssd_automata.Regex.Atom p -> p
    | Ssd_automata.Regex.Alt (a, b) -> Ssd_automata.Lpred.Or (pred_of_regex a, pred_of_regex b)
    | r ->
      Scan.fail ~at c
        ("schema edges carry label predicates, not path expressions: "
        ^ Ssd_automata.Regex.to_string r)
  in
  pred_of_regex (Ssd_automata.Regex.read c)

let node_for_name st name span =
  match Hashtbl.find_opt st.names name with
  | Some (id, _) -> id
  | None ->
    let id = Builder.add_node st.builder in
    Hashtbl.add st.names name (id, span);
    id

let rec parse_node st =
  let c = st.c in
  Scan.skip_ws c;
  let at = c.pos in
  match Scan.peek c with
  | '&' ->
    Scan.advance c;
    let name = Scan.ident c in
    if Hashtbl.mem st.bound name then Scan.fail ~at c ("node &" ^ name ^ " bound twice");
    Hashtbl.add st.bound name ();
    let id = node_for_name st name (at, c.pos) in
    let body = parse_node st in
    (* Schemas have no ε-edges: the named node gets a copy of the body's
       edges. *)
    List.iter (fun (p, v) -> Builder.add_edge st.builder id p v) (alias_edges st body);
    id
  | '*' ->
    Scan.advance c;
    let name = Scan.ident c in
    node_for_name st name (at, c.pos)
  | '{' ->
    Scan.advance c;
    let id = Builder.add_node st.builder in
    Scan.skip_ws c;
    if not (Scan.eat c "}") then begin
      parse_entry st id;
      Scan.skip_ws c;
      while Scan.eat c "," do
        parse_entry st id;
        Scan.skip_ws c
      done;
      if Scan.eof c then Scan.fail c "unterminated '{'";
      Scan.expect c "}" "expected ',' or '}'"
    end;
    id
  | _ -> Scan.fail c "expected '{', '&' or '*'"

and alias_edges st body =
  (* Edges of a just-parsed body node; used to inline it under a '&name'
     binder. *)
  let b = st.builder in
  List.filter_map (fun (u, p, v) -> if u = body then Some (p, v) else None)
    (List.rev b.Builder.edges)

and parse_entry st parent =
  let c = st.c in
  let pred = parse_pred c in
  Scan.skip_ws c;
  if Scan.eat c ":" then begin
    Scan.skip_ws c;
    match Scan.peek c with
    | '{' | '&' | '*' ->
      let v = parse_node st in
      Builder.add_edge st.builder parent pred v
    | _ ->
      (* bare predicate value: sugar for {pred: {}} *)
      let inner = parse_pred c in
      let v = Builder.add_node st.builder in
      let leafn = Builder.add_node st.builder in
      Builder.add_edge st.builder v inner leafn;
      Builder.add_edge st.builder parent pred v
  end
  else
    let leafn = Builder.add_node st.builder in
    Builder.add_edge st.builder parent pred leafn

let parse src =
  (* '##' starts a comment ('#' alone is a type-test predicate) *)
  let c = Scan.make ~comments:[ "##" ] ~code:"SSD006" src in
  let st = { c; builder = Builder.create (); names = Hashtbl.create 8; bound = Hashtbl.create 8 } in
  let r = parse_node st in
  Scan.skip_ws c;
  if not (Scan.eof c) then Scan.fail c "trailing input after schema";
  Hashtbl.iter
    (fun name (_, (at, stop)) ->
      if not (Hashtbl.mem st.bound name) then
        Scan.fail ~at ~stop c (Printf.sprintf "reference *%s has no &%s binding" name name))
    st.names;
  Builder.set_root st.builder r;
  Builder.finish st.builder

(* ------------------------------------------------------------------ *)
(* Printing                                                            *)
(* ------------------------------------------------------------------ *)

let pp fmt s =
  let indegree = Array.make (n_nodes s) 0 in
  Array.iter (List.iter (fun (_, v) -> indegree.(v) <- indegree.(v) + 1)) s.out;
  let printed = Hashtbl.create 8 in
  let rec pp_node fmt u =
    if Hashtbl.mem printed u then Format.fprintf fmt "*%d" u
    else begin
      if indegree.(u) > 1 then begin
        Hashtbl.add printed u ();
        Format.fprintf fmt "&%d " u
      end;
      match s.out.(u) with
      | [] -> Format.pp_print_string fmt "{}"
      | es ->
        Format.fprintf fmt "@[<hv 1>{";
        List.iteri
          (fun i (p, v) ->
            if i > 0 then Format.fprintf fmt ",@ ";
            if s.out.(v) = [] && indegree.(v) <= 1 then Ssd_automata.Lpred.pp fmt p
            else Format.fprintf fmt "%a: %a" Ssd_automata.Lpred.pp p pp_node v)
          es;
        Format.fprintf fmt "}@]"
    end
  in
  pp_node fmt s.root

let to_string s = Format.asprintf "%a" pp s

(* ------------------------------------------------------------------ *)
(* Conformance                                                         *)
(* ------------------------------------------------------------------ *)

let classify g s =
  Ssd.Simulation.maximal
    ~n1:(Graph.n_nodes g)
    ~succ1:(Graph.labeled_succ g)
    ~n2:(n_nodes s)
    ~succ2:(succ s)
    ~matches:(fun l p -> Ssd_automata.Lpred.matches p l)

let conforms g s =
  let sim = classify g s in
  List.mem s.root sim.(Graph.root g)

let violations g s =
  let sim = classify g s in
  let live = Graph.reachable g in
  let out = ref [] in
  for u = Graph.n_nodes g - 1 downto 0 do
    if live.(u) && sim.(u) = [] then out := u :: !out
  done;
  !out
