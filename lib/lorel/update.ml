module Graph = Ssd.Graph
module Label = Ssd.Label
module Scan = Ssd.Scan

type statement =
  | Insert of Ast.path * Ssd.Graph.t (** graft at every target *)
  | Delete of Ast.path * Ast.component
  | Rename of Ast.path * Label.t * Label.t

type t = statement list

(* ------------------------------------------------------------------ *)
(* Parsing: the Lorel path reader and the ssd data reader, on one
   cursor.                                                             *)
(* ------------------------------------------------------------------ *)

(* "PATH . component": the path up to its last component, and that
   component, which must name one edge. *)
let split_last c at (path : Ast.path) =
  match List.rev path.comps with
  | [] -> Scan.fail ~at c "expected PATH.component"
  | Ast.Cpath :: _ -> Scan.fail ~at c "'#' cannot be deleted/renamed (not one edge)"
  | last :: rest -> ({ path with comps = List.rev rest }, last)

let parse_statement c =
  let kat = c.Scan.pos in
  let path_at () = Scan.skip_space c; c.pos in
  if Scan.eat_word ~ci:true c "insert" then begin
    let path = Parser.read_path c in
    Scan.skip_space c;
    Scan.expect c ":=" "insert expects PATH := { ... }";
    Insert (path, Ssd.Syntax.read_graph c)
  end
  else if Scan.eat_word ~ci:true c "delete" then
    let at = path_at () in
    let path, comp = split_last c at (Parser.read_path c) in
    Delete (path, comp)
  else if Scan.eat_word ~ci:true c "rename" then begin
    let at = path_at () in
    let path, old = split_last c at (Parser.read_path c) in
    let old_label =
      match old with
      | Ast.Clabel l -> l
      | _ -> Scan.fail ~at c "rename expects PATH.old to new"
    in
    if not (Scan.eat_word ~ci:true c "to") then Scan.fail c "rename expects PATH.old to new";
    Scan.skip_space c;
    Rename (path, old_label, Label.read c)
  end
  else Scan.fail ~at:kat c "expected an update statement (insert, delete or rename)"

(* Statements separated (and optionally ended) by ';'. *)
let parse src =
  let c = Scan.make ~code:"SSD002" src in
  let rec go acc =
    Scan.skip_space c;
    if Scan.eof c then List.rev acc
    else if Scan.eat c ";" then go acc
    else begin
      let stmt = parse_statement c in
      Scan.skip_space c;
      if not (Scan.eof c || Scan.eat c ";") then Scan.fail c "expected ';' between statements";
      go (stmt :: acc)
    end
  in
  go []

(* ------------------------------------------------------------------ *)
(* Application                                                         *)
(* ------------------------------------------------------------------ *)

module Int_set = Set.Make (Int)

let targets ~db path = Int_set.of_list (Eval.eval_path ~db ~env:[] path)

let apply_one ~db = function
  | Insert (path, value) ->
    let hit = targets ~db path in
    let b = Graph.Builder.create () in
    let root = Graph.import_into b db in
    let offset = root - Graph.root db in
    (* one shared copy of the grafted value; its edges hang off every
       target (object identity: the grafted subobjects are shared) *)
    if not (Int_set.is_empty hit) then begin
      let vroot = Graph.import_into b value in
      let voffset = vroot - Graph.root value in
      Int_set.iter
        (fun u ->
          List.iter
            (fun (l, v) ->
              match l with
              | Graph.Eps -> Graph.Builder.add_eps b (u + offset) (v + voffset)
              | Graph.Lab l -> Graph.Builder.add_edge b (u + offset) l (v + voffset))
            (Graph.succ value (Graph.root value)))
        hit
    end;
    Graph.Builder.set_root b root;
    Graph.gc (Graph.Builder.finish b)
  | Delete (path, comp) ->
    let hit = targets ~db path in
    let matches l =
      match comp with
      | Ast.Cany -> true
      | Ast.Clabel l' -> Label.equal l l'
      | Ast.Cpath -> false
    in
    let b = Graph.Builder.create () in
    for _ = 1 to Graph.n_nodes db do
      ignore (Graph.Builder.add_node b)
    done;
    Graph.fold_edges
      (fun () u l v ->
        match l with
        | Graph.Eps -> Graph.Builder.add_eps b u v
        | Graph.Lab l ->
          if not (Int_set.mem u hit && matches l) then Graph.Builder.add_edge b u l v)
      () db;
    Graph.Builder.set_root b (Graph.root db);
    Graph.gc (Graph.Builder.finish b)
  | Rename (path, old_label, new_label) ->
    let hit = targets ~db path in
    let b = Graph.Builder.create () in
    for _ = 1 to Graph.n_nodes db do
      ignore (Graph.Builder.add_node b)
    done;
    Graph.fold_edges
      (fun () u l v ->
        match l with
        | Graph.Eps -> Graph.Builder.add_eps b u v
        | Graph.Lab l ->
          let l = if Int_set.mem u hit && Label.equal l old_label then new_label else l in
          Graph.Builder.add_edge b u l v)
      () db;
    Graph.Builder.set_root b (Graph.root db);
    Graph.gc (Graph.Builder.finish b)

let apply ~db t = List.fold_left (fun db stmt -> apply_one ~db stmt) db t

let run ~db src = apply ~db (parse src)
