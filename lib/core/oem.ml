type otype =
  | Set
  | Int
  | Real
  | Str
  | Bool

type t = {
  oid : string option;
  label : string;
  value : value;
}

and value =
  | Atom of Label.t
  | Objects of member list

and member =
  | Obj of t
  | Ref of string

(* ------------------------------------------------------------------ *)
(* Printing                                                            *)
(* ------------------------------------------------------------------ *)

let type_of_atom = function
  | Label.Int _ -> Int
  | Label.Float _ -> Real
  | Label.Str _ | Label.Sym _ -> Str
  | Label.Bool _ -> Bool

let type_name = function
  | Set -> "set"
  | Int -> "int"
  | Real -> "real"
  | Str -> "str"
  | Bool -> "bool"

let atom_literal = function
  | Label.Sym s -> Label.to_string (Label.Str s)
  | l -> Label.to_string l

let rec pp fmt o =
  (match o.oid with
   | Some id -> Format.fprintf fmt "&%s " id
   | None -> ());
  match o.value with
  | Atom l ->
    Format.fprintf fmt "<%s, %s, %s>" o.label (type_name (type_of_atom l)) (atom_literal l)
  | Objects members ->
    Format.fprintf fmt "@[<hv 2><%s, set, {" o.label;
    List.iteri
      (fun i m ->
        if i > 0 then Format.fprintf fmt ",@ " else Format.fprintf fmt "@ ";
        match m with
        | Obj o -> pp fmt o
        | Ref id -> Format.fprintf fmt "&%s" id)
      members;
    Format.fprintf fmt " }>@]"

let to_string o = Format.asprintf "%a" pp o

(* ------------------------------------------------------------------ *)
(* Parsing                                                             *)
(* ------------------------------------------------------------------ *)

let eat c ch msg =
  Scan.skip_space c;
  if Scan.peek c = ch then Scan.advance c else Scan.fail c msg

let lex_ident c =
  Scan.skip_space c;
  Scan.ident c

let lex_atom c =
  Scan.skip_space c;
  let at = c.Scan.pos in
  match Label.read c with
  | Label.Sym w -> Scan.fail ~at c ("expected an atomic value, got " ^ w)
  | l -> l

(* Labels are usually identifiers, but base labels from the graph side
   appear in label position too (quoted strings, numbers, booleans); keep
   their literal text so the graph mapping can re-parse them. *)
let lex_oem_label c =
  Scan.skip_space c;
  if Scan.is_ident_start (Scan.peek c) then lex_ident c else Label.to_string (lex_atom c)

(* [defined] and [refs] record each [&id] binder and reference with its
   span, checked once the document is read. *)
let rec parse_obj c ~defined ~refs =
  Scan.skip_space c;
  let at = c.pos in
  let oid = if Scan.eat c "&" then Some (lex_ident c) else None in
  Option.iter
    (fun id ->
      if Hashtbl.mem defined id then
        Scan.fail ~at c (Printf.sprintf "object id &%s bound twice" id);
      Hashtbl.add defined id ())
    oid;
  eat c '<' "expected '<'";
  let label = lex_oem_label c in
  eat c ',' "expected ',' after the label";
  let tat = (Scan.skip_space c; c.pos) in
  let tname = lex_ident c in
  let tstop = c.pos in
  eat c ',' "expected ',' after the type";
  let value =
    match tname with
    | "set" ->
      eat c '{' "set value expects '{'";
      Scan.skip_space c;
      if Scan.eat c "}" then Objects []
      else begin
        let member () =
          Scan.skip_space c;
          if Scan.peek c = '&' then begin
            (* Could be a reference (&id) or a bound object (&id <...>). *)
            let saved = c.pos in
            Scan.advance c;
            let id = lex_ident c in
            let stop = c.pos in
            Scan.skip_space c;
            if Scan.peek c = '<' then begin
              c.pos <- saved;
              Obj (parse_obj c ~defined ~refs)
            end
            else begin
              refs := (id, saved, stop) :: !refs;
              Ref id
            end
          end
          else Obj (parse_obj c ~defined ~refs)
        in
        let members = ref [ member () ] in
        Scan.skip_space c;
        while Scan.eat c "," do
          members := member () :: !members;
          Scan.skip_space c
        done;
        eat c '}' "expected '}' closing the set";
        Objects (List.rev !members)
      end
    | "int" | "real" | "str" | "bool" ->
      let at = (Scan.skip_space c; c.pos) in
      let l = lex_atom c in
      let stop = c.pos in
      let declared =
        match tname with "int" -> Int | "real" -> Real | "str" -> Str | _ -> Bool
      in
      if type_of_atom l <> declared then
        Scan.fail ~at ~stop c
          (Printf.sprintf "value %s does not have declared type %s" (atom_literal l) tname);
      Atom l
    | t -> Scan.fail ~at:tat ~stop:tstop c ("unknown OEM type " ^ t)
  in
  eat c '>' "expected '>' closing the object";
  { oid; label; value }

let parse src =
  let c = Scan.make ~code:"SSD004" src in
  let defined = Hashtbl.create 8 and refs = ref [] in
  let o = parse_obj c ~defined ~refs in
  Scan.skip_space c;
  if not (Scan.eof c) then Scan.fail c "trailing input after object";
  List.iter
    (fun (id, at, stop) ->
      if not (Hashtbl.mem defined id) then
        Scan.fail ~at ~stop c (Printf.sprintf "reference &%s has no definition" id))
    (List.rev !refs);
  o

(* ------------------------------------------------------------------ *)
(* To/from graphs                                                      *)
(* ------------------------------------------------------------------ *)

let label_of_oem_label s =
  match Label.of_string s with
  | l -> l
  | exception Ssd_diag.Fail _ -> Label.Sym s

let to_graph doc =
  let b = Graph.Builder.create () in
  let root = Graph.Builder.add_node b in
  Graph.Builder.set_root b root;
  let oids : (string, int) Hashtbl.t = Hashtbl.create 8 in
  let node_for_oid id =
    match Hashtbl.find_opt oids id with
    | Some n -> n
    | None ->
      let n = Graph.Builder.add_node b in
      Hashtbl.add oids id n;
      n
  in
  let rec emit parent o =
    let node = match o.oid with Some id -> node_for_oid id | None -> Graph.Builder.add_node b in
    Graph.Builder.add_edge b parent (label_of_oem_label o.label) node;
    (match o.value with
     | Atom l ->
       let leaf = Graph.Builder.add_node b in
       Graph.Builder.add_edge b node l leaf
     | Objects members ->
       List.iter
         (function
           | Obj o' -> emit node o'
           | Ref id ->
             (* a reference splices the target's content: ε-edge *)
             Graph.Builder.add_eps b node (node_for_oid id))
         members)
  in
  emit root doc;
  Graph.gc (Graph.Builder.finish b)

let of_graph ?(top = "db") g =
  let g = Graph.eps_eliminate g in
  (* Nodes needing an oid: labeled in-degree > 1 or targets of cycles. *)
  let indegree = Array.make (Graph.n_nodes g) 0 in
  Graph.fold_labeled_edges (fun () _ _ v -> indegree.(v) <- indegree.(v) + 1) () g;
  let on_stack = Hashtbl.create 16 in
  let cycle_target = Hashtbl.create 8 in
  let seen = Hashtbl.create 64 in
  let rec mark u =
    if Hashtbl.mem on_stack u then Hashtbl.replace cycle_target u ()
    else if not (Hashtbl.mem seen u) then begin
      Hashtbl.add seen u ();
      Hashtbl.add on_stack u ();
      List.iter (fun (_, v) -> mark v) (Graph.labeled_succ g u);
      Hashtbl.remove on_stack u
    end
  in
  mark (Graph.root g);
  let needs_oid u = indegree.(u) > 1 || Hashtbl.mem cycle_target u in
  let emitted = Hashtbl.create 16 in
  let oid_of u = Printf.sprintf "o%d" u in
  let atomic u =
    (* a node standing for an atomic value: exactly one base-label leaf *)
    match Graph.labeled_succ g u with
    | [ (l, v) ] when (not (Label.is_sym l)) && Graph.labeled_succ g v = [] -> Some l
    | _ -> None
  in
  let rec obj_of label u =
    if Hashtbl.mem emitted u then
      (* subsequent visits become references wrapped under this label *)
      { oid = None; label; value = Objects [ Ref (oid_of u) ] }
    else begin
      let oid = if needs_oid u then Some (oid_of u) else None in
      if oid <> None then Hashtbl.add emitted u ();
      match atomic u with
      | Some l -> { oid; label; value = Atom l }
      | None ->
        let members =
          List.map
            (fun (l, v) -> Obj (obj_of (Label.to_string l) v))
            (Graph.labeled_succ g u)
        in
        { oid; label; value = Objects members }
    end
  in
  obj_of top (Graph.root g)
