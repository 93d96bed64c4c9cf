(* A direct recursive-descent parser over the shared cursor; no token
   type.  [names] maps each [&id]/[*id] name to its node and the span of
   its first occurrence (for the dangling-reference error). *)

type parser_state = {
  c : Scan.t;
  builder : Graph.Builder.t;
  names : (string, int * (int * int)) Hashtbl.t;
  bound : (string, unit) Hashtbl.t; (* names actually defined by &id *)
}

let node_for_name st name span =
  match Hashtbl.find_opt st.names name with
  | Some (id, _) -> id
  | None ->
    let id = Graph.Builder.add_node st.builder in
    Hashtbl.add st.names name (id, span);
    id

(* parse_node returns the node id of the parsed node. *)
let rec parse_node st =
  let c = st.c in
  Scan.skip_ws c;
  let at = c.pos in
  match Scan.peek c with
  | '&' ->
    Scan.advance c;
    let name = Scan.word c in
    if Hashtbl.mem st.bound name then
      Scan.fail ~at c (Printf.sprintf "node &%s bound twice" name);
    Hashtbl.add st.bound name ();
    let id = node_for_name st name (at, c.pos) in
    let body = parse_node st in
    Graph.Builder.add_eps st.builder id body;
    id
  | '*' ->
    Scan.advance c;
    let name = Scan.word c in
    node_for_name st name (at, c.pos)
  | '{' ->
    Scan.advance c;
    let id = Graph.Builder.add_node st.builder in
    Scan.skip_ws c;
    if not (Scan.eat c "}") then begin
      parse_entry st id;
      Scan.skip_ws c;
      while Scan.eat c "," do
        parse_entry st id;
        Scan.skip_ws c
      done;
      Scan.expect c "}" "expected ',' or '}'"
    end;
    id
  | _ -> Scan.fail c "expected '{', '&' or '*'"

and parse_entry st parent =
  Scan.skip_ws st.c;
  let l = Label.read st.c in
  Scan.skip_ws st.c;
  if Scan.eat st.c ":" then Graph.Builder.add_edge st.builder parent l (parse_value st)
  else
    (* bare label: sugar for l: {} *)
    Graph.Builder.add_edge st.builder parent l (Graph.Builder.add_node st.builder)

and parse_value st =
  Scan.skip_ws st.c;
  match Scan.peek st.c with
  | '{' | '&' | '*' -> parse_node st
  | _ ->
    (* bare label value: sugar for {l: {}} *)
    let l = Label.read st.c in
    let v = Graph.Builder.add_node st.builder in
    Graph.Builder.add_edge st.builder v l (Graph.Builder.add_node st.builder);
    v

let comments = [ "#" ]

let read_graph c =
  let st = { c; builder = Graph.Builder.create (); names = Hashtbl.create 8; bound = Hashtbl.create 8 } in
  (* an embedded value (a Lorel insert) takes the data syntax's comments *)
  let outer = c.comments in
  c.comments <- comments;
  let r = Fun.protect ~finally:(fun () -> c.comments <- outer) (fun () -> parse_node st) in
  Hashtbl.iter
    (fun name (_, (at, stop)) ->
      if not (Hashtbl.mem st.bound name) then
        Scan.fail ~at ~stop c (Printf.sprintf "reference *%s has no &%s binding" name name))
    st.names;
  Graph.Builder.set_root st.builder r;
  Graph.gc (Graph.Builder.finish st.builder)

let parse_graph src =
  let c = Scan.make ~comments ~code:"SSD004" src in
  let g = read_graph c in
  Scan.skip_ws c;
  if not (Scan.eof c) then Scan.fail c "trailing input after top-level node";
  g

let parse_tree src = Graph.to_tree (parse_graph src)
