module Label = Ssd.Label
module Scan = Ssd.Scan
open Ast

(* Byte-offset marks recorded in parse order: one [Mpath] per path
   expression, one [Mvar] per range-variable ident.  The lint pass walks
   the query in the same order to attach source spans. *)
type mark_kind =
  | Mpath
  | Mvar

type marks = {
  msrc : string;
  items : (mark_kind * int * int) array;
}

type st = {
  c : Scan.t;
  mutable marks : (mark_kind * int * int) list; (* reversed *)
}

let record st kind start =
  (* trim trailing whitespace the lookahead consumed *)
  let src = st.c.src in
  let stop = ref st.c.pos in
  while
    !stop > start
    && match src.[!stop - 1] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
  do
    decr stop
  done;
  st.marks <- (kind, start, !stop) :: st.marks

let fail st msg = Scan.fail st.c msg
let peek st = Scan.peek st.c
let advance st = Scan.advance st.c
let eat st s msg = Scan.expect st.c s msg
let lex_ident st = Scan.ident st.c

(* Keywords are case-insensitive. *)
let eat_keyword st w = Scan.eat_word ~ci:true st.c w

let keywords = [ "select"; "from"; "where"; "and"; "or"; "not"; "exists"; "as"; "like" ]

let parse_component st =
  Scan.skip_space st.c;
  match peek st with
  | '%' ->
    advance st;
    Cany
  | '#' ->
    advance st;
    Cpath
  | '"' -> Clabel (Label.Str (Scan.string st.c))
  | ch when Scan.is_number_start ch -> (
    (* '.' separates components: integers only *)
    let at = st.c.pos in
    match Scan.number ~frac:false st.c with
    | Scan.Int i -> Clabel (Label.Int i)
    | Scan.Float _ -> Scan.fail ~at st.c "bad integer literal")
  | ch when Scan.is_ident_start ch -> Clabel (Label.Sym (lex_ident st))
  | _ -> fail st "expected a path component"

let parse_path_from st start =
  let comps = ref [] in
  Scan.skip_space st.c;
  while Scan.eat st.c "." do
    comps := parse_component st :: !comps;
    Scan.skip_space st.c
  done;
  { start; comps = List.rev !comps }

let parse_path_expr st =
  Scan.skip_space st.c;
  let mark_start = st.c.pos in
  match peek st with
  | ch when Scan.is_ident_start ch ->
    let id = lex_ident st in
    let start = if String.lowercase_ascii id = "db" then None else Some id in
    let path = parse_path_from st start in
    record st Mpath mark_start;
    path
  | _ -> fail st "expected a path expression"

let parse_operand st =
  Scan.skip_space st.c;
  match peek st with
  | '"' | '-' | '0' .. '9' -> Olit (Label.read st.c)
  | ch when Scan.is_ident_start ch ->
    if Scan.at_word st.c "true" || Scan.at_word st.c "false" then Olit (Label.read st.c)
    else Opath (parse_path_expr st)
  | _ -> fail st "expected an operand"

let parse_cmpop st =
  Scan.skip_space st.c;
  let c = st.c in
  if Scan.eat c "!=" || Scan.eat c "<>" then Neq
  else if Scan.eat c "<=" then Le
  else if Scan.eat c ">=" then Ge
  else if Scan.eat c "=" then Eq
  else if Scan.eat c "<" then Lt
  else if Scan.eat c ">" then Gt
  else if eat_keyword st "like" then Like
  else fail st "expected a comparison operator"

let rec parse_cond st = parse_or st

and parse_or st =
  let left = parse_and st in
  if eat_keyword st "or" then Or (left, parse_or st) else left

and parse_and st =
  let left = parse_not st in
  if eat_keyword st "and" then And (left, parse_and st) else left

and parse_not st =
  if eat_keyword st "not" then Not (parse_not st) else parse_base st

and parse_base st =
  Scan.skip_space st.c;
  if eat_keyword st "exists" then Exists (parse_path_expr st)
  else if Scan.eat st.c "(" then begin
    let c = parse_cond st in
    Scan.skip_space st.c;
    eat st ")" "expected ')'";
    c
  end
  else begin
    let lhs = parse_operand st in
    let op = parse_cmpop st in
    let rhs = parse_operand st in
    Cmp (op, lhs, rhs)
  end

let parse_select_item st =
  let item = parse_path_expr st in
  let alias = if eat_keyword st "as" then Some (Scan.skip_space st.c; lex_ident st) else None in
  { item; alias }

let start src = { c = Scan.make ~code:"SSD002" src; marks = [] }

let finish st what =
  Scan.skip_space st.c;
  if not (Scan.eof st.c) then fail st ("trailing input after " ^ what)

let parse_with_marks src =
  let st = start src in
  if not (eat_keyword st "select") then fail st "query must start with 'select'";
  let select = ref [ parse_select_item st ] in
  Scan.skip_space st.c;
  while Scan.eat st.c "," do
    select := parse_select_item st :: !select;
    Scan.skip_space st.c
  done;
  let from = ref [] in
  if eat_keyword st "from" then begin
    let range () =
      let p = parse_path_expr st in
      Scan.skip_space st.c;
      let vstart = st.c.pos in
      let v = lex_ident st in
      record st Mvar vstart;
      if List.mem (String.lowercase_ascii v) keywords then
        Scan.fail ~at:vstart st.c ("range variable clashes with keyword " ^ v);
      (p, v)
    in
    from := [ range () ];
    Scan.skip_space st.c;
    while Scan.eat st.c "," do
      from := range () :: !from;
      Scan.skip_space st.c
    done
  end;
  let where = if eat_keyword st "where" then Some (parse_cond st) else None in
  finish st "query";
  ( { select = List.rev !select; from = List.rev !from; where },
    { msrc = src; items = Array.of_list (List.rev st.marks) } )

let parse src = fst (parse_with_marks src)

let read_path c = parse_path_expr { c; marks = [] }

let parse_path src =
  let st = start src in
  let p = parse_path_expr st in
  finish st "path";
  p
