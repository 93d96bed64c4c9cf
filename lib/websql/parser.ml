module Label = Ssd.Label
module Scan = Ssd.Scan
open Ast

(* The parser state is the cursor itself. *)

let lex_ident st =
  Scan.skip_space st;
  Scan.ident st

(* Keywords are case-insensitive. *)
let at_keyword st w = Scan.at_word ~ci:true st w
let eat_keyword st w = Scan.eat_word ~ci:true st w

let lex_string st =
  Scan.skip_space st;
  Scan.string st

(* ------------------------------------------------------------------ *)
(* Path regular expressions over -> => ~>                              *)
(* ------------------------------------------------------------------ *)

let rec parse_alt st =
  let left = parse_seq st in
  Scan.skip_space st;
  if Scan.peek st = '|' then begin
    Scan.advance st;
    Alt (left, parse_alt st)
  end
  else left

and parse_seq st =
  let left = parse_postfix st in
  Scan.skip_space st;
  (* sequence by juxtaposition; stop before the bound variable *)
  if Scan.looking_at st "->" || Scan.looking_at st "=>" || Scan.looking_at st "~>" || Scan.peek st = '(' then
    Seq (left, parse_seq st)
  else left

and parse_postfix st =
  let r = ref (parse_atom st) in
  let continue = ref true in
  while !continue do
    Scan.skip_space st;
    match Scan.peek st with
    | '*' ->
      Scan.advance st;
      r := Star !r
    | '+' ->
      Scan.advance st;
      r := Plus !r
    | '?' ->
      Scan.advance st;
      r := Opt !r
    | _ -> continue := false
  done;
  !r

and parse_atom st =
  Scan.skip_space st;
  if Scan.eat st "->" then Atom Local
  else if Scan.eat st "=>" then Atom Global
  else if Scan.eat st "~>" then Atom Any
  else if Scan.eat st "(" then begin
    let r = parse_alt st in
    Scan.skip_space st;
    Scan.expect st ")" "expected ')'";
    r
  end
  else Scan.fail st "expected a link atom (->, =>, ~>) or '('"

(* ------------------------------------------------------------------ *)
(* Query structure                                                     *)
(* ------------------------------------------------------------------ *)

let parse_docspec st =
  if eat_keyword st "DOCUMENT" then begin
    let dvar = lex_ident st in
    if not (eat_keyword st "SUCH") then Scan.fail st "expected SUCH THAT";
    if not (eat_keyword st "THAT") then Scan.fail st "expected THAT";
    Scan.skip_space st;
    let start =
      match Scan.peek st with
      | '"' -> From_url (lex_string st)
      | ch when Scan.is_ident_start ch -> From_var (lex_ident st)
      | _ -> Scan.fail st "expected a start URL or document variable"
    in
    let path =
      Scan.skip_space st;
      if Scan.looking_at st "->" || Scan.looking_at st "=>" || Scan.looking_at st "~>" || Scan.peek st = '('
      then parse_alt st
      else Eps
    in
    (* the trailing bound variable restates dvar *)
    Scan.skip_space st;
    let at = st.Scan.pos in
    let trailing = lex_ident st in
    if trailing <> dvar then
      Scan.fail ~at st (Printf.sprintf "path must end in the bound variable %s, got %s" dvar trailing);
    { dvar; start; path }
  end
  else if eat_keyword st "ANYWHERE" then
    let dvar = lex_ident st in
    { dvar; start = From_anywhere; path = Eps }
  else Scan.fail st "expected DOCUMENT or ANYWHERE"

let parse_operand st =
  Scan.skip_space st;
  match Scan.peek st with
  | '"' -> Lit (lex_string st)
  | ch when Scan.is_ident_start ch ->
    let d = lex_ident st in
    Scan.skip_space st;
    Scan.expect st "." "expected '.' after document variable";
    let a = lex_ident st in
    Dattr (d, a)
  | _ -> Scan.fail st "expected d.attr or a string literal"

let rec parse_cond st = parse_or st

and parse_or st =
  let left = parse_and st in
  if eat_keyword st "OR" then Or (left, parse_or st) else left

and parse_and st =
  let left = parse_not st in
  if eat_keyword st "AND" then And (left, parse_and st) else left

and parse_not st =
  if eat_keyword st "NOT" then Not (parse_not st) else parse_base st

and parse_base st =
  Scan.skip_space st;
  if Scan.peek st = '(' then begin
    Scan.advance st;
    let c = parse_cond st in
    Scan.skip_space st;
    Scan.expect st ")" "expected ')'";
    c
  end
  else begin
    (* MENTIONS has a document variable on the left, not an operand *)
    let save = st.Scan.pos in
    match Scan.peek st with
    | ch when Scan.is_ident_start ch -> (
      let d = lex_ident st in
      if eat_keyword st "MENTIONS" then Mentions (d, lex_string st)
      else begin
        st.Scan.pos <- save;
        finish_comparison st
      end)
    | _ -> finish_comparison st
  end

and finish_comparison st =
  let lhs = parse_operand st in
  if eat_keyword st "CONTAINS" then Contains (lhs, lex_string st)
  else begin
    Scan.skip_space st;
    Scan.expect st "=" "expected '=' or CONTAINS";
    let rhs = parse_operand st in
    Equals (lhs, rhs)
  end

let parse src =
  let st = Scan.make ~code:"SSD005" src in
  if not (eat_keyword st "SELECT") then Scan.fail st "query must start with SELECT";
  let item () =
    let d = lex_ident st in
    Scan.skip_space st;
    Scan.expect st "." "expected '.' in the select list";
    let a = lex_ident st in
    (d, a)
  in
  let select = ref [ item () ] in
  Scan.skip_space st;
  while Scan.peek st = ',' do
    Scan.advance st;
    if at_keyword st "DOCUMENT" || at_keyword st "ANYWHERE" then Scan.fail st "expected a select item";
    select := item () :: !select;
    Scan.skip_space st
  done;
  if not (eat_keyword st "FROM") then Scan.fail st "expected FROM";
  let from = ref [ parse_docspec st ] in
  Scan.skip_space st;
  while Scan.peek st = ',' do
    Scan.advance st;
    from := parse_docspec st :: !from;
    Scan.skip_space st
  done;
  let where = if eat_keyword st "WHERE" then Some (parse_cond st) else None in
  Scan.skip_space st;
  if not (Scan.eof st) then Scan.fail st "trailing input after query";
  { select = List.rev !select; from = List.rev !from; where }
