module Label = Ssd.Label
module Regex = Ssd_automata.Regex
module Lpred = Ssd_automata.Lpred
module Scan = Ssd.Scan
open Ast

(* Byte-offset marks recorded during the parse, in parse order: one per
   pattern step and one per pattern binder ([\x] at pattern position).
   The lint pass walks the AST in the same order and aligns marks with
   occurrences, giving diagnostics a source span without annotating the
   AST itself. *)
type mark_kind =
  | Mstep
  | Mbind

type marks = {
  msrc : string;
  items : (mark_kind * int * int) array;
}

type st = {
  c : Scan.t;
  mutable marks : (mark_kind * int * int) list; (* reversed *)
}

let record st kind start = st.marks <- (kind, start, st.c.pos) :: st.marks
let fail st msg = Scan.fail st.c msg
let peek st = Scan.peek st.c
let advance st = Scan.advance st.c
let eat st s msg = Scan.expect st.c s msg
let lex_ident st = Scan.ident st.c
let eat_word st w = Scan.eat_word st.c w

(* A label literal in expression context (numbers, strings). *)
let try_label_literal st =
  Scan.skip_ws st.c;
  match peek st with
  | '"' | '-' | '0' .. '9' -> Some (Label.read st.c)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Pattern steps                                                       *)
(* ------------------------------------------------------------------ *)

(* A step ends at '.', ',', ':' or '}' outside parentheses. *)
let is_step_end = function '.' | ',' | ':' | '}' | '\000' -> true | _ -> false

(* A bare identifier step is a label name (resolved to a label variable
   when bound); the cursor is left at the step's delimiter. *)
let bare_ident st =
  let c = st.c in
  let start = c.pos in
  if not (Scan.is_ident_start (peek st)) then None
  else begin
    let name = Scan.word c in
    Scan.skip_space c;
    if is_step_end (peek st) && not (List.mem name [ "_"; "true"; "false" ]) then Some name
    else begin
      c.pos <- start;
      None
    end
  end

let parse_step_at st =
  let c = st.c in
  match peek st with
  | '\\' ->
    advance st;
    Sbind (lex_ident st)
  | '<' -> (
    advance st;
    let r = Regex.read ~stop:Regex.Stop_gt c in
    eat st ">" "expected '>' closing <regex>";
    (* optional path binder: <re> as \p *)
    let saved = c.pos in
    Scan.skip_ws st.c;
    if Scan.eat c "as" && (Scan.skip_ws st.c; Scan.eat c "\\") then Sregex (r, Some (lex_ident st))
    else begin
      c.pos <- saved;
      Sregex (r, None)
    end)
  | _ -> (
    match bare_ident st with
    | Some name -> Slit (Lname name)
    | None -> (
      let at = c.pos in
      let rec pred_of_regex = function
        | Regex.Atom p -> p
        | Regex.Alt (a, b) -> Lpred.Or (pred_of_regex a, pred_of_regex b)
        | r -> Scan.fail ~at c ("path operators must be wrapped in <...>, got: " ^ Regex.to_string r)
      in
      match Regex.read ~stop:Regex.Stop_dot c with
      | Regex.Atom (Lpred.Exact l) -> Slit (Llit l)
      | r -> Spred (pred_of_regex r)))

let parse_step st =
  Scan.skip_ws st.c;
  let step_start = st.c.pos in
  let step = parse_step_at st in
  record st Mstep step_start;
  step

let parse_steps st =
  let rec go acc =
    let acc = parse_step st :: acc in
    Scan.skip_ws st.c;
    if Scan.eat st.c "." then go acc else List.rev acc
  in
  go []

(* ------------------------------------------------------------------ *)
(* Patterns                                                            *)
(* ------------------------------------------------------------------ *)

let rec parse_pattern_at st =
  Scan.skip_ws st.c;
  match peek st with
  | '\\' ->
    let start = st.c.pos in
    advance st;
    let x = lex_ident st in
    record st Mbind start;
    Pbind x
  | '_' when (not (Scan.is_ident_char (Scan.peek_at st.c 1))) ->
    advance st;
    Pany
  | '{' ->
    advance st;
    Scan.skip_ws st.c;
    if peek st = '}' then begin
      advance st;
      Pedges []
    end
    else begin
      let entry () =
        let steps = parse_steps st in
        Scan.skip_ws st.c;
        if peek st = ':' then begin
          advance st;
          (steps, parse_pattern_at st)
        end
        else (steps, Pany)
      in
      let entries = ref [ entry () ] in
      Scan.skip_ws st.c;
      while peek st = ',' do
        advance st;
        entries := entry () :: !entries;
        Scan.skip_ws st.c
      done;
      eat st "}" "expected '}' after pattern entries";
      Pedges (List.rev !entries)
    end
  | _ -> fail st "expected a pattern ('\\x', '_' or '{...}')"

(* ------------------------------------------------------------------ *)
(* Conditions                                                          *)
(* ------------------------------------------------------------------ *)

let parse_atom st =
  Scan.skip_ws st.c;
  match try_label_literal st with
  | Some l -> Alit l
  | None -> (
    match peek st with
    | '\\' ->
      (* Tolerate the binding-occurrence spelling \l in conditions. *)
      advance st;
      Aname (lex_ident st)
    | ch when Scan.is_ident_start ch -> (
      let id = lex_ident st in
      match id with
      | "true" -> Alit (Label.Bool true)
      | "false" -> Alit (Label.Bool false)
      | _ -> Aname id)
    | _ -> fail st "expected a label atom")

let parse_cmpop st =
  Scan.skip_ws st.c;
  let c = st.c in
  if Scan.eat c "!=" then Neq
  else if Scan.eat c "<=" then Le
  else if Scan.eat c ">=" then Ge
  else if Scan.eat c "=" then Eq
  else if Scan.eat c "<" then Lt
  else if Scan.eat c ">" then Gt
  else fail st "expected a comparison operator"

let type_tests =
  [ ("isint", "int"); ("isfloat", "float"); ("isstring", "string"); ("isbool", "bool");
    ("issymbol", "symbol") ]

type parsed_case = {
  case_name : string;
  case : Ast.sfun_case;
}

let rec parse_cond st = parse_or st

and parse_or st =
  let left = parse_and st in
  if eat_word st "or" then Cor (left, parse_or st) else left

and parse_and st =
  let left = parse_not st in
  if eat_word st "and" then Cand (left, parse_and st) else left

and parse_not st =
  if eat_word st "not" then Cnot (parse_not st)
  else parse_base_cond st

and parse_base_cond st =
  Scan.skip_ws st.c;
  if eat_word st "isempty" then begin
    Scan.skip_ws st.c;
    eat st "(" "isempty expects '('";
    let e = parse_expr st in
    Scan.skip_ws st.c;
    eat st ")" "isempty expects ')'";
    Cempty e
  end
  else if eat_word st "equal" then begin
    Scan.skip_ws st.c;
    eat st "(" "equal expects '('";
    let e1 = parse_expr st in
    Scan.skip_ws st.c;
    eat st "," "equal expects ','";
    let e2 = parse_expr st in
    Scan.skip_ws st.c;
    eat st ")" "equal expects ')'";
    Cequal (e1, e2)
  end
  else if eat_word st "startswith" then string_test st "startswith" (fun a s -> Cstarts (a, s))
  else if eat_word st "contains" then string_test st "contains" (fun a s -> Ccontains (a, s))
  else
    match List.find_opt (fun (w, _) -> eat_word st w) type_tests with
    | Some (w, t) ->
      Scan.skip_ws st.c;
      eat st "(" (w ^ " expects '('");
      let a = parse_atom st in
      Scan.skip_ws st.c;
      eat st ")" (w ^ " expects ')'");
      Cistype (t, a)
    | None ->
    if peek st = '(' then begin
      advance st;
      let c = parse_cond st in
      Scan.skip_ws st.c;
      eat st ")" "expected ')'";
      c
    end
    else
      let a1 = parse_atom st in
      let op = parse_cmpop st in
      let a2 = parse_atom st in
      Ccmp (op, a1, a2)

(* ------------------------------------------------------------------ *)
(* Expressions                                                         *)
(* ------------------------------------------------------------------ *)

and string_test st f make =
  Scan.skip_ws st.c;
  eat st "(" (f ^ " expects '('");
  let a = parse_atom st in
  Scan.skip_ws st.c;
  eat st "," (f ^ " expects ','");
  let s =
    match try_label_literal st with
    | Some (Label.Str s) -> s
    | _ -> fail st (f ^ " expects a string literal")
  in
  Scan.skip_ws st.c;
  eat st ")" (f ^ " expects ')'");
  make a s

and parse_expr st =
  if eat_word st "select" then begin
    let head = parse_expr st in
    if not (eat_word st "where") then fail st "select expects 'where'";
    let clauses = ref [ parse_clause st ] in
    Scan.skip_ws st.c;
    while peek st = ',' do
      advance st;
      clauses := parse_clause st :: !clauses;
      Scan.skip_ws st.c
    done;
    Select (head, List.rev !clauses)
  end
  else if eat_word st "let" then begin
    if eat_word st "sfun" then begin
      let first = parse_case st in
      let cases = ref [ first ] in
      Scan.skip_ws st.c;
      while peek st = '|' do
        advance st;
        Scan.skip_ws st.c;
        let at = st.c.pos in
        let c = parse_case st in
        if c.case_name <> first.case_name then
          Scan.fail ~at ~stop:(at + String.length c.case_name) st.c
            (Printf.sprintf "sfun cases must share one name (%s vs %s)" first.case_name
               c.case_name);
        cases := c :: !cases;
        Scan.skip_ws st.c
      done;
      if not (eat_word st "in") then fail st "let sfun expects 'in'";
      let body = parse_expr st in
      Letsfun
        ( { fname = first.case_name; cases = List.rev_map (fun c -> c.case) !cases },
          body )
    end
    else begin
      let x = lex_ident st in
      Scan.skip_ws st.c;
      eat st "=" "let expects '='";
      let a = parse_expr st in
      if not (eat_word st "in") then fail st "let expects 'in'";
      let b = parse_expr st in
      Let (x, a, b)
    end
  end
  else if eat_word st "if" then begin
    let c = parse_cond st in
    if not (eat_word st "then") then fail st "if expects 'then'";
    let a = parse_expr st in
    if not (eat_word st "else") then fail st "if expects 'else'";
    let b = parse_expr st in
    If (c, a, b)
  end
  else
    let left = parse_prim st in
    if eat_word st "union" then Union (left, parse_expr st) else left

and parse_clause st =
  Scan.skip_ws st.c;
  match peek st with
  | '\\' | '{' | '_' -> (
    (* '\l <- e' is a generator but '\l = "x"' is a condition; try the
       generator parse and fall back (dropping any marks the attempt
       recorded). *)
    let saved = st.c.pos in
    let saved_marks = st.marks in
    match
      let p = parse_pattern_at st in
      Scan.skip_ws st.c;
      if Scan.looking_at st.c "<-" then Some p else None
    with
    | Some p ->
      eat st "<-" "pattern clause expects '<-'";
      let e = parse_expr st in
      Gen (p, e)
    | None ->
      st.c.pos <- saved;
      st.marks <- saved_marks;
      Where (parse_cond st)
    | exception (Ssd_diag.Fail d as e) -> (
      st.c.pos <- saved;
      st.marks <- saved_marks;
      (* both parses failed: the one that got further explains it *)
      let reach (d : Ssd_diag.t) = Option.map (fun s -> (s.Ssd_diag.line, s.col)) d.span in
      match parse_cond st with
      | cond -> Where cond
      | exception Ssd_diag.Fail d' when reach d > reach d' -> raise e))
  | _ -> Where (parse_cond st)

and parse_prim st =
  Scan.skip_ws st.c;
  match try_label_literal st with
  | Some l -> Tree [ (Llit l, Empty) ]
  | None -> (
    match peek st with
    | '{' ->
      advance st;
      Scan.skip_ws st.c;
      if peek st = '}' then begin
        advance st;
        Empty
      end
      else begin
        let entry () =
          Scan.skip_ws st.c;
          let le =
            match try_label_literal st with
            | Some l -> Llit l
            | None -> (
              match peek st with
              | ch when Scan.is_ident_start ch -> (
                let id = lex_ident st in
                match id with
                | "true" -> Llit (Label.Bool true)
                | "false" -> Llit (Label.Bool false)
                | _ -> Lname id)
              | _ -> fail st "expected a label")
          in
          Scan.skip_ws st.c;
          if peek st = ':' then begin
            advance st;
            (le, parse_expr st)
          end
          else (le, Empty)
        in
        let entries = ref [ entry () ] in
        Scan.skip_ws st.c;
        while peek st = ',' do
          advance st;
          entries := entry () :: !entries;
          Scan.skip_ws st.c
        done;
        eat st "}" "expected '}' after constructor entries";
        Tree (List.rev !entries)
      end
    | '(' ->
      advance st;
      let e = parse_expr st in
      Scan.skip_ws st.c;
      eat st ")" "expected ')'";
      e
    | '\\' ->
      (* Tolerate the binding-occurrence spelling for variable uses. *)
      advance st;
      Var (lex_ident st)
    | ch when Scan.is_ident_start ch -> (
      let id = lex_ident st in
      Scan.skip_ws st.c;
      if peek st = '(' then begin
        advance st;
        let arg = parse_expr st in
        Scan.skip_ws st.c;
        eat st ")" ("expected ')' closing call to " ^ id);
        App (id, arg)
      end
      else
        match id with
        | "DB" | "db" -> Db
        | _ -> Var id)
    | _ -> fail st "expected an expression")

and parse_case st =
  Scan.skip_ws st.c;
  let name = lex_ident st in
  Scan.skip_ws st.c;
  eat st "(" "sfun case expects '('";
  Scan.skip_ws st.c;
  eat st "{" "sfun case expects '{'";
  let cstep = parse_step st in
  Scan.skip_ws st.c;
  eat st ":" "sfun case expects ':' before the tree variable";
  Scan.skip_ws st.c;
  let tvar = lex_ident st in
  Scan.skip_ws st.c;
  eat st "}" "sfun case expects '}'";
  Scan.skip_ws st.c;
  eat st ")" "sfun case expects ')'";
  Scan.skip_ws st.c;
  eat st "=" "sfun case expects '='";
  let body = parse_expr st in
  { case_name = name; case = { cstep; ctree = tvar; cbody = body } }

let start src = { c = Scan.make ~comments:[ "#" ] ~code:"SSD001" src; marks = [] }

let finish st what =
  Scan.skip_ws st.c;
  if not (Scan.eof st.c) then fail st ("trailing input after " ^ what)

let parse_with_marks src =
  let st = start src in
  let e = parse_expr st in
  finish st "expression";
  (e, { msrc = src; items = Array.of_list (List.rev st.marks) })

let parse src = fst (parse_with_marks src)

let parse_pattern src =
  let st = start src in
  let p = parse_pattern_at st in
  finish st "pattern";
  p
