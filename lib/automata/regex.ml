module Label = Ssd.Label

type t =
  | Void
  | Eps
  | Atom of Lpred.t
  | Seq of t * t
  | Alt of t * t
  | Star of t
  | Plus of t
  | Opt of t

(* Smart constructors normalize up to associativity, commutativity and
   idempotence of alternation (plus associativity of sequencing).  This is
   Brzozowski's similarity: it guarantees only finitely many distinct
   derivatives exist, which the graph evaluators rely on to terminate on
   cyclic data. *)

let rec seq a b =
  match a, b with
  | Void, _ | _, Void -> Void
  | Eps, r | r, Eps -> r
  | Seq (x, y), b -> seq x (seq y b)
  | a, b -> Seq (a, b)

let alt a b =
  let rec leaves r acc =
    match r with
    | Alt (x, y) -> leaves x (leaves y acc)
    | Void -> acc
    | r -> r :: acc
  in
  match List.sort_uniq Stdlib.compare (leaves a (leaves b [])) with
  | [] -> Void
  | first :: rest -> List.fold_left (fun acc r -> Alt (acc, r)) first rest

let star = function
  | Void | Eps -> Eps
  | Star _ as r -> r
  | r -> Star r

let rec nullable = function
  | Void -> false
  | Eps -> true
  | Atom _ -> false
  | Seq (a, b) -> nullable a && nullable b
  | Alt (a, b) -> nullable a || nullable b
  | Star _ -> true
  | Plus a -> nullable a
  | Opt _ -> true

(* Structural language emptiness: does the regex match no word at all?
   Atoms are treated as non-empty (predicate satisfiability is the
   product's job), so this only catches uses of Void. *)
let rec is_void = function
  | Void -> true
  | Eps | Atom _ -> false
  | Seq (a, b) -> is_void a || is_void b
  | Alt (a, b) -> is_void a && is_void b
  | Star _ | Opt _ -> false (* match the empty word *)
  | Plus a -> is_void a

let rec deriv r l =
  match r with
  | Void | Eps -> Void
  | Atom p -> if Lpred.matches p l then Eps else Void
  | Seq (a, b) ->
    let da = seq (deriv a l) b in
    if nullable a then alt da (deriv b l) else da
  | Alt (a, b) -> alt (deriv a l) (deriv b l)
  | Star a -> seq (deriv a l) (star a)
  | Plus a -> seq (deriv a l) (star a)
  | Opt a -> deriv a l

let matches r word = nullable (List.fold_left deriv r word)

(* ------------------------------------------------------------------ *)
(* Printing                                                            *)
(* ------------------------------------------------------------------ *)

let rec pp fmt = function
  (* no dedicated literals in the concrete syntax; print language-equal
     parseable forms: ~_ matches nothing, (~_)* only the empty word *)
  | Void -> Format.pp_print_string fmt "~_"
  | Eps -> Format.pp_print_string fmt "(~_)*"
  | Atom p -> Lpred.pp fmt p
  | Seq (a, b) -> Format.fprintf fmt "%a.%a" pp_tight a pp_tight b
  | Alt (a, b) -> Format.fprintf fmt "%a | %a" pp a pp b
  | Star a -> Format.fprintf fmt "%a*" pp_tight a
  | Plus a -> Format.fprintf fmt "%a+" pp_tight a
  | Opt a -> Format.fprintf fmt "%a?" pp_tight a

and pp_tight fmt r =
  match r with
  | Alt _ | Seq _ -> Format.fprintf fmt "(%a)" pp r
  | _ -> pp fmt r

let to_string r = Format.asprintf "%a" pp r

(* ------------------------------------------------------------------ *)
(* Parser                                                              *)
(* ------------------------------------------------------------------ *)

(* Tokens are lexed on demand from the shared cursor, one lookahead at a
   time, so a regex embedded in another language stops at the first
   token it cannot use and leaves the cursor there.  [depth] counts the
   parentheses lexed so far: a delimiter ('.' between UnQL pattern
   steps, '>' closing an UnQL <regex>) ends the regex only at depth 0. *)

type token =
  | Tbar
  | Tdot
  | Tstar
  | Tplus
  | Tquestion
  | Tlparen
  | Trparen
  | Ttilde
  | Tamp
  | Tunderscore
  | Thash of string
  | Tcmp of string (* "<" "<=" ">" ">=" *)
  | Tfun of string (* startswith / contains *)
  | Tlabel of Label.t
  | Tend (* end of input, or a character no regex token starts with *)

type stop =
  | Stop_dot
  | Stop_gt
  | Stop_none

type parser_state = {
  c : Ssd.Scan.t;
  stop : stop;
  mutable depth : int;
  mutable tok : token;
  mutable lexed : bool; (* [tok] is the unconsumed token at [tok_start] *)
  mutable tok_start : int;
}

(* The token [t] of one character, consumed. *)
let single c t =
  Ssd.Scan.advance c;
  t

(* [<] or [<=] (resp. [>], [>=]), consumed. *)
let cmp c ~one ~two =
  if Ssd.Scan.peek_at c 1 = '=' then begin
    c.Ssd.Scan.pos <- c.pos + 2;
    Tcmp two
  end
  else single c (Tcmp one)

let lex st =
  let c = st.c in
  let module S = Ssd.Scan in
  S.skip_space c;
  st.tok_start <- c.pos;
  match S.peek c with
  | '.' when st.stop = Stop_dot && st.depth = 0 -> Tend
  | '>' when st.stop = Stop_gt && st.depth = 0 -> Tend
  | '|' -> single c Tbar
  | '.' -> single c Tdot
  | '*' -> single c Tstar
  | '+' -> single c Tplus
  | '?' -> single c Tquestion
  | '(' ->
    st.depth <- st.depth + 1;
    single c Tlparen
  | ')' ->
    st.depth <- st.depth - 1;
    single c Trparen
  | '~' -> single c Ttilde
  | '&' -> single c Tamp
  | '<' -> cmp c ~one:"<" ~two:"<="
  | '>' -> cmp c ~one:">" ~two:">="
  | '#' ->
    S.advance c;
    Thash (S.word c)
  | '_' when not (S.is_ident_char (S.peek_at c 1)) -> single c Tunderscore
  | '"' -> Tlabel (Label.Str (S.string c))
  | ch when S.is_number_start ch -> (
    (* '.' is concatenation, so a float literal needs an exponent and no
       fraction *)
    match S.number ~frac:false c with
    | S.Int i -> Tlabel (Label.Int i)
    | S.Float f -> Tlabel (Label.Float f))
  | ch when S.is_ident_start ch -> (
    match S.word c with
    | "true" -> Tlabel (Label.Bool true)
    | "false" -> Tlabel (Label.Bool false)
    | ("startswith" | "contains") as f -> Tfun f
    | id -> Tlabel (Label.Sym id))
  | _ -> Tend

let peek st =
  if not st.lexed then begin
    st.tok <- lex st;
    st.lexed <- true
  end;
  st.tok

let shift st =
  ignore (peek st);
  st.lexed <- false

let fail st msg = Ssd.Scan.fail ~at:st.tok_start st.c msg

let expect st tok msg = if peek st = tok then shift st else fail st msg

let parse_pred_arg st fname =
  expect st Tlparen (fname ^ " expects '('");
  let s =
    match peek st with
    | Tlabel (Label.Str s) ->
      shift st;
      s
    | _ -> fail st (fname ^ " expects a string argument")
  in
  expect st Trparen (fname ^ " expects ')'");
  s

let rec parse_pred_factor st =
  match peek st with
  | Ttilde -> (
    shift st;
    (* ~(p & q) and ~(p) are predicate-level parentheses *)
    match peek st with
    | Tlparen ->
      shift st;
      let p = parse_pred_inner st in
      expect st Trparen "expected ')' closing ~(...)";
      Lpred.Not p
    | _ -> Lpred.Not (parse_pred_factor st))
  | Tunderscore ->
    shift st;
    Lpred.Any
  | Thash t ->
    shift st;
    Lpred.Of_type t
  | Tfun "startswith" ->
    shift st;
    Lpred.Starts_with (parse_pred_arg st "startswith")
  | Tfun "contains" ->
    shift st;
    Lpred.Contains (parse_pred_arg st "contains")
  | Tcmp op ->
    shift st;
    let l =
      match peek st with
      | Tlabel l ->
        shift st;
        l
      | _ -> fail st ("comparison " ^ op ^ " expects a label")
    in
    (match op with
     | "<" -> Lpred.Lt l
     | "<=" -> Lpred.Le l
     | ">" -> Lpred.Gt l
     | _ -> Lpred.Ge l)
  | Tlabel l ->
    shift st;
    Lpred.Exact l
  | _ -> fail st "expected a label predicate"

and parse_pred_inner st =
  let rec conj acc =
    if peek st = Tamp then begin
      shift st;
      conj (Lpred.And (acc, parse_pred_factor st))
    end
    else acc
  in
  conj (parse_pred_factor st)

let rec parse_alt st =
  let left = parse_seq st in
  if peek st = Tbar then begin
    shift st;
    Alt (left, parse_alt st)
  end
  else left

and parse_seq st =
  let left = parse_postfix st in
  if peek st = Tdot then begin
    shift st;
    Seq (left, parse_seq st)
  end
  else left

and parse_postfix st =
  let r = ref (parse_prim st) in
  let continue = ref true in
  while !continue do
    match peek st with
    | Tstar ->
      shift st;
      r := Star !r
    | Tplus ->
      shift st;
      r := Plus !r
    | Tquestion ->
      shift st;
      r := Opt !r
    | _ -> continue := false
  done;
  !r

and parse_prim st =
  match peek st with
  | Tlparen ->
    shift st;
    let r = parse_alt st in
    expect st Trparen "expected ')'";
    r
  | _ -> Atom (parse_pred_inner st)

let read ?(stop = Stop_none) c =
  let st = { c; stop; depth = 0; tok = Tend; lexed = false; tok_start = c.pos } in
  let r = parse_alt st in
  (* hand the unconsumed lookahead back to the caller *)
  if st.lexed then c.pos <- st.tok_start;
  r

let parse src =
  let c = Ssd.Scan.make ~code:"SSD006" src in
  let r = read c in
  Ssd.Scan.skip_space c;
  if not (Ssd.Scan.eof c) then Ssd.Scan.fail c "trailing input after regular expression";
  r
