(* The shared lexical cursor.  See scan.mli. *)

type t = {
  src : string;
  mutable pos : int;
  code : string;
  mutable comments : string list;
}

let make ?(comments = []) ~code src = { src; pos = 0; code; comments }

let fail ?at ?stop c msg =
  let len = String.length c.src in
  let start = match at with Some a -> a | None -> c.pos in
  let stop = match stop with Some s -> s | None -> max c.pos (min len (start + 1)) in
  raise
    (Ssd_diag.Fail
       (Ssd_diag.make Ssd_diag.Error ~code:c.code
          ~span:(Ssd_diag.span_of_offsets c.src start stop)
          msg))

let eof c = c.pos >= String.length c.src
let peek c = if c.pos < String.length c.src then String.unsafe_get c.src c.pos else '\000'

let peek_at c k =
  let i = c.pos + k in
  if i < String.length c.src then String.unsafe_get c.src i else '\000'

let advance c = c.pos <- c.pos + 1

let looking_at c s =
  let n = String.length s in
  if c.pos + n > String.length c.src then false
  else begin
    let i = ref 0 in
    while !i < n && String.unsafe_get c.src (c.pos + !i) = String.unsafe_get s !i do
      incr i
    done;
    !i = n
  end

let eat c s =
  if looking_at c s then begin
    c.pos <- c.pos + String.length s;
    true
  end
  else false

let expect c s msg = if not (eat c s) then fail c msg

let rec skip_space c =
  match peek c with
  | ' ' | '\t' | '\n' | '\r' ->
    advance c;
    skip_space c
  | _ -> ()

let rec at_comment c ch = function
  | [] -> false
  | p :: ps -> (String.unsafe_get p 0 = ch && looking_at c p) || at_comment c ch ps

let rec skip_ws c =
  match peek c with
  | ' ' | '\t' | '\n' | '\r' ->
    advance c;
    skip_ws c
  | ch ->
    if c.comments <> [] && at_comment c ch c.comments then begin
      while (not (eof c)) && peek c <> '\n' do
        advance c
      done;
      skip_ws c
    end

(* ------------------------------------------------------------------ *)
(* Identifiers and keywords                                            *)
(* ------------------------------------------------------------------ *)

let is_ident_start ch = (ch >= 'a' && ch <= 'z') || (ch >= 'A' && ch <= 'Z') || ch = '_'

let is_ident_char ch =
  is_ident_start ch || (ch >= '0' && ch <= '9') || ch = '-' || ch = '\''

let word_end c =
  let n = String.length c.src in
  let i = ref c.pos in
  while !i < n && is_ident_char (String.unsafe_get c.src !i) do
    incr i
  done;
  !i

let word c =
  let start = c.pos in
  c.pos <- word_end c;
  String.sub c.src start (c.pos - start)

let ident c =
  let w = word c in
  if w = "" then fail c "expected an identifier";
  w

let at_word ?(ci = false) c w =
  skip_ws c;
  let n = String.length w in
  is_ident_start (peek c)
  && word_end c - c.pos = n
  &&
  let i = ref 0 in
  while
    !i < n
    &&
    let a = String.unsafe_get c.src (c.pos + !i) and b = String.unsafe_get w !i in
    a = b || (ci && Char.lowercase_ascii a = Char.lowercase_ascii b)
  do
    incr i
  done;
  !i = n

let eat_word ?ci c w =
  if at_word ?ci c w then begin
    c.pos <- c.pos + String.length w;
    true
  end
  else false

(* ------------------------------------------------------------------ *)
(* Literals                                                            *)
(* ------------------------------------------------------------------ *)

type number =
  | Int of int
  | Float of float

let is_digit ch = ch >= '0' && ch <= '9'
let is_number_start ch = ch = '-' || is_digit ch

let number ?(frac = true) c =
  let start = c.pos in
  let digits () =
    if not (is_digit (peek c)) then fail ~at:start c "bad numeric literal";
    while is_digit (peek c) do
      advance c
    done
  in
  if peek c = '-' then advance c;
  digits ();
  let is_float = ref false in
  if frac && peek c = '.' && is_digit (peek_at c 1) then begin
    is_float := true;
    advance c;
    digits ()
  end;
  (match peek c, peek_at c 1 with
   | ('e' | 'E'), d when is_digit d ->
     is_float := true;
     advance c;
     digits ()
   | ('e' | 'E'), ('+' | '-') when is_digit (peek_at c 2) ->
     is_float := true;
     c.pos <- c.pos + 2;
     digits ()
   | _ -> ());
  let s = String.sub c.src start (c.pos - start) in
  match if !is_float then None else int_of_string_opt s with
  | Some i -> Int i
  | None -> Float (float_of_string s)

let string ?(extra = []) c =
  let start = c.pos in
  if peek c <> '"' then fail c "expected a string literal";
  advance c;
  let buf = Buffer.create 16 in
  let rec loop () =
    if eof c then fail ~at:start c "unterminated string literal";
    match peek c with
    | '"' -> advance c
    | '\\' ->
      advance c;
      if eof c then fail ~at:start c "unterminated string literal";
      (match peek c with
       | 'n' -> Buffer.add_char buf '\n'
       | 't' -> Buffer.add_char buf '\t'
       | 'r' -> Buffer.add_char buf '\r'
       | ch -> (
         match List.assoc_opt ch extra with
         | Some text -> Buffer.add_string buf text
         | None -> Buffer.add_char buf ch));
      advance c;
      loop ()
    | ch ->
      Buffer.add_char buf ch;
      advance c;
      loop ()
  in
  loop ();
  Buffer.contents buf
