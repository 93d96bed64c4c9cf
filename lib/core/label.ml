type t =
  | Int of int
  | Float of float
  | Str of string
  | Bool of bool
  | Sym of string

let int i = Int i
let float f = Float f
let str s = Str s
let bool b = Bool b
let sym s = Sym s

let constructor_rank = function
  | Int _ -> 0
  | Float _ -> 1
  | Str _ -> 2
  | Bool _ -> 3
  | Sym _ -> 4

let compare a b =
  match a, b with
  | Int x, Int y -> Stdlib.compare x y
  | Float x, Float y -> Stdlib.compare x y
  | Str x, Str y -> String.compare x y
  | Bool x, Bool y -> Stdlib.compare x y
  | Sym x, Sym y -> String.compare x y
  | _ -> Stdlib.compare (constructor_rank a) (constructor_rank b)

let equal a b = compare a b = 0

let hash = function
  | Int i -> Hashtbl.hash (0, i)
  | Float f -> Hashtbl.hash (1, f)
  | Str s -> Hashtbl.hash (2, s)
  | Bool b -> Hashtbl.hash (3, b)
  | Sym s -> Hashtbl.hash (4, s)

let is_int = function Int _ -> true | Float _ | Str _ | Bool _ | Sym _ -> false
let is_float = function Float _ -> true | Int _ | Str _ | Bool _ | Sym _ -> false
let is_str = function Str _ -> true | Int _ | Float _ | Bool _ | Sym _ -> false
let is_bool = function Bool _ -> true | Int _ | Float _ | Str _ | Sym _ -> false
let is_sym = function Sym _ -> true | Int _ | Float _ | Str _ | Bool _ -> false

let type_name = function
  | Int _ -> "int"
  | Float _ -> "float"
  | Str _ -> "string"
  | Bool _ -> "bool"
  | Sym _ -> "symbol"

let escape_string s =
  let buf = Buffer.create (String.length s + 2) in
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"';
  Buffer.contents buf

(* The shortest precision from 12 up that reads back to the same float.
   Twelve digits first keeps every float [string_of_float] already
   printed exactly byte-identical; a trailing ".0" keeps an integral
   value a float literal.  -0.0 is the label 0.0 ([compare] equates
   them), so it prints as 0.0 whichever of the two a set kept. *)
let float_to_string f =
  let f = if f = 0.0 then 0.0 else f in
  let rec go p =
    let s = Printf.sprintf "%.*g" p f in
    if p >= 17 || Float.equal (float_of_string s) f then s else go (p + 1)
  in
  let s = go 12 in
  if String.for_all (fun ch -> ch = '-' || (ch >= '0' && ch <= '9')) s then s ^ ".0" else s

let to_string = function
  | Int i -> string_of_int i
  | Float f -> float_to_string f
  | Str s -> escape_string s
  | Bool b -> string_of_bool b
  | Sym s -> s

let pp fmt l = Format.pp_print_string fmt (to_string l)

let read c =
  match Scan.peek c with
  | '"' -> Str (Scan.string c)
  | ch when Scan.is_number_start ch -> (
    match Scan.number c with Scan.Int i -> Int i | Scan.Float f -> Float f)
  | ch when Scan.is_ident_start ch -> (
    match Scan.word c with "true" -> Bool true | "false" -> Bool false | w -> Sym w)
  | _ -> Scan.fail c "expected a label"

let of_string s =
  match String.trim s with
  | ("nan" | "-nan" | "inf" | "-inf") as s -> Float (float_of_string s)
  | s ->
    let c = Scan.make ~code:"SSD004" s in
    let l = read c in
    if not (Scan.eof c) then Scan.fail c "trailing input after the label";
    l
