type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* ------------------------------------------------------------------ *)
(* Parser                                                              *)
(* ------------------------------------------------------------------ *)

(* JSON's own escapes on top of the shared table.  [\uXXXX] is kept as
   literal text; full unicode handling is out of scope for the
   exchange-format demonstration. *)
let escapes = [ ('b', "\b"); ('f', "\012"); ('u', "\\u") ]

let expect c ch =
  Scan.skip_space c;
  if Scan.peek c = ch then Scan.advance c
  else Scan.fail c (Printf.sprintf "expected %C" ch)

let literal c word value = if Scan.eat c word then value else Scan.fail c ("expected " ^ word)

(* [item] after '[' / '{', then ("," item)* and the closing [close]. *)
let sequence c close item =
  Scan.skip_space c;
  if Scan.peek c = close then (Scan.advance c; [])
  else begin
    let items = ref [ item () ] in
    Scan.skip_space c;
    while Scan.eat c "," do
      items := item () :: !items;
      Scan.skip_space c
    done;
    expect c close;
    List.rev !items
  end

let rec parse_value c =
  Scan.skip_space c;
  match Scan.peek c with
  | 'n' -> literal c "null" Null
  | 't' -> literal c "true" (Bool true)
  | 'f' -> literal c "false" (Bool false)
  | '"' -> String (Scan.string ~extra:escapes c)
  | '[' ->
    Scan.advance c;
    List (sequence c ']' (fun () -> parse_value c))
  | '{' ->
    Scan.advance c;
    let member () =
      Scan.skip_space c;
      let k = Scan.string ~extra:escapes c in
      expect c ':';
      (k, parse_value c)
    in
    Obj (sequence c '}' member)
  | ch when Scan.is_number_start ch -> (
    match Scan.number c with Scan.Int i -> Int i | Scan.Float f -> Float f)
  | _ -> if Scan.eof c then Scan.fail c "unexpected end of input" else Scan.fail c "unexpected character"

let parse src =
  let c = Scan.make ~code:"SSD004" src in
  let v = parse_value c in
  Scan.skip_space c;
  if not (Scan.eof c) then Scan.fail c "trailing input";
  v

(* ------------------------------------------------------------------ *)
(* Printer                                                             *)
(* ------------------------------------------------------------------ *)

let rec pp fmt = function
  | Null -> Format.pp_print_string fmt "null"
  | Bool b -> Format.pp_print_bool fmt b
  | Int i -> Format.pp_print_int fmt i
  | Float f -> Format.pp_print_string fmt (Label.float_to_string f)
  | String s -> Format.pp_print_string fmt (Label.to_string (Label.Str s))
  | List items ->
    Format.fprintf fmt "@[<hv 1>[";
    List.iteri
      (fun i v ->
        if i > 0 then Format.fprintf fmt ",@ ";
        pp fmt v)
      items;
    Format.fprintf fmt "]@]"
  | Obj members ->
    Format.fprintf fmt "@[<hv 1>{";
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Format.fprintf fmt ",@ ";
        Format.fprintf fmt "%s: %a" (Label.to_string (Label.Str k)) pp v)
      members;
    Format.fprintf fmt "}@]"

let to_string v = Format.asprintf "%a" pp v

(* One-line rendering for line-oriented sinks (JSONL event logs): same
   scalar formatting as [pp], no boxes, no newlines. *)
let to_compact_string v =
  let buf = Buffer.create 128 in
  let rec go = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (string_of_bool b)
    | Int i -> Buffer.add_string buf (string_of_int i)
    | Float f -> Buffer.add_string buf (Label.float_to_string f)
    | String s -> Buffer.add_string buf (Label.to_string (Label.Str s))
    | List items ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_string buf ", ";
          go x)
        items;
      Buffer.add_char buf ']'
    | Obj members ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, x) ->
          if i > 0 then Buffer.add_string buf ", ";
          Buffer.add_string buf (Label.to_string (Label.Str k));
          Buffer.add_string buf ": ";
          go x)
        members;
      Buffer.add_char buf '}'
  in
  go v;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Encoding into the edge-labeled model                                *)
(* ------------------------------------------------------------------ *)

let rec to_tree = function
  | Null -> Tree.leaf (Label.Sym "null")
  | Bool b -> Tree.leaf (Label.Bool b)
  | Int i -> Tree.leaf (Label.Int i)
  | Float f -> Tree.leaf (Label.Float f)
  | String s -> Tree.leaf (Label.Str s)
  | List items ->
    Tree.of_edges (List.mapi (fun i v -> (Label.Int i, to_tree v)) items)
  | Obj members ->
    Tree.of_edges (List.map (fun (k, v) -> (Label.Sym k, to_tree v)) members)

let scalar_of_label = function
  | Label.Int i -> Some (Int i)
  | Label.Float f -> Some (Float f)
  | Label.Str s -> Some (String s)
  | Label.Bool b -> Some (Bool b)
  | Label.Sym "null" -> Some Null
  | Label.Sym _ -> None

let rec of_tree t =
  match Tree.edges t with
  | [] -> Obj []
  | [ (l, sub) ] when Tree.is_empty sub ->
    (match scalar_of_label l with
     | Some v -> v
     | None -> Obj [ (Label.to_string l, Obj []) ])
  | es ->
    let ints =
      List.for_all (fun (l, _) -> match l with Label.Int _ -> true | _ -> false) es
    in
    let contiguous =
      ints
      && List.for_all2
           (fun i (l, _) -> l = Label.Int i)
           (List.init (List.length es) Fun.id)
           es
    in
    if contiguous then List (List.map (fun (_, sub) -> of_tree sub) es)
    else
      let key l = match l with Label.Sym s -> s | l -> Label.to_string l in
      (* Duplicate labels are legal in the model but not in JSON objects;
         keep the first occurrence of each key. *)
      let seen = Hashtbl.create 8 in
      Obj
        (List.filter_map
           (fun (l, sub) ->
             let k = key l in
             if Hashtbl.mem seen k then None
             else begin
               Hashtbl.add seen k ();
               Some (k, of_tree sub)
             end)
           es)
