module Label = Ssd.Label
open Gen

let check = Alcotest.(check bool)

let constructors () =
  check "int" true (Label.is_int (Label.int 3));
  check "float" true (Label.is_float (Label.float 1.5));
  check "str" true (Label.is_str (Label.str "x"));
  check "bool" true (Label.is_bool (Label.bool true));
  check "sym" true (Label.is_sym (Label.sym "movie"));
  Alcotest.(check string) "type names" "int,float,string,bool,symbol"
    (String.concat ","
       (List.map Label.type_name
          [ Label.int 0; Label.float 0.; Label.str ""; Label.bool false; Label.sym "s" ]))

let string_and_symbol_distinct () =
  check "Str <> Sym" false (Label.equal (Label.str "movie") (Label.sym "movie"));
  check "parse keeps them distinct" true
    (Label.equal (Label.of_string "\"movie\"") (Label.str "movie")
    && Label.equal (Label.of_string "movie") (Label.sym "movie"))

let parsing () =
  let cases =
    [
      ("42", Label.int 42);
      ("-7", Label.int (-7));
      ("1.5", Label.float 1.5);
      ("true", Label.bool true);
      ("false", Label.bool false);
      ("movie", Label.sym "movie");
      ("\"with \\\"quotes\\\"\"", Label.str "with \"quotes\"");
      ("\"line\\nbreak\"", Label.str "line\nbreak");
    ]
  in
  List.iter
    (fun (s, expected) ->
      check (Printf.sprintf "parse %s" s) true (Label.equal (Label.of_string s) expected))
    cases

let parse_failures () =
  List.iter
    (fun (s, expected) ->
      Alcotest.(check string) (Printf.sprintf "reject %S" s) expected
        (Gen.outcome (fun () -> Label.of_string s)))
    [
      ("", "SSD004@1:1");
      ("\"unterminated", "SSD004@1:1");
      ("9abc", "SSD004@1:2");
      ("has space", "SSD004@1:4");
    ]

(* Exact text: printing a label and reading it back gives the label,
   for floats at the edges of the printer (non-finite, negative zero,
   more than 12 significant digits, denormals) and for strings holding
   every byte, the escaped ones included. *)
let exact_text () =
  let floats =
    [ nan; infinity; neg_infinity; -0.0; 0.0; 0.1; 1. /. 3.; 0.1234567890123;
      0.12345678901234; 1e16; 1e-7; 5e-324; max_float; min_float; -123456789.123456 ]
  in
  List.iter
    (fun f ->
      let l = Label.float f in
      let back = Label.of_string (Label.to_string l) in
      check (Printf.sprintf "float %h" f) true
        (Label.equal back l
        && (f = 0.0 || Float.is_nan f
           || Int64.equal (Int64.bits_of_float f)
                (match back with Label.Float g -> Int64.bits_of_float g | _ -> 0L))))
    floats;
  let every_byte = String.init 256 Char.chr in
  List.iter
    (fun s ->
      check (Printf.sprintf "string %S" s) true
        (Label.equal (Label.of_string (Label.to_string (Label.str s))) (Label.str s)))
    [ every_byte; "\n"; "\t"; "\r"; "\""; "\\"; "a\rb" ];
  (* twelve digits print as before: the movies budgets, 0.1, a 12-digit
     value; longer ones keep their digits *)
  List.iter
    (fun (f, text) -> Alcotest.(check string) text text (Label.to_string (Label.float f)))
    [ (1e5, "100000.0"); (1.2e6, "1200000.0"); (0.1, "0.1"); (-2.25, "-2.25");
      (0.123456789012, "0.123456789012"); (0.1234567890123, "0.1234567890123");
      (1. /. 3., "0.3333333333333333"); (1e16, "1e+16"); (-0.0, "0.0"); (nan, "nan");
      (neg_infinity, "-inf") ]

let properties =
  [
    qtest "to_string/of_string round-trip" label (fun l ->
        Label.equal l (Label.of_string (Label.to_string l)));
    qtest "compare reflexive" label (fun l -> Label.compare l l = 0);
    qtest "compare antisymmetric" (Q.pair label label) (fun (a, b) ->
        Stdlib.compare (Label.compare a b > 0) (Label.compare b a < 0) = 0);
    qtest "compare transitive"
      (Q.triple label label label)
      (fun (a, b, c) ->
        (not (Label.compare a b <= 0 && Label.compare b c <= 0)) || Label.compare a c <= 0);
    qtest "equal implies same hash" (Q.pair label label) (fun (a, b) ->
        (not (Label.equal a b)) || Label.hash a = Label.hash b);
    qtest "exactly one type test holds" label (fun l ->
        let tests = [ Label.is_int l; Label.is_float l; Label.is_str l; Label.is_bool l; Label.is_sym l ] in
        List.length (List.filter Fun.id tests) = 1);
  ]

let tests =
  [
    Alcotest.test_case "constructors and type tests" `Quick constructors;
    Alcotest.test_case "string vs symbol" `Quick string_and_symbol_distinct;
    Alcotest.test_case "literal parsing" `Quick parsing;
    Alcotest.test_case "parse failures" `Quick parse_failures;
    Alcotest.test_case "exact text round trip" `Quick exact_text;
  ]
  @ properties
