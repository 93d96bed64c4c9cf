(* Front-end fuzzer: every parser either accepts its input or fails with
   a typed diagnostic.

   Each seed draws, with a QCheck generator seeded by the seed, one of
   the nine front ends (UnQL, Lorel, datalog and WebSQL queries; ssd,
   JSON and OEM data text; regular path expressions; graph schemas) and
   an input for it: random bytes over the front end's alphabet, or a
   valid text with a few seeded mutations.  The parse must succeed or
   raise [Ssd_diag.Fail] carrying the front end's own syntax code and a
   span that starts inside the input (its end included).  Any other
   exception fails the seed.

   With --ssdql PATH, every 250th seed of a query language or
   data format is also run through [ssdql query] (the text as the query,
   or as the data file), which must exit 0 or 1 — never 125, the
   uncaught-exception code.

   Replay one failure:  front_end_fuzz --seed S *)

module Q = QCheck2.Gen

let fail fmt = Printf.ksprintf failwith fmt

type front_end = {
  name : string;
  code : string;
  parse : string -> unit;
  corpus : string list;
  alphabet : string;
  cli : [ `Query of string | `Data of string | `None ];
}

let front_ends =
  [
    {
      name = "unql";
      code = "SSD001";
      parse = (fun s -> ignore (Unql.Parser.parse s));
      corpus =
        [
          {|select {t: \T} where {entry.movie.title: \T} <- DB|};
          {|select {u: \t} where {<host.page.(link)*.url>: \t} <- DB # comment|};
          {|select {answer: t} where {<entry.movie>: \m} <- DB, {title."Casablanca"} <- m,
              {<(~movie)*."Allen">: \t} <- m|};
          {|let sfun f({\L: T}) = {L: f(T)} in f(DB)|};
          {|select {r: X} where {a.\X: _} <- DB, X >= 1.5e3 and not isint(X) or startswith(X, "a\"b")|};
          {|if isempty(DB) then {a: 1} else {b: "x\ty"} union {c: -2}|};
          {|select {x: \P} where {<a.(b|c)*> as \P: _} <- DB, equal({a}, {a})|};
        ];
      alphabet = {|{}<>()[].,:|*+?~&#_\"=!-0123456789 abcdeilnorstuwxDBLTX|};
      cli = `Query "unql";
    };
    {
      name = "lorel";
      code = "SSD002";
      parse = (fun s -> ignore (Lorel.Parser.parse s));
      corpus =
        [
          {|select X.title, X.year as when from DB.entry.movie X, X.cast.actor A
            where X.year >= 1942 and A = "Bogart"|};
          {|select X from DB.a.% X where exists X.b or not X.c like "x\ny"|};
          {|select X.# from DB.entry X where X.rating <> 8.5 and X.id != -3|};
        ];
      alphabet = {|.,%#"=<>!- 0123456789 abcefhlmnorstwxADBXY|};
      cli = `Query "lorel";
    };
    {
      name = "datalog";
      code = "SSD003";
      parse = (fun s -> ignore (Relstore.Datalog.parse s));
      corpus =
        [
          "reach(?X) :- root(?X).\nreach(?Y) :- reach(?X), edge(?X, ?L, ?Y).";
          "% comment\nhit(?L) :- edge(?R, name, ?Y), edge(?Y, ?L, _), ?L = \"a\\rb\".";
          "p(?X) :- q(?X, 1.5, -2, true), not r(?X), ?X != x. # done";
        ];
      alphabet = {|(),.?_:-%#"=!<> 0123456789 abcdeghilnopqrtxyLRXY|};
      cli = `Query "datalog";
    };
    {
      name = "websql";
      code = "SSD005";
      parse = (fun s -> ignore (Websql.Parser.parse s));
      corpus =
        [
          {|SELECT d.url, d.title
            FROM DOCUMENT d SUCH THAT "http://host0.example/p0" (-> | =>)* d,
                 DOCUMENT e SUCH THAT d -> e
            WHERE e.title CONTAINS "Page" AND NOT d MENTIONS "draft"|};
          {|select d.url from anywhere d where d.title = "x" or (d.url = e.url)|};
        ];
      alphabet = {|-=~>|*+?().,"= 0123456789 ACDEFHILMNORSTUWadeilrtu|};
      cli = `Query "websql";
    };
    {
      name = "ssd";
      code = "SSD004";
      parse = (fun s -> ignore (Ssd.Syntax.parse_graph s));
      corpus =
        [
          {|&r {entry: {movie: {title: "Casablanca", year: 1942, rating: 8.5,
               cast: {actor: "Bogart", actor: "Bacall"}, ref: *r}}} # comment|};
          {|{a: -1e-3, b: true, "str\n": {}, 3: x, d: &n {c}, e: *n}|};
        ];
      alphabet = {|{}&*,:#"\- .0123456789e abcrtxy|};
      cli = `Data ".ssd";
    };
    {
      name = "json";
      code = "SSD004";
      parse = (fun s -> ignore (Ssd.Json.parse s));
      corpus =
        [
          {|{"a": [1, 2.5e3, "x\nA", true, null], "b": {}, "c": -0.5}|};
          {|[[], {"k": false}]|};
        ];
      alphabet = {|{}[],:"\- .0123456789eEabfnlrstu|};
      cli = `Data ".json";
    };
    {
      name = "oem";
      code = "SSD004";
      parse = (fun s -> ignore (Ssd.Oem.parse s));
      corpus =
        [
          {|<entry, set, { &m1 <movie, set, { <title, str, "Casablanca">, <year, int, 1942>,
              <rating, real, 8.5>, <references, set, { &m1 }> }> }>|};
          {|<"x", bool, true>|};
        ];
      alphabet = {|<>{},&" .0123456789 abeilnorstx|};
      cli = `Data ".oem";
    };
    {
      name = "regex";
      code = "SSD006";
      parse = (fun s -> ignore (Ssd_automata.Regex.parse s));
      corpus =
        [
          {|movie . (~movie)* . "Allen"|};
          {|(a | b)* . #string . startswith("x") . (<=3 & >1)+ . _?|};
          {|~(a & contains("q")) . -2e3 . true|};
        ];
      alphabet = {|.|*+?()~&_#<>=" 0123456789 abcemnorstvw|};
      cli = `None;
    };
    {
      name = "gschema";
      code = "SSD006";
      parse = (fun s -> ignore (Ssd_schema.Gschema.parse s));
      corpus =
        [
          {|&s {entry: {movie: {title: #string, cast: {_ : *s}}, tvshow: {title: #string}}} ## c|};
          {|{a | b: {>3 & <10}, "x": c}|};
        ];
      alphabet = {|{}&*,:#|_<>&" 0123456789 abcegimnorstv|};
      cli = `None;
    };
  ]

(* ------------------------------------------------------------------ *)
(* Inputs                                                              *)
(* ------------------------------------------------------------------ *)

let random_text fe =
  let open Q in
  let* n = int_range 0 80 in
  let* chars =
    list_repeat n
      (frequency
         [ (9, map (String.get fe.alphabet) (int_bound (String.length fe.alphabet - 1))); (1, char) ])
  in
  pure (String.of_seq (List.to_seq chars))

let mutate fe =
  let open Q in
  let one s =
    let n = String.length s in
    let* i = int_bound n in
    let* c = map (String.get fe.alphabet) (int_bound (String.length fe.alphabet - 1)) in
    let* k = int_range 1 8 in
    let take a b =
      let a = min a n in
      String.sub s a (max 0 (min n b - a))
    in
    oneofl
      [
        (* delete a span *)
        take 0 i ^ take (i + k) n;
        (* insert a character *)
        take 0 i ^ String.make 1 c ^ take i n;
        (* replace a character *)
        take 0 i ^ String.make 1 c ^ take (i + 1) n;
        (* truncate *)
        take 0 i;
        (* duplicate a span *)
        take 0 (i + k) ^ take i n;
      ]
  in
  let* base = oneofl fe.corpus in
  let* rounds = int_range 1 3 in
  let rec go s r = if r = 0 then pure s else bind (one s) (fun s -> go s (r - 1)) in
  go base rounds

let case =
  let open Q in
  let* fe = oneofl front_ends in
  let* text = frequency [ (1, random_text fe); (3, mutate fe) ] in
  pure (fe, text)

(* ------------------------------------------------------------------ *)
(* Oracles                                                             *)
(* ------------------------------------------------------------------ *)

(* Byte offset of a 1-based line/column, or -1 past the input. *)
let offset_of src line col =
  let rec go off l =
    if l = line then off + col - 1
    else
      match String.index_from_opt src off '\n' with
      | Some nl -> go (nl + 1) (l + 1)
      | None -> -1
  in
  go 0 1

let check_parse fe text =
  match fe.parse text with
  | () -> ()
  | exception Ssd_diag.Fail d -> (
    if d.Ssd_diag.code <> fe.code then fail "code %s, expected %s" d.Ssd_diag.code fe.code;
    if Ssd_diag.describe d.Ssd_diag.code = None then fail "unregistered code %s" d.Ssd_diag.code;
    match d.Ssd_diag.span with
    | None -> fail "%s without a span" d.Ssd_diag.code
    | Some s ->
      let off = offset_of text s.Ssd_diag.line s.Ssd_diag.col in
      if off < 0 || off > String.length text then
        fail "span %d:%d outside the %d-byte input" s.Ssd_diag.line s.Ssd_diag.col
          (String.length text))
  | exception e -> fail "untyped exception %s" (Printexc.to_string e)

let check_cli ssdql fe text =
  let run args =
    let cmd = Filename.quote_command ssdql ~stdout:Filename.null ~stderr:Filename.null args in
    match Sys.command cmd with
    | (0 | 1) -> ()
    | code -> fail "ssdql %s exited %d" (String.concat " " (List.map Filename.quote args)) code
  in
  match fe.cli with
  | `None -> ()
  | `Query lang -> run [ "query"; "-d"; "builtin:figure1"; "-l"; lang; text ]
  | `Data suffix ->
    let path = Filename.temp_file "front_end_fuzz" suffix in
    Out_channel.with_open_bin path (fun oc -> output_string oc text);
    Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> run [ "query"; "-d"; path; "DB" ])

let run_one ?ssdql seed =
  let fe, text = Q.generate1 ~rand:(Random.State.make [| seed |]) case in
  (try check_parse fe text
   with Failure m -> fail "%s on %S: %s" fe.name text m);
  match ssdql with
  | Some exe when seed mod 250 = 0 -> (
    try check_cli exe fe text with Failure m -> fail "%s on %S: %s" fe.name text m)
  | _ -> ()

let () =
  let seeds = ref 1000 and one = ref None and ssdql = ref None in
  let rec parse = function
    | [] -> ()
    | "--seeds" :: n :: rest ->
      seeds := int_of_string n;
      parse rest
    | "--seed" :: s :: rest ->
      one := Some (int_of_string s);
      parse rest
    | "--ssdql" :: p :: rest ->
      ssdql := Some p;
      parse rest
    | a :: _ ->
      fail "front_end_fuzz: unknown argument %S (try --seeds N | --seed S | --ssdql PATH)" a
  in
  parse (List.tl (Array.to_list Sys.argv));
  let ssdql = !ssdql in
  (* the mutation bases are valid texts *)
  List.iter
    (fun fe ->
      List.iter
        (fun text ->
          match fe.parse text with
          | () -> ()
          | exception e ->
            fail "front_end_fuzz: %s corpus text %S rejected: %s" fe.name text
              (Printexc.to_string e))
        fe.corpus)
    front_ends;
  let run_checked seed =
    match run_one ?ssdql seed with
    | () -> true
    | exception Failure m ->
      Printf.eprintf "front_end_fuzz: FAILED seed=%d: %s\n  replay with: front_end_fuzz --seed %d\n%!"
        seed m seed;
      false
  in
  match !one with
  | Some s ->
    if run_checked s then print_endline "front_end_fuzz: seed passed" else exit 1
  | None ->
    let failures = ref 0 in
    for s = 0 to !seeds - 1 do
      if not (run_checked s) then incr failures
    done;
    Printf.printf "front_end_fuzz: %d seeds, %d failures (%d front ends)\n%!" !seeds !failures
      (List.length front_ends);
    if !failures > 0 then exit 1
