(* Self-lint: run the static analyzer over every query literal in the
   example programs (the [@lint-self] alias, part of [runtest]).

   Each [{| ... |}] raw literal in the given .ml files is classified by
   keyword — datalog ([:-]), WebSQL ([such that], skipped: no analyzer),
   Lorel ([select ... from]), UnQL ([select]/[sfun]) — and checked
   structurally (no database, so path satisfiability is not in play;
   this is the hygiene + safety surface).  Names bound with
   [~name:"..."] in the same file are treated as view definitions and
   pre-bound.  Any Error-severity finding fails the build. *)

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let contains ?(lower = false) hay needle =
  let hay = if lower then String.lowercase_ascii hay else hay in
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

(* All [{| ... |}] literals of [src], with their start offsets. *)
let raw_literals src =
  let n = String.length src in
  let out = ref [] in
  let i = ref 0 in
  while !i + 1 < n do
    if src.[!i] = '{' && src.[!i + 1] = '|' then begin
      let start = !i + 2 in
      let j = ref start in
      while !j + 1 < n && not (src.[!j] = '|' && src.[!j + 1] = '}') do
        incr j
      done;
      out := (start, String.sub src start (!j - start)) :: !out;
      i := !j + 2
    end
    else incr i
  done;
  List.rev !out

(* Names bound via [~name:"..."] (the view-registry convention). *)
let defined_names src =
  let n = String.length src in
  let key = "~name:\"" in
  let k = String.length key in
  let out = ref [] in
  let i = ref 0 in
  while !i + k < n do
    if String.sub src !i k = key then begin
      let j = ref (!i + k) in
      while !j < n && src.[!j] <> '"' do
        incr j
      done;
      out := String.sub src (!i + k) (!j - !i - k) :: !out;
      i := !j
    end
    else incr i
  done;
  !out

(* The query language of a literal and the text to lint.  A serve
   protocol frame ("QUERY lang=lorel <body>", see Ssd_serve.Proto) is
   linted on its body, in the frame's language; other frames (UPDATE
   carries Lorel update statements, which have no analyzer yet) are
   skipped.  Anything else is classified by keyword. *)
let classify src =
  (* sprintf templates are not complete queries *)
  if contains src "%s" || contains src "%S" || contains src "%d" then None
  else
    match Ssd_serve.Proto.parse_request (String.trim src) with
    | Ok { verb = Query | Subscribe; opts; body } -> (
      match Ssd_lint.Lang.of_string opts.lang with
      | lang -> Some (lang, body)
      | exception Ssd_diag.Fail _ -> None)
    | Ok _ -> None
    | Error _ ->
      if contains src ":-" then Some (Ssd_lint.Datalog, src)
      else if contains ~lower:true src "such that" then None
      else if contains src "select" && contains src "from " then
        Some (Ssd_lint.Lorel, src)
      else if contains src "select" || contains src "sfun" then
        Some (Ssd_lint.Unql, src)
      else None

let line_of src off =
  let line = ref 1 in
  for i = 0 to min off (String.length src - 1) - 1 do
    if src.[i] = '\n' then incr line
  done;
  !line

let () =
  let failures = ref 0 and checked = ref 0 in
  Array.iteri
    (fun i path ->
      if i > 0 then begin
        let src = read_file path in
        let defined = defined_names src in
        List.iter
          (fun (off, lit) ->
            match classify lit with
            | None -> ()
            | Some (lang, text) ->
              incr checked;
              let r = Ssd_lint.check_src ~lang ~defined text in
              if Ssd_lint.errors r > 0 then begin
                incr failures;
                Printf.printf "%s:%d: %s query fails lint:\n%s" path (line_of src off)
                  (Ssd_lint.Lang.name lang)
                  (Ssd_diag.render r.Ssd_lint.diags)
              end)
          (raw_literals src)
      end)
    Sys.argv;
  Printf.printf "lint-self: %d query literal(s) checked, %d with errors\n" !checked
    !failures;
  if !failures > 0 then exit 1
