(* bench_diff — compare two BENCH.json files (written by bench/main.exe)
   and fail on regressions.

   Usage:
     bench_diff OLD.json NEW.json [--threshold PCT] [--min-value V]

   For every experiment entry present in both files with both values at
   least --min-value (noise floor, default 50), the relative change
   (new - old) / old is computed; any entry above --threshold percent
   (default 25) is a regression.  An experiment or entry present in OLD
   but missing from NEW is a failure too: a dropped record would
   otherwise pass unseen.  Exit status: 0 when clean, 1 when any
   regression or missing entry was found, 2 on usage or parse errors —
   so a CI step can gate merges on `bench_diff baseline.json
   current.json`. *)

module J = Ssd.Json

let usage () =
  prerr_endline
    "usage: bench_diff OLD.json NEW.json [--threshold PCT] [--min-value V]";
  exit 2

let fail fmt = Printf.ksprintf (fun m -> prerr_endline ("bench_diff: " ^ m); exit 2) fmt

let read_file path =
  if not (Sys.file_exists path) then fail "no such file %s" path;
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let load path =
  let doc = try J.parse (read_file path) with e ->
    fail "%s: %s" path (Printexc.to_string e)
  in
  let field name =
    match doc with
    | J.Obj kvs -> List.assoc_opt name kvs
    | _ -> None
  in
  (match field "version" with
  | Some (J.Int 1) -> ()
  | Some v -> fail "%s: unsupported version %s" path (J.to_string v)
  | None -> fail "%s: missing \"version\"" path);
  match field "experiments" with
  | Some (J.Obj exps) ->
    List.map
      (fun (name, entries) ->
        match entries with
        | J.Obj kvs ->
          ( name,
            List.filter_map
              (fun (k, v) ->
                match v with
                | J.Float f -> Some (k, f)
                | J.Int i -> Some (k, float_of_int i)
                | _ -> None)
              kvs )
        | _ -> fail "%s: experiment %s is not an object" path name)
      exps
  | _ -> fail "%s: missing \"experiments\"" path

let () =
  let threshold = ref 25.0 in
  let min_value = ref 50.0 in
  let files = ref [] in
  let rec parse_args = function
    | "--threshold" :: v :: rest -> (
      match float_of_string_opt v with
      | Some f -> threshold := f; parse_args rest
      | None -> usage ())
    | "--min-value" :: v :: rest -> (
      match float_of_string_opt v with
      | Some f -> min_value := f; parse_args rest
      | None -> usage ())
    | a :: _ when String.length a > 0 && a.[0] = '-' -> usage ()
    | a :: rest -> files := a :: !files; parse_args rest
    | [] -> ()
  in
  parse_args (List.tl (Array.to_list Sys.argv));
  let old_path, new_path =
    match List.rev !files with [ a; b ] -> (a, b) | _ -> usage ()
  in
  let old_exps = load old_path and new_exps = load new_path in
  let compared = ref 0 in
  let regressions = ref 0 in
  let improvements = ref 0 in
  let missing = ref 0 in
  List.iter
    (fun (exp_name, old_entries) ->
      match List.assoc_opt exp_name new_exps with
      | None ->
        incr missing;
        Printf.printf "MISSING    %s: not in %s\n" exp_name new_path
      | Some new_entries ->
        List.iter
          (fun (key, old_v) ->
            match List.assoc_opt key new_entries with
            | None ->
              incr missing;
              Printf.printf "MISSING    %s/%s: not in %s\n" exp_name key new_path
            | Some new_v ->
              if old_v >= !min_value && new_v >= !min_value then begin
                incr compared;
                let change = 100. *. (new_v -. old_v) /. old_v in
                if change > !threshold then begin
                  incr regressions;
                  Printf.printf "REGRESSION %s/%s: %.0f -> %.0f (+%.1f%%)\n" exp_name
                    key old_v new_v change
                end
                else if change < -. !threshold then begin
                  incr improvements;
                  Printf.printf "improved   %s/%s: %.0f -> %.0f (%.1f%%)\n" exp_name
                    key old_v new_v change
                end
              end)
          old_entries)
    old_exps;
  Printf.printf
    "%d entries compared, %d regressions, %d improvements, %d missing (threshold %.0f%%)\n"
    !compared !regressions !improvements !missing !threshold;
  exit (if !regressions > 0 || !missing > 0 then 1 else 0)
