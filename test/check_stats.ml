(* Smoke check wired into `dune runtest`: the metrics JSON that
   `ssdql query --stats --stats-format json` emits must parse, contain
   the three registry sections with at least one counter, and hold no
   negative value — a monotonic counter gone negative means an
   instrumentation bug. *)

let fail fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("check_stats: " ^ s);
      exit 1)
    fmt

let () =
  if Array.length Sys.argv < 2 then fail "usage: check_stats METRICS.json";
  let path = Sys.argv.(1) in
  let ic = open_in_bin path in
  let src = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let module J = Ssd.Json in
  let json =
    match J.parse src with
    | j -> j
    | exception Ssd_diag.Fail d -> fail "metrics json does not parse: %s" (Ssd_diag.to_string d)
  in
  let rec check_nonneg ctx = function
    | J.Int n -> if n < 0 then fail "negative counter %s = %d" ctx n
    | J.Float f -> if f < 0. then fail "negative value %s = %g" ctx f
    | J.Obj kvs -> List.iter (fun (k, v) -> check_nonneg (ctx ^ "." ^ k) v) kvs
    | J.List l ->
      List.iteri (fun i v -> check_nonneg (Printf.sprintf "%s[%d]" ctx i) v) l
    | J.Null | J.Bool _ | J.String _ -> ()
  in
  (match json with
  | J.Obj kvs ->
    List.iter
      (fun sect -> if not (List.mem_assoc sect kvs) then fail "missing %S section" sect)
      [ "counters"; "timers"; "histograms" ];
    (match List.assoc "counters" kvs with
    | J.Obj [] -> fail "no counters were recorded"
    | J.Obj cs ->
      (* the instrumented evaluator must have actually counted the query *)
      (match List.assoc_opt "unql.eval.queries" cs with
      | Some (J.Int n) when n >= 1 -> ()
      | Some _ | None -> fail "unql.eval.queries did not record the evaluation")
    | _ -> fail "counters section is not an object")
  | _ -> fail "metrics dump is not a json object");
  check_nonneg "metrics" json;
  print_endline "metrics json ok"
