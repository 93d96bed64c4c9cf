(* Smoke test for the admin plane on the real binary: `ssdql serve
   --store --admin` must expose valid OpenMetrics (monotone across
   scrapes, tenant-labeled families present), a truthful /healthz, a
   /varz with the running config, and an /events tail in which a slow
   query shows up with its plan and cardinality estimate.  Then the
   crash path: kill -9 the server and check the reopened process's
   /healthz reports the recovery. *)

module Proto = Ssd_serve.Proto
module Export = Ssd_obs.Export

(* Servers spawned so far — killed on failure so an orphaned child can't
   hold the runner's output pipe open after we exit. *)
let spawned : int list ref = ref []

let fail fmt =
  Printf.ksprintf
    (fun m ->
      prerr_endline ("check_admin: FAIL " ^ m);
      List.iter (fun p -> try Unix.kill p Sys.sigkill with Unix.Unix_error _ -> ()) !spawned;
      exit 1)
    fmt

let expect what cond = if not cond then fail "%s" what

let contains hay needle =
  let n = String.length hay and m = String.length needle in
  let rec go i = i + m <= n && (String.equal (String.sub hay i m) needle || go (i + 1)) in
  go 0

let wait_for ?(timeout = 10.) what pred =
  let t0 = Unix.gettimeofday () in
  let rec go () =
    if not (pred ()) then
      if Unix.gettimeofday () -. t0 > timeout then fail "timed out waiting for %s" what
      else begin
        Unix.sleepf 0.02;
        go ()
      end
  in
  go ()

(* ------------------------------------------------------------------ *)
(* Clients: SSDQL frames and admin HTTP, both over Unix sockets        *)
(* ------------------------------------------------------------------ *)

let connect_to path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (match Unix.connect fd (Unix.ADDR_UNIX path) with
  | () -> ()
  | exception e ->
    Unix.close fd;
    raise e);
  fd

let send fd s =
  let b = Bytes.unsafe_of_string s in
  let n = Bytes.length b in
  let rec go off = if off < n then go (off + Unix.write fd b off (n - off)) in
  go 0

let read_frames fd k =
  let buf = Buffer.create 4096 in
  let chunk = Bytes.create 4096 in
  let rec parse_all pos acc =
    if List.length acc = k then List.rev acc
    else
      match Proto.parse_response (Buffer.contents buf) pos with
      | Ok (r, pos') -> parse_all pos' (r :: acc)
      | Error `Incomplete -> (
        match Unix.read fd chunk 0 (Bytes.length chunk) with
        | 0 -> fail "connection closed with %d of %d frames read" (List.length acc) k
        | n ->
          Buffer.add_subbytes buf chunk 0 n;
          parse_all pos acc)
      | Error (`Malformed why) -> fail "malformed frame from server: %s" why
  in
  parse_all 0 []

let rpc_at path k reqs =
  let fd = connect_to path in
  send fd reqs;
  let frames = read_frames fd k in
  (try Unix.close fd with Unix.Unix_error _ -> ());
  frames

(* GET over the admin socket: HTTP/1.0, server closes after the
   response, so read to EOF and split headers from body. *)
let http_get path target =
  let fd = connect_to path in
  send fd (Printf.sprintf "GET %s HTTP/1.0\r\n\r\n" target);
  let buf = Buffer.create 8192 in
  let chunk = Bytes.create 8192 in
  let rec drain () =
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 -> ()
    | n ->
      Buffer.add_subbytes buf chunk 0 n;
      drain ()
    | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> ()
  in
  drain ();
  (try Unix.close fd with Unix.Unix_error _ -> ());
  let raw = Buffer.contents buf in
  let split sep =
    let n = String.length raw and m = String.length sep in
    let rec go i = if i + m > n then None else if String.sub raw i m = sep then Some i else go (i + 1) in
    go 0
  in
  match split "\r\n\r\n" with
  | Some i ->
    (String.sub raw 0 i, String.sub raw (i + 4) (String.length raw - i - 4))
  | None -> (
    match split "\n\n" with
    | Some i ->
      (String.sub raw 0 i, String.sub raw (i + 2) (String.length raw - i - 2))
    | None -> fail "no header/body split in response to %s" target)

let status_of headers =
  match String.split_on_char ' ' headers with
  | _ :: code :: _ -> int_of_string_opt code |> Option.value ~default:(-1)
  | _ -> -1

let get_json path target =
  let headers, body = http_get path target in
  expect (target ^ " returns 200") (status_of headers = 200);
  match Ssd.Json.parse body with
  | v -> v
  | exception Ssd_diag.Fail d -> fail "%s body does not parse: %s" target (Ssd_diag.to_string d)

let assoc_path doc keys =
  List.fold_left
    (fun acc k ->
      match acc with
      | Ssd.Json.Obj kvs -> (
        match List.assoc_opt k kvs with
        | Some v -> v
        | None -> fail "missing key %S" k)
      | _ -> fail "key %S: not an object" k)
    doc keys

(* ------------------------------------------------------------------ *)

let () =
  match Sys.argv with
  | [| _; ssdql |] ->
    let dir = Filename.temp_file "ssdql_admin_store" "" in
    Sys.remove dir;
    Unix.mkdir dir 0o700;
    let tmp = Filename.get_temp_dir_name () in
    let pid = Unix.getpid () in
    let serve_sock = Filename.concat tmp (Printf.sprintf "ssdql_adm_srv_%d.sock" pid) in
    let admin_sock = Filename.concat tmp (Printf.sprintf "ssdql_adm_http_%d.sock" pid) in
    let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
    let init =
      Unix.create_process ssdql
        [| ssdql; "store"; "init"; "--store"; dir; "-d"; "builtin:figure1" |]
        Unix.stdin devnull devnull
    in
    (match Unix.waitpid [] init with
    | _, Unix.WEXITED 0 -> ()
    | _ -> fail "store init failed");
    Unix.close devnull;
    let spawn_serve log =
      let logfd = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o600 in
      let p =
        Unix.create_process ssdql
          [|
            ssdql; "serve"; "--store"; dir; "--socket"; serve_sock;
            "--workers"; "2"; "--admin"; "unix:" ^ admin_sock;
            (* every query is a "slow" query, so /events must show one *)
            "--slow-query-ms"; "0";
          |]
          Unix.stdin Unix.stdout logfd
      in
      Unix.close logfd;
      spawned := p :: !spawned;
      wait_for "serve socket" (fun () -> Sys.file_exists serve_sock);
      wait_for "admin socket" (fun () -> Sys.file_exists admin_sock);
      p
    in

    let log1 = Filename.temp_file "ssdql_admin1" ".log" in
    let pid1 = spawn_serve log1 in

    (* Traffic with tenant labels, so the per-tenant families exist. *)
    let q = {| select {t: \T} where {entry.movie.title: \T} <- DB |} in
    (match rpc_at serve_sock 2 (Printf.sprintf "QUERY tenant=alice %s\nPING\n" q) with
    | [ r; p ] ->
      expect "alice query completes" (r.Proto.status = Proto.Complete);
      expect "ping answers" (String.equal p.Proto.body "pong\n")
    | _ -> fail "tenant traffic frame count");
    (match rpc_at serve_sock 1 (Printf.sprintf "QUERY - %s\n" q) with
    | [ r ] -> expect "default-tenant query completes" (r.Proto.status = Proto.Complete)
    | _ -> fail "default traffic frame count");

    (* Scrape #1: valid OpenMetrics with the families the issue names. *)
    let headers, scrape1 = http_get admin_sock "/metrics" in
    expect "/metrics returns 200" (status_of headers = 200);
    expect "content-type is the openmetrics media type"
      (contains headers "Content-Type: application/openmetrics-text");
    let parsed1 =
      match Export.parse scrape1 with
      | Ok l -> l
      | Error e -> fail "scrape #1 does not parse: %s" e
    in
    expect "scrape ends with # EOF" (List.mem Export.Eof parsed1);
    expect "serve latency histogram exported"
      (List.exists
         (function
           | Export.Type (f, "histogram") -> f = "ssd_serve_latency_ns"
           | _ -> false)
         parsed1);
    expect "tenant-labeled family exported"
      (List.exists
         (function
           | Export.Sample s ->
             s.Export.family = "ssd_serve_tenant_requests_total"
             && s.Export.labels = [ ("tenant", "alice") ]
           | _ -> false)
         parsed1);
    expect "store gauges exported"
      (Export.counter_total parsed1 "ssd_store_pages" > 0.);

    (* Scrape #2 after more traffic: counters are monotone. *)
    (match rpc_at serve_sock 1 (Printf.sprintf "QUERY tenant=alice %s\n" q) with
    | [ r ] -> expect "second alice query completes" (r.Proto.status = Proto.Complete)
    | _ -> fail "second alice frame count");
    let _, scrape2 = http_get admin_sock "/metrics" in
    let parsed2 =
      match Export.parse scrape2 with
      | Ok l -> l
      | Error e -> fail "scrape #2 does not parse: %s" e
    in
    List.iter
      (fun fam ->
        let a = Export.counter_total parsed1 fam
        and b = Export.counter_total parsed2 fam in
        if b < a then fail "%s went backwards across scrapes (%g -> %g)" fam a b)
      [
        "ssd_serve_requests_total";
        "ssd_serve_tenant_requests_total";
        "ssd_admin_scrapes_total";
      ];

    (* /metrics?format=json *)
    (match get_json admin_sock "/metrics?format=json" with
    | Ssd.Json.Obj kvs ->
      expect "json scrape has the registry sections"
        (List.mem_assoc "counters" kvs && List.mem_assoc "histograms" kvs)
    | _ -> fail "json scrape is not an object");

    (* /healthz on a clean store *)
    let health = get_json admin_sock "/healthz" in
    expect "healthz ok" (assoc_path health [ "status" ] = Ssd.Json.String "ok");
    (* while open-for-write the durable clean flag is down — that is how
       a crash is detected on the next open *)
    expect "healthz shows the store open-for-write"
      (assoc_path health [ "store"; "clean" ] = Ssd.Json.Bool false);
    expect "healthz reports a clean first open"
      (assoc_path health [ "store"; "last_recovery"; "was_clean" ] = Ssd.Json.Bool true);

    (* /varz carries the running config *)
    let varz = get_json admin_sock "/varz" in
    expect "varz names the binary"
      (assoc_path varz [ "name" ] = Ssd.Json.String "ssdql serve");
    (match assoc_path varz [ "config"; "slow_query_ms" ] with
    | Ssd.Json.Float f -> expect "varz shows the slow-query threshold" (f = 0.)
    | Ssd.Json.Int i -> expect "varz shows the slow-query threshold" (i = 0)
    | _ -> fail "varz config.slow_query_ms missing");

    (* /events: the queries above ran with threshold 0, so a slow_query
       event with plan and estimate must be in the tail. *)
    let _, events_body = http_get admin_sock "/events?n=50" in
    let event_lines =
      String.split_on_char '\n' events_body |> List.filter (fun l -> l <> "")
    in
    expect "events tail is nonempty" (event_lines <> []);
    let slow =
      List.filter_map
        (fun l ->
          match Ssd.Json.parse l with
          | Ssd.Json.Obj kvs when List.assoc_opt "event" kvs = Some (Ssd.Json.String "slow_query")
            -> Some kvs
          | Ssd.Json.Obj _ -> None
          | _ -> fail "event line is not a JSON object: %s" l
          | exception Ssd_diag.Fail d -> fail "bad event line %S: %s" l (Ssd_diag.to_string d))
        event_lines
    in
    expect "a slow_query event was logged" (slow <> []);
    let last = List.nth slow (List.length slow - 1) in
    expect "slow_query carries the plan" (List.mem_assoc "plan" last);
    expect "slow_query carries the cardinality estimate" (List.mem_assoc "est_rows" last);
    expect "slow_query carries the actual row count" (List.mem_assoc "actual_rows" last);
    expect "slow_query names the tenant" (List.mem_assoc "tenant" last);

    (* The EVENTS verb serves the same tail over the query protocol. *)
    (match rpc_at serve_sock 1 "EVENTS n=5\n" with
    | [ r ] ->
      expect "EVENTS frame completes" (r.Proto.status = Proto.Complete);
      expect "EVENTS body is the JSONL tail" (contains r.Proto.body "\"event\"")
    | _ -> fail "EVENTS frame count");

    (* STATS carries the full registry snapshot (one source of truth
       with the admin plane) plus the engine section. *)
    (match rpc_at serve_sock 1 "STATS\n" with
    | [ s ] -> (
      match Ssd.Json.parse s.Proto.body with
      | Ssd.Json.Obj kvs ->
        expect "STATS has registry sections"
          (List.mem_assoc "counters" kvs && List.mem_assoc "gauges" kvs
          && List.mem_assoc "histograms" kvs);
        expect "STATS has the engine section" (List.mem_assoc "engine" kvs)
      | _ -> fail "STATS body is not a JSON object"
      | exception Ssd_diag.Fail d -> fail "STATS body does not parse: %s" (Ssd_diag.to_string d))
    | _ -> fail "STATS frame count");

    (* 404 and method handling *)
    let h404, _ = http_get admin_sock "/nosuch" in
    expect "unknown target is 404" (status_of h404 = 404);

    (* Crash: kill -9, reopen, /healthz must report the recovery. *)
    Unix.kill pid1 Sys.sigkill;
    (match Unix.waitpid [] pid1 with
    | _, Unix.WSIGNALED s when s = Sys.sigkill -> ()
    | _ -> fail "server not killed as expected");
    if Sys.file_exists serve_sock then Sys.remove serve_sock;
    if Sys.file_exists admin_sock then Sys.remove admin_sock;

    let log2 = Filename.temp_file "ssdql_admin2" ".log" in
    let pid2 = spawn_serve log2 in
    let health2 = get_json admin_sock "/healthz" in
    expect "healthz ok after recovery"
      (assoc_path health2 [ "status" ] = Ssd.Json.String "ok");
    expect "healthz reports the unclean open"
      (assoc_path health2 [ "store"; "last_recovery"; "was_clean" ] = Ssd.Json.Bool false);
    Unix.kill pid2 Sys.sigterm;
    (match Unix.waitpid [] pid2 with
    | _, Unix.WEXITED 0 -> ()
    | _ -> fail "server did not exit cleanly on SIGTERM");
    print_endline "check_admin: ok"
  | _ -> fail "usage: check_admin SSDQL_BINARY"
