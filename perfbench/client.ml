(* The server as a separate process, and protocol connections to it. *)

open Common
module Proto = Ssd_serve.Proto

(* ------------------------------------------------------------------ *)
(* Server processes                                                    *)
(* ------------------------------------------------------------------ *)

type server = {
  pid : int;
  sock : string; (* relative to the working directory: short enough for sun_path *)
  mutable running : bool;
}

(* Every server this process started; stopped on any exit path. *)
let live : server list ref = ref []

let stop ?(kill = false) s =
  if s.running then begin
    s.running <- false;
    (try Unix.kill s.pid (if kill then Sys.sigkill else Sys.sigterm)
     with Unix.Unix_error _ -> ());
    (try ignore (Unix.waitpid [] s.pid) with Unix.Unix_error _ -> ());
    live := List.filter (fun s' -> s'.pid <> s.pid) !live
  end

let () = at_exit (fun () -> List.iter (stop ~kill:true) !live)

let spawn ~ssdql ~store ~sock ~workers ~log =
  let logfd = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644 in
  (* stdin at end of file: the server never reads it *)
  let stdin_r, stdin_w = Unix.pipe ~cloexec:true () in
  Unix.close stdin_w;
  let pid =
    Unix.create_process ssdql
      [| ssdql; "serve"; "--store"; store; "--socket"; sock; "--workers"; string_of_int workers |]
      stdin_r logfd logfd
  in
  Unix.close stdin_r;
  Unix.close logfd;
  let s = { pid; sock; running = true } in
  live := s :: !live;
  s

(* Peak resident set of a live process (VmHWM), in MiB. *)
let peak_rss_mb s =
  let status = read_file (Printf.sprintf "/proc/%d/status" s.pid) in
  match
    List.find_map
      (fun line ->
        if String.starts_with ~prefix:"VmHWM:" line then
          Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb -> Some kb)
        else None)
      (String.split_on_char '\n' status)
  with
  | Some kb -> float_of_int kb /. 1024.
  | None -> fail "no VmHWM for pid %d" s.pid

(* ------------------------------------------------------------------ *)
(* Connections                                                         *)
(* ------------------------------------------------------------------ *)

type conn = {
  fd : Unix.file_descr;
  buf : Buffer.t;
  mutable pos : int; (* start of the first unparsed byte in [buf] *)
  chunk : Bytes.t;
}

(* Poll until the server listens; the socket appears once the store is
   open, so the poll interval bounds the error of a set-up time. *)
let connect ?(timeout_s = 60.) s =
  let deadline = now_ns () +. (timeout_s *. 1e9) in
  let rec go () =
    let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX s.sock) with
    | () ->
      (* a wedged server fails the run instead of hanging it *)
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO 60.;
      { fd; buf = Buffer.create 65536; pos = 0; chunk = Bytes.create 65536 }
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) ->
      Unix.close fd;
      if now_ns () > deadline then fail "server %d did not listen on %s" s.pid s.sock;
      (match Unix.waitpid [ Unix.WNOHANG ] s.pid with
      | 0, _ -> ()
      | _ ->
        s.running <- false;
        fail "server %d exited before listening" s.pid);
      Unix.sleepf 0.0002;
      go ()
  in
  go ()

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let send c line =
  let b = Bytes.unsafe_of_string (line ^ "\n") in
  let n = Bytes.length b in
  let rec go off = if off < n then go (off + Unix.write c.fd b off (n - off)) in
  go 0

(* One read of whatever is available; false at end of stream. *)
let fill c =
  match Unix.read c.fd c.chunk 0 (Bytes.length c.chunk) with
  | 0 -> false
  | n ->
    Buffer.add_subbytes c.buf c.chunk 0 n;
    true
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
    fail "server answered nothing for 60 s"

(* The next complete frame already buffered, if any. *)
let take c =
  if c.pos >= Buffer.length c.buf then None
  else
    match Proto.parse_response (Buffer.contents c.buf) c.pos with
    | Ok (r, pos') ->
      if pos' >= Buffer.length c.buf then begin
        Buffer.clear c.buf;
        c.pos <- 0
      end
      else c.pos <- pos';
      Some r
    | Error `Incomplete -> None
    | Error (`Malformed why) -> fail "malformed frame from server: %s" why

let rec frame c =
  match take c with
  | Some r -> r
  | None -> if fill c then frame c else fail "server closed the connection"

(* A request and its one answer (no subscriptions on [c]). *)
let rpc c line =
  send c line;
  frame c

let stats_counters c =
  let r = rpc c "STATS" in
  match Ssd.Json.parse r.Proto.body with
  | Ssd.Json.Obj fields -> (
    match List.assoc_opt "counters" fields with
    | Some (Ssd.Json.Obj cs) ->
      List.filter_map (fun (k, v) -> match v with Ssd.Json.Int n -> Some (k, n) | _ -> None) cs
    | _ -> fail "STATS has no counters")
  | _ -> fail "STATS is not a JSON object"
