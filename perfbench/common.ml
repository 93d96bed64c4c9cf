(* Helpers shared by the socket run and the in-process replay. *)

module Graph = Ssd.Graph
module Label = Ssd.Label

let now_ns = Ssd_obs.Clock.now_ns

exception Bench_failure of string

let fail fmt = Printf.ksprintf (fun m -> raise (Bench_failure m)) fmt

(* ------------------------------------------------------------------ *)
(* Files                                                               *)
(* ------------------------------------------------------------------ *)

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    Unix.mkdir path 0o755
  end

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* A store is a flat directory of files; a cold start gets its own copy. *)
let copy_dir src dst =
  mkdir_p dst;
  Array.iter
    (fun f ->
      let data = read_file (Filename.concat src f) in
      Out_channel.with_open_bin (Filename.concat dst f) (fun oc ->
          Out_channel.output_string oc data))
    (Sys.readdir src)

(* ------------------------------------------------------------------ *)
(* Statistics                                                          *)
(* ------------------------------------------------------------------ *)

(* Nearest-rank percentile of an unsorted sample, [q] in (0, 1]. *)
let percentile xs q =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else a.(max 0 (min (n - 1) (int_of_float (ceil (q *. float_of_int n)) - 1)))

let median xs = percentile xs 0.5

let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b

(* ------------------------------------------------------------------ *)
(* Response bodies, byte-for-byte as the engine renders them           *)
(* ------------------------------------------------------------------ *)

let render_graph g = Graph.to_string g ^ "\n"

let render_datalog results =
  let buf = Buffer.create 256 in
  List.iter
    (fun (pred, tuples) ->
      Buffer.add_string buf (Printf.sprintf "%s: %d tuples\n" pred (List.length tuples));
      List.iter
        (fun tuple ->
          Buffer.add_string buf
            (Printf.sprintf "  %s(%s)\n" pred
               (String.concat ", " (List.map Label.to_string tuple))))
        tuples)
    results;
  Buffer.contents buf

(* Subscription frames render datalog canonically (sorted). *)
let render_datalog_sorted results =
  render_datalog
    (results |> List.map (fun (p, ts) -> (p, List.sort_uniq compare ts)) |> List.sort compare)

(* ------------------------------------------------------------------ *)
(* Result line                                                         *)
(* ------------------------------------------------------------------ *)

type metric = {
  m_name : string;
  m_value : float;
  m_unit : string;
  m_samples : int; (* how many observations the value summarizes *)
}

let metric ?(samples = 1) m_name m_unit m_value =
  { m_name; m_value; m_unit; m_samples = samples }

(* Every metric as one human-readable line, then the JSON result as the
   last line of stdout. *)
let print_result ~correct ~attempted ~failed metrics =
  List.iter
    (fun m -> Printf.printf "%-36s %16.6f %-6s (n=%d)\n" m.m_name m.m_value m.m_unit m.m_samples)
    metrics;
  let module J = Ssd.Json in
  let doc =
    J.Obj
      [
        ("correct", J.Bool correct);
        ("attempted", J.Int attempted);
        ("failed", J.Int failed);
        ( "metrics",
          J.Obj
            (List.map
               (fun m ->
                 (* a ratio over an empty base is reported as 0, never NaN *)
                 let v = if Float.is_nan m.m_value then 0. else m.m_value in
                 (m.m_name, J.Obj [ ("value", J.Float v); ("unit", J.String m.m_unit) ]))
               metrics) );
      ]
  in
  print_endline (J.to_compact_string doc)
