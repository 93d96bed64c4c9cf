(* Shared measurement helpers: bechamel for per-operation timings, plus a
   simple wall-clock for one-shot constructions. *)

open Bechamel
open Toolkit

let ols = Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]

(* ------------------------------------------------------------------ *)
(* BENCH.json recording                                                *)
(* ------------------------------------------------------------------ *)

(* Every [measure] result (and explicitly recorded metric) lands in a
   global per-experiment table; [write_bench_json] emits the versioned
   document that tools/bench_diff compares across runs. *)
let bench_version = 1
let current_experiment = ref "misc"
let recorded : (string, (string * float) list ref) Hashtbl.t = Hashtbl.create 16
let experiment_order : string list ref = ref []

let set_experiment name =
  current_experiment := name;
  if not (Hashtbl.mem recorded name) then begin
    Hashtbl.add recorded name (ref []);
    experiment_order := name :: !experiment_order
  end

(* Record [name -> value] under the current experiment.  Repeated names
   (the same case measured at several sizes) get occurrence suffixes:
   name, name#2, name#3, ... in recording order, so entries stay stable
   across runs.  NaN (a failed OLS fit) is dropped: JSON cannot carry it
   and bench_diff could not compare it. *)
let record name v =
  if not (Float.is_nan v) then begin
    if not (Hashtbl.mem recorded !current_experiment) then
      set_experiment !current_experiment;
    let cell = Hashtbl.find recorded !current_experiment in
    let rec fresh k =
      let candidate = if k = 1 then name else Printf.sprintf "%s#%d" name k in
      if List.mem_assoc candidate !cell then fresh (k + 1) else candidate
    in
    cell := (fresh 1, v) :: !cell
  end

(* The experiments already in [path]: [] if there is no such file; a
   file that is not a version-1 bench record is an error, never
   overwritten. *)
let existing_experiments path =
  let module J = Ssd.Json in
  if not (Sys.file_exists path) then []
  else
    match J.parse (In_channel.with_open_bin path In_channel.input_all) with
    | J.Obj kvs when List.assoc_opt "version" kvs = Some (J.Int bench_version) -> (
      match List.assoc_opt "experiments" kvs with
      | Some (J.Obj exps) -> exps
      | _ -> failwith (path ^ ": no \"experiments\" object"))
    | _ | (exception J.Parse_error _) ->
      failwith (Printf.sprintf "%s: not a version-%d bench record" path bench_version)

(* Merges this run into [path]: an experiment run now replaces its old
   entries in place, new ones are appended, the rest are kept — so
   running one experiment never drops the others' records. *)
let write_bench_json path =
  let module J = Ssd.Json in
  let fresh =
    List.rev_map
      (fun name ->
        let cell = Hashtbl.find recorded name in
        (name, J.Obj (List.rev_map (fun (k, v) -> (k, J.Float v)) !cell)))
      !experiment_order
  in
  let old = existing_experiments path in
  let experiments =
    List.map (fun (name, v) -> (name, Option.value ~default:v (List.assoc_opt name fresh))) old
    @ List.filter (fun (name, _) -> not (List.mem_assoc name old)) fresh
  in
  let doc =
    J.Obj [ ("version", J.Int bench_version); ("experiments", J.Obj experiments) ]
  in
  let oc = open_out path in
  output_string oc (J.to_string doc);
  output_char oc '\n';
  close_out oc;
  Printf.printf "\nwrote %s (%d experiments, %d from this run)\n" path
    (List.length experiments) (List.length fresh)

(* [measure cases] runs each (name, thunk) under bechamel's monotonic
   clock and returns (name, ns/run) in input order.  Each estimate is
   also recorded for BENCH.json. *)
let measure ?(quota = 0.5) cases =
  let tests =
    List.map (fun (name, f) -> Test.make ~name (Staged.stage f)) cases
  in
  let grouped = Test.make_grouped ~name:"g" tests in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second quota) ~kde:None () in
  let raw = Benchmark.all cfg [ Instance.monotonic_clock ] grouped in
  let res = Analyze.all ols Instance.monotonic_clock raw in
  List.map
    (fun (name, _) ->
      let key = "g/" ^ name in
      let est =
        match Hashtbl.find_opt res key with
        | Some o -> (
          match Analyze.OLS.estimates o with
          | Some (e :: _) -> e
          | _ -> nan)
        | None -> nan
      in
      record name est;
      (name, est))
    cases

(* One-shot wall-clock (seconds), minimum of [runs]. *)
let time_once ?(runs = 3) f =
  let best = ref infinity in
  let result = ref None in
  for _ = 1 to runs do
    let t0 = Unix.gettimeofday () in
    let r = f () in
    let dt = Unix.gettimeofday () -. t0 in
    if dt < !best then best := dt;
    result := Some r
  done;
  (Option.get !result, !best)

let ns_to_string ns =
  if Float.is_nan ns then "-"
  else if ns < 1e3 then Printf.sprintf "%.0fns" ns
  else if ns < 1e6 then Printf.sprintf "%.1fus" (ns /. 1e3)
  else if ns < 1e9 then Printf.sprintf "%.2fms" (ns /. 1e6)
  else Printf.sprintf "%.2fs" (ns /. 1e9)

let s_to_string s = ns_to_string (s *. 1e9)

(* Markdown-ish table printing. *)
let print_table ~title ~header rows =
  Printf.printf "\n### %s\n\n" title;
  let all = header :: rows in
  let widths =
    List.fold_left
      (fun acc row -> List.map2 (fun w cell -> max w (String.length cell)) acc row)
      (List.map String.length header)
      rows
  in
  ignore all;
  let print_row row =
    print_string "| ";
    List.iter2 (fun w cell -> Printf.printf "%-*s | " w cell) widths row;
    print_newline ()
  in
  print_row header;
  print_string "|";
  List.iter (fun w -> print_string (String.make (w + 2) '-') ; print_string "|") widths;
  print_newline ();
  List.iter print_row rows

let section name = Printf.printf "\n## %s\n" name
