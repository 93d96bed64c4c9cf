(* Serving benchmark for `ssdql serve`.

     perfbench.exe --ssdql PATH --workload browse-hot|scan-cold|update-mix
                   --seed N --seconds S --trace 0|1

   --trace 0 prints the end-to-end metrics of a socket run; --trace 1
   also replays the workload in process and prints the per-layer
   metrics.  Every answer is checked; the last stdout line is the JSON
   result.  Scratch files live under .perfbench/ in the working
   directory. *)

open Common

let usage () =
  prerr_endline
    "usage: perfbench.exe --ssdql PATH --workload browse-hot|scan-cold|update-mix --seed N \
     --seconds S --trace 0|1";
  exit 2

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec parse acc = function
    | k :: v :: rest when String.starts_with ~prefix:"--" k -> parse ((k, v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let opts = parse [] args in
  let get k = match List.assoc_opt k opts with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (get k) with Some n -> n | None -> usage () in
  let kind = match Workload.kind_of_string (get "--workload") with Some k -> k | None -> usage () in
  let trace = int "--trace" in
  if trace <> 0 && trace <> 1 then usage ();
  let seconds = float_of_int (int "--seconds") in
  let dir = Filename.concat ".perfbench" (Printf.sprintf "run-%d" (Unix.getpid ())) in
  mkdir_p dir;
  let env = { Drive.ssdql = get "--ssdql"; dir; seed = int "--seed"; seconds } in
  let code =
    match
      let r = Drive.run kind env in
      let metrics =
        if trace = 0 then Drive.end_to_end r
        else Replay.per_layer kind env r
      in
      List.iter (fun (name, v) -> Printf.printf "%-36s %16.6f per op\n" ("stats." ^ name) v) r.Drive.stats_per_op;
      Printf.printf "%-36s %16.6f        (n=%d)\n" "fail_ratio" (ratio r.Drive.failed r.Drive.attempted)
        r.Drive.attempted;
      print_result ~correct:(r.Drive.failed = 0 && r.Drive.checks_ok) ~attempted:r.Drive.attempted
        ~failed:r.Drive.failed metrics
    with
    | () -> 0
    | exception Bench_failure m ->
      prerr_endline ("perfbench: " ^ m);
      1
  in
  List.iter (Client.stop ~kill:true) !Client.live;
  rm_rf dir;
  exit code
