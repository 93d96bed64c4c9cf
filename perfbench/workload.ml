(* The three traffic mixes: their data, their op streams, and the
   in-process answers every server response is compared with.  Every
   choice is drawn from the run's seed, so a seed fixes the inputs. *)

open Common
module Prng = Ssd_workload.Prng
module Proto = Ssd_serve.Proto

type kind =
  | Browse_hot
  | Scan_cold
  | Update_mix

let kind_of_string = function
  | "browse-hot" -> Some Browse_hot
  | "scan-cold" -> Some Scan_cold
  | "update-mix" -> Some Update_mix
  | _ -> None

let kind_name = function
  | Browse_hot -> "browse-hot"
  | Scan_cold -> "scan-cold"
  | Update_mix -> "update-mix"

(* Data sizes.  browse-hot is large so that a cache miss costs far more
   than a hit; scan-cold is sized so a run collects enough datalog ops
   for a tail percentile; update-mix is small because every commit
   re-encodes the whole graph. *)
let browse_entries = 10_000
let scan_pages = 4_000
let mix_entries = 250

(* browse-hot draws from this many distinct queries; it must stay below
   the server's 128-entry result cache. *)
let browse_pool = 64

type lang =
  | Unql
  | Lorel
  | Datalog

type query = {
  lang : lang;
  text : string;
}

let lang_name = function Unql -> "unql" | Lorel -> "lorel" | Datalog -> "datalog"

let request verb q =
  Proto.render_request
    { Proto.verb; opts = { Proto.default_options with Proto.lang = lang_name q.lang }; body = q.text }

let generate kind ~seed =
  match kind with
  | Browse_hot -> Ssd_workload.Movies.generate ~seed ~n_entries:browse_entries ()
  | Update_mix -> Ssd_workload.Movies.generate ~seed ~n_entries:mix_entries ()
  | Scan_cold -> Ssd_workload.Webgraph.generate ~seed ~n_pages:scan_pages ()

(* ------------------------------------------------------------------ *)
(* Expected answers                                                    *)
(* ------------------------------------------------------------------ *)

(* The response body the engine must produce for [q] on [db]: the
   evaluators run directly, without cache, lint or protocol.  [edb]
   memoizes the datalog view of [db]. *)
let answer ?edb db q =
  match q.lang with
  | Unql -> render_graph (Unql.Eval.eval ~db (Unql.Parser.parse q.text))
  | Lorel -> render_graph (Lorel.Eval.eval ~db (Lorel.Parser.parse q.text))
  | Datalog ->
    let edb =
      match edb with Some e -> Lazy.force e | None -> Relstore.Triple.edb db
    in
    render_datalog (Relstore.Datalog.eval ~edb (Relstore.Datalog.parse q.text))

(* ------------------------------------------------------------------ *)
(* Walking the generated graph for constants                           *)
(* ------------------------------------------------------------------ *)

let child g n lab =
  List.filter_map
    (fun (l, m) -> if Label.equal l (Label.sym lab) then Some m else None)
    (Graph.labeled_succ g n)

let strings_under g n =
  List.filter_map
    (fun (l, _) -> match l with Label.Str s -> Some s | _ -> None)
    (Graph.labeled_succ g n)

(* Strings at the end of [path] from the root, in graph order. *)
let strings_at g path =
  let nodes = List.fold_left (fun ns lab -> List.concat_map (fun n -> child g n lab) ns) [ Graph.root g ] path in
  List.sort_uniq compare (List.concat_map (strings_under g) nodes)

(* [k] distinct elements of [xs], drawn with [rng]. *)
let pick rng k xs =
  let a = Array.of_list xs in
  let n = Array.length a in
  if n < k then fail "need %d constants, the data has %d" k n;
  for i = 0 to k - 1 do
    let j = i + Prng.int rng (n - i) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list (Array.sub a 0 k)

(* ------------------------------------------------------------------ *)
(* browse-hot: Zipf point lookups over a pool that fits the cache      *)
(* ------------------------------------------------------------------ *)

(* Each lookup fetches one movie's record, so a hit still parses, lints,
   normalises and renders a query of a few clauses: enough server work
   that the two process wake-ups per op do not dominate its latency. *)
let browse_templates =
  [|
    Printf.sprintf
      {|select {m: {title: \T, director: \D, year: \Y}} where {entry.movie: {title."%s": _, title: \T, director: \D, year: \Y}} <- DB|};
    Printf.sprintf
      {|select {m: {title: \T, actor: \A}} where {entry.movie: {title."%s": _, title: \T, cast.<(credit)?>.actors.\A}} <- DB|};
    Printf.sprintf
      {|select {m: {director: \D, actor: \A, year: \Y}} where {entry.movie: {title."%s": _, director: \D, year: \Y, cast.<(credit)?>.actors.\A}} <- DB|};
  |]

let browse_pool_of g rng =
  let titles = pick rng browse_pool (strings_at g [ "entry"; "movie"; "title" ]) in
  Array.of_list
    (List.mapi (fun i t -> { lang = Unql; text = browse_templates.(i mod 3) t }) titles)

(* Cumulative Zipf(1) weights over ranks 0..n-1. *)
let zipf_table n =
  let w = Array.init n (fun r -> 1. /. float_of_int (r + 1)) in
  let total = Array.fold_left ( +. ) 0. w in
  let acc = ref 0. in
  Array.map
    (fun x ->
      acc := !acc +. (x /. total);
      !acc)
    w

let zipf_draw rng table =
  let u = Prng.float rng in
  let n = Array.length table in
  let rec go i = if i >= n - 1 || u < table.(i) then i else go (i + 1) in
  go 0

(* ------------------------------------------------------------------ *)
(* scan-cold: distinct regular-path scans, 3:1:1 UnQL:Lorel:datalog    *)
(* ------------------------------------------------------------------ *)

(* The first [scan_fill] ops are UnQL only: they fill the server's
   128-entry result cache, so that every later UnQL miss evicts. *)
let scan_fill = 128

(* The [i]-th op.  After the fill, languages follow a fixed 3:1:1 cycle
   rather than random draws: a run's mean cost then does not depend on
   how many slow ops it happened to draw, and the median sits inside
   the UnQL class instead of on the UnQL/Lorel boundary.  Bounded hops
   only: unbounded (link)+ closures over the cyclic web take seconds
   per query at these sizes. *)
let scan_op rng i =
  let p = Prng.int rng scan_pages in
  match if i < scan_fill then 0 else (i - scan_fill) mod 5 with
  | 0 | 1 | 2 ->
    let hops = 1 + (p mod 3) in
    let path = String.concat "." (List.init hops (fun _ -> "link")) in
    {
      lang = Unql;
      text =
        Printf.sprintf {|select {t: \T} where {host.page: {title."Page %d": _, %s.title: \T}} <- DB|}
          p path;
    }
  | 3 ->
    {
      lang = Lorel;
      text =
        Printf.sprintf
          {|select Y.title from DB.host.page X, X.link.link Y where X.title = "Page %d"|} p;
    }
  | _ ->
    {
      lang = Datalog;
      text =
        Printf.sprintf
          {|q(?T) :- edge(?A, "Page %d", _), edge(?P, title, ?A), edge(?P, link, ?Q), edge(?Q, link, ?R), edge(?R, title, ?B), edge(?B, ?T, _).|}
          p;
    }

(* ------------------------------------------------------------------ *)
(* update-mix: a grafting writer with subscriptions beside a reader    *)
(* ------------------------------------------------------------------ *)

(* Single-object grafts at the root (a monotone 3-edge delta); every
   16th op deletes them all again (non-monotone, the rebuild fallback),
   so the graph is a bounded sawtooth and op cost does not drift. *)
let update_text k =
  if k mod 16 = 0 then "delete DB.draft"
  else Printf.sprintf {|insert DB := {draft: {movie: {title: "New %d"}}}|} k

(* Labels every insert touches; the footprint-disjoint queries must
   avoid them all. *)
let draft_labels = [ Label.sym "draft"; Label.sym "movie"; Label.sym "title" ]

let guest_query name =
  { lang = Unql; text = Printf.sprintf {|select {g: {}} where {entry.tvshow.cast.special_guests."%s": _} <- DB|} name }

let guest_episode_query name =
  {
    lang = Unql;
    text =
      Printf.sprintf
        {|select {e: {}} where {entry.tvshow: {cast.special_guests."%s": _, episode: _}} <- DB|} name;
  }

let movie_query title =
  { lang = Unql; text = Printf.sprintf {|select {d: \D} where {entry.movie: {title."%s": _, director: \D}} <- DB|} title }

let drafts_query = { lang = Unql; text = {|select {t: \T} where {draft.movie.title: \T} <- DB|} }
let has_drafts_query = { lang = Unql; text = {|select {n: {}} where {draft: _} <- DB|} }

(* Datalog footprints are always ⊤, so these are re-checked on every
   update: two change with every graft, two never change. *)
let datalog_subs =
  List.map
    (fun text -> { lang = Datalog; text })
    [
      {|drafts(?T) :- root(?R), edge(?R, draft, ?D), edge(?D, movie, ?M), edge(?M, title, ?A), edge(?A, ?T, _).|};
      {|dcount(?D) :- root(?R), edge(?R, draft, ?D).|};
      {|guest(?A) :- edge(?S, special_guests, ?G), edge(?G, ?A, _).|};
      {|old(?T) :- edge(?M, year, ?Y), edge(?Y, ?V, _), ?V < 1925, edge(?M, title, ?A), edge(?A, ?T, _).|};
    ]

type mix = {
  subs : query list; (* 4 footprint-disjoint UnQL + 4 datalog *)
  reader_pool : query array; (* 8 footprint-disjoint + 8 that updates touch *)
}

let disjoint_from_drafts q =
  match Unql.Footprint.labels (Unql.Footprint.of_string q.text) with
  | None -> false
  | Some ls -> not (List.exists (fun l -> List.exists (Label.equal l) draft_labels) ls)

let mix_of g rng =
  let guests = pick rng 12 (strings_at g [ "entry"; "tvshow"; "cast"; "special_guests" ]) in
  let titles = pick rng 6 (strings_at g [ "entry"; "movie"; "title" ]) in
  let sub_guests = List.filteri (fun i _ -> i < 4) guests in
  let read_guests = List.filteri (fun i _ -> i >= 4) guests in
  let disjoint =
    List.mapi (fun i n -> if i mod 2 = 0 then guest_query n else guest_episode_query n) read_guests
  in
  let touched = drafts_query :: has_drafts_query :: List.map movie_query titles in
  let subs = List.map guest_query sub_guests @ datalog_subs in
  List.iter
    (fun q -> if not (disjoint_from_drafts q) then fail "query is not footprint-disjoint: %s" q.text)
    (disjoint @ List.map guest_query sub_guests);
  List.iter
    (fun q -> if disjoint_from_drafts q then fail "query should depend on drafts: %s" q.text)
    touched;
  { subs; reader_pool = Array.of_list (disjoint @ touched) }
