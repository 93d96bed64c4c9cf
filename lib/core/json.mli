(** JSON as semistructured data.

    Section 1.2 of the paper motivates the model as "an extremely flexible
    format for data exchange between disparate databases"; JSON is the
    format that role eventually standardized on.  This module gives a
    self-contained JSON parser/printer and the encoding into the
    edge-labeled model:

    - an object [{"k": v}] becomes a set of [Sym k] edges;
    - an array [[v0, v1]] becomes [Int 0], [Int 1], ... edges — exactly the
      paper's remark that "arrays may be represented by labeling internal
      edges with integers";
    - a scalar becomes a leaf edge labeled with the base value;
    - [null] becomes the leaf [Sym null].

    The encoding is not injective on all trees (that is the paper's point:
    the model subsumes the format), so {!to_tree} ∘ {!of_tree} = id holds
    while the converse only holds on trees in the image of {!to_tree}. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(** A syntax error raises {!Ssd_diag.Fail} with code SSD004 and the
    span of the failing offset. *)
val parse : string -> t
val to_string : t -> string

(** {!to_string} without line breaks — one line however deep the value,
    for line-oriented sinks (JSONL).  Re-parses to the same value. *)
val to_compact_string : t -> string
val pp : Format.formatter -> t -> unit

(** Encode a JSON document as an edge-labeled tree. *)
val to_tree : t -> Tree.t

(** Decode a tree back into JSON.  Trees outside the image of {!to_tree}
    are decoded by heuristics: integer-labeled edge sets [0..n-1] become
    arrays, symbol-labeled edge sets become objects (duplicate keys keep
    the first), leaf-only base labels become scalars; anything else falls
    back to an object keyed by label text. *)
val of_tree : Tree.t -> t
