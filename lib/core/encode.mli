(** Encodings of structured databases into the semistructured model.

    Section 2: "It is straightforward to encode relational and
    object-oriented databases in this model, although in the latter case
    one must take care to deal with the issue of object-identity.  However,
    the coding is not unique..."

    This module provides one canonical coding each way and the partial
    inverse ("the passage back from semistructured to structured data",
    section 5) for data that conforms. *)

(** {1 Relational databases} *)

type relation = {
  rel_name : string;
  attrs : string list;
  rows : Label.t list list; (** each row has [List.length attrs] fields *)
}

type database = relation list

(** The decoders raise {!Ssd_diag.Fail} with code SSD522 when the input
    does not conform to the coding. *)

(** [tree_of_database db] encodes each relation [R(a₁..aₙ)] as

    {v {R: {tuple: {a₁: v₁, ..., aₙ: vₙ}, tuple: ...}, ...} v}

    Values appear as leaf edges.  Note set semantics: duplicate rows
    collapse, exactly as in the relational model. *)
val tree_of_database : database -> Tree.t

val tree_of_relation : relation -> Tree.t

(** Partial inverse of {!tree_of_database}.
    @raise Ssd_diag.Fail (SSD522) if the tree is not in the image of the coding. *)
val database_of_tree : Tree.t -> database

val relation_of_tree : name:string -> Tree.t -> relation

(** {1 Object-oriented databases}

    Objects have identity: two fields referring to the same oid must map
    to the {e same graph node}, so the encoding targets {!Graph.t}, not
    {!Tree.t}, and reference cycles are preserved. *)

type field =
  | Base of Label.t
  | Ref of int (** reference to another object's oid *)
  | Fset of field list

type obj = {
  oid : int;
  cls : string;
  fields : (string * field) list;
}

(** [graph_of_objects ~roots objs] encodes the objects reachable from
    [roots]:

    - the root has one [cls]-labeled edge per root object;
    - an object node has one edge per field;
    - a [Ref oid] field edge points directly at the target object's node
      (sharing — this is where object identity matters);
    - a set field becomes a node with one [member] edge per element.

    @raise Ssd_diag.Fail (SSD522) on a dangling [Ref]. *)
val graph_of_objects : roots:int list -> obj list -> Graph.t
