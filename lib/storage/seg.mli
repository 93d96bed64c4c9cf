(** The graph codec: a label dictionary plus a CSR-style graph segment.

    Section 4 distinguishes using the model as an interface to existing
    data from "building a data structure to represent semistructured data
    directly"; this module is the bottom of the second option.  The
    persistent store writes every graph version as these two segments,
    and the DataGuide serializer embeds its guide graph the same way.

    Layout (all integers LEB128 varints, signed ints zigzag):

    {v
      dict:  magic "SSDD" | n_strings | length-prefixed strings, strictly ascending
      graph: magic "SSDG" | n_nodes | root | n_edges
             degrees block: one out-degree per node
             edges block:   per edge a tag byte (0=ε 1=int 2=float 3=str 4=bool 5=sym),
                            its payload (varint / 8-byte IEEE / dictionary index / byte),
                            then the target node
    v}

    Node identities and edge order survive a round-trip exactly (not just
    up to bisimilarity): the format stores the graph, not its value.  The
    encoding is canonical, so re-encoding a decoded graph is
    byte-identical.

    Decoders raise only the typed {!Bytesio.Corrupt} on any input,
    however truncated or bit-flipped (fuzz-tested): [offset] is the byte
    position of the defect, [expected]/[found] describe it.  Counts are
    checked against the bytes remaining before any allocation, and
    varints that would overflow the 62-bit range are rejected rather than
    wrapped. *)

(** Every distinct [Str]/[Sym] payload of the graph's labels, sorted. *)
val dict_of_graph : Ssd.Graph.t -> string array

val encode_dict : string array -> bytes

(** @raise Bytesio.Corrupt on malformed input or unsorted strings. *)
val decode_dict : bytes -> string array

(** [dict] must hold every string payload of the graph's labels
    ({!dict_of_graph} does). *)
val encode_graph : dict:string array -> Ssd.Graph.t -> bytes

(** @raise Bytesio.Corrupt on malformed input, including a dictionary
    index past [dict]. *)
val decode_graph : dict:string array -> bytes -> Ssd.Graph.t
