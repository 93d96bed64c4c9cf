(** Offset-tracking binary readers/writers and CRC32, shared by the graph
    codec ({!Seg}), the index and DataGuide serializers and the
    persistent store's page/segment/WAL formats ([lib/store]).

    Decoders raise only the typed {!Corrupt} on malformed input —
    carrying the byte offset of the defect plus expected/found
    descriptions — and validate every count against the bytes remaining
    before allocating. *)

exception Corrupt of {
  offset : int;
  expected : string;
  found : string;
}

(** Raise {!Corrupt}. *)
val corrupt : offset:int -> expected:string -> found:string -> 'a

(** {1 CRC32} IEEE 802.3 (reflected, the zlib polynomial). *)

val crc32 : bytes -> int
val crc32_sub : bytes -> int -> int -> int
val crc32_string : string -> int

(** [crc32_update crc data pos len] continues a running checksum. *)
val crc32_update : int -> bytes -> int -> int -> int

(** {1 Writer} All integers LEB128 varints; signed ints zigzag. *)

val put_varint : Buffer.t -> int -> unit
val put_int : Buffer.t -> int -> unit
val put_string : Buffer.t -> string -> unit
val put_float : Buffer.t -> float -> unit

(** Inline label: tag byte (1=int 2=float 3=str 4=bool 5=sym), payload. *)
val put_label : Buffer.t -> Ssd.Label.t -> unit

(** {1 Reader} *)

type reader = {
  data : bytes;
  mutable pos : int;
}

val reader : bytes -> reader
val reader_of_string : string -> reader
val remaining : reader -> int
val byte : reader -> int
val get_varint : reader -> int
val get_int : reader -> int
val get_string : reader -> string
val get_float : reader -> float
val get_label : reader -> Ssd.Label.t

(** [check_count r ~what ~unit_bytes n] rejects a count [n] of items
    each at least [unit_bytes] wide that cannot fit in the bytes left. *)
val check_count : reader -> what:string -> unit_bytes:int -> int -> unit

(** Consume the exact magic string or raise {!Corrupt} at the current
    offset. *)
val expect_magic : reader -> string -> unit

(** Raise {!Corrupt} unless the reader consumed all input. *)
val expect_end : reader -> unit
