(* Offset-tracking binary readers and writers, shared by the graph codec
   (Seg), the index/DataGuide serializers (lib/index, lib/schema) and
   the persistent store's page, segment and WAL formats (lib/store).

   The reading side follows parsifal's discipline: every decoder tracks
   the byte offset it is looking at and raises a typed {!Corrupt}
   carrying that offset plus expected/found descriptions — no decoder in
   the tree may raise anything else on malformed input, however
   truncated or bit-flipped.
   Counts are validated against the bytes remaining before any
   allocation, so fuzzed inputs cannot drive huge allocations. *)

exception Corrupt of {
  offset : int;
  expected : string;
  found : string;
}

let () =
  Printexc.register_printer (function
    | Corrupt { offset; expected; found } ->
      Some
        (Printf.sprintf "Bytesio.Corrupt at byte %d: expected %s, found %s" offset
           expected found)
    | _ -> None)

let corrupt ~offset ~expected ~found = raise (Corrupt { offset; expected; found })

(* ------------------------------------------------------------------ *)
(* CRC32 (IEEE 802.3, reflected), table-driven                         *)
(* ------------------------------------------------------------------ *)

let crc_table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref n in
         for _ = 0 to 7 do
           c := if !c land 1 <> 0 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
         done;
         !c))

let crc32_update crc data pos len =
  let table = Lazy.force crc_table in
  let c = ref (crc lxor 0xFFFFFFFF) in
  for i = pos to pos + len - 1 do
    c := table.((!c lxor Char.code (Bytes.unsafe_get data i)) land 0xFF) lxor (!c lsr 8)
  done;
  !c lxor 0xFFFFFFFF

let crc32 data = crc32_update 0 data 0 (Bytes.length data)
let crc32_sub data pos len = crc32_update 0 data pos len
let crc32_string s = crc32 (Bytes.unsafe_of_string s)

(* ------------------------------------------------------------------ *)
(* Writer (a thin layer over Buffer)                                   *)
(* ------------------------------------------------------------------ *)

let put_varint buf n =
  if n < 0 then invalid_arg "Bytesio.put_varint: negative";
  let n = ref n in
  let continue = ref true in
  while !continue do
    let low = !n land 0x7f in
    n := !n lsr 7;
    if !n = 0 then begin
      Buffer.add_char buf (Char.chr low);
      continue := false
    end
    else Buffer.add_char buf (Char.chr (low lor 0x80))
  done

(* Signed ints: zigzag. *)
let put_int buf n = put_varint buf (if n >= 0 then n lsl 1 else ((-n) lsl 1) lor 1)

let put_string buf s =
  put_varint buf (String.length s);
  Buffer.add_string buf s

let put_float buf f = Buffer.add_int64_le buf (Int64.bits_of_float f)

(* Inline label encoding (no string table): tag byte then payload.
   Segments that want dictionary compression (the store's CSR segment)
   keep their own table and encode Str/Sym as indices themselves. *)
let put_label buf (l : Ssd.Label.t) =
  match l with
  | Ssd.Label.Int i ->
    Buffer.add_char buf '\001';
    put_int buf i
  | Ssd.Label.Float f ->
    Buffer.add_char buf '\002';
    put_float buf f
  | Ssd.Label.Str s ->
    Buffer.add_char buf '\003';
    put_string buf s
  | Ssd.Label.Bool b ->
    Buffer.add_char buf '\004';
    Buffer.add_char buf (if b then '\001' else '\000')
  | Ssd.Label.Sym s ->
    Buffer.add_char buf '\005';
    put_string buf s

(* ------------------------------------------------------------------ *)
(* Reader                                                              *)
(* ------------------------------------------------------------------ *)

type reader = {
  data : bytes;
  mutable pos : int;
}

let reader data = { data; pos = 0 }
let reader_of_string s = { data = Bytes.unsafe_of_string s; pos = 0 }

let remaining r = Bytes.length r.data - r.pos

let byte r =
  if r.pos >= Bytes.length r.data then
    corrupt ~offset:r.pos ~expected:"one more byte" ~found:"end of input";
  let c = Bytes.get_uint8 r.data r.pos in
  r.pos <- r.pos + 1;
  c

let get_varint r =
  let start = r.pos in
  let rec go shift acc =
    if shift > 62 then
      corrupt ~offset:start ~expected:"a varint of at most 9 bytes"
        ~found:"a longer continuation";
    let b = byte r in
    let acc = acc lor ((b land 0x7f) lsl shift) in
    (* The last groups shift past bit 62: an adversarial encoding can
       wrap [acc] negative, which would slip through every [>= n] bound
       check downstream. *)
    if acc < 0 then
      corrupt ~offset:start ~expected:"a varint below 2^62" ~found:"an overflow";
    if b land 0x80 <> 0 then go (shift + 7) acc else acc
  in
  go 0 0

let get_int r =
  let z = get_varint r in
  if z land 1 = 0 then z lsr 1 else -(z lsr 1)

let get_string r =
  let n = get_varint r in
  if n > remaining r then
    corrupt ~offset:r.pos
      ~expected:(Printf.sprintf "%d bytes of string payload" n)
      ~found:(Printf.sprintf "%d bytes left" (remaining r));
  let s = Bytes.sub_string r.data r.pos n in
  r.pos <- r.pos + n;
  s

let get_float r =
  if remaining r < 8 then
    corrupt ~offset:r.pos ~expected:"8 bytes of float payload"
      ~found:(Printf.sprintf "%d bytes left" (remaining r));
  let bits = Bytes.get_int64_le r.data r.pos in
  r.pos <- r.pos + 8;
  Int64.float_of_bits bits

let get_label r =
  let tag_off = r.pos in
  match byte r with
  | 1 -> Ssd.Label.Int (get_int r)
  | 2 -> Ssd.Label.Float (get_float r)
  | 3 -> Ssd.Label.Str (get_string r)
  | 4 -> Ssd.Label.Bool (byte r <> 0)
  | 5 -> Ssd.Label.Sym (get_string r)
  | t -> corrupt ~offset:tag_off ~expected:"a label tag in 1..5" ~found:(string_of_int t)

(* A count of things each at least [unit_bytes] wide cannot exceed the
   bytes left; checking up front keeps fuzzed inputs from driving huge
   allocations before the truncation is even noticed. *)
let check_count r ~what ~unit_bytes n =
  if n > remaining r / unit_bytes then
    corrupt ~offset:r.pos
      ~expected:(Printf.sprintf "%s encodable in the %d bytes left" what (remaining r))
      ~found:(string_of_int n)

let expect_magic r magic =
  let off = r.pos in
  let n = String.length magic in
  if remaining r < n || Bytes.sub_string r.data off n <> magic then
    corrupt ~offset:off
      ~expected:(Printf.sprintf "magic %S" magic)
      ~found:
        (if remaining r < n then Printf.sprintf "%d-byte input" (remaining r)
         else Printf.sprintf "%S" (Bytes.sub_string r.data off n));
  r.pos <- off + n

let expect_end r =
  if r.pos <> Bytes.length r.data then
    corrupt ~offset:r.pos ~expected:"end of input"
      ~found:(Printf.sprintf "%d trailing bytes" (remaining r))
