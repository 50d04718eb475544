open Bufkit

exception Error of string

let error fmt = Format.kasprintf (fun s -> raise (Error s)) fmt

type schema =
  | S_void
  | S_bool
  | S_int
  | S_hyper
  | S_opaque
  | S_string
  | S_array of schema
  | S_struct of schema list

let check_int32 i =
  if i < Int32.to_int Int32.min_int || i > Int32.to_int Int32.max_int then
    error "XDR: integer %d outside 32-bit range" i

let rec schema_of_value (v : Value.t) =
  match v with
  | Null -> S_void
  | Bool _ -> S_bool
  | Int i ->
      check_int32 i;
      S_int
  | Int64 _ -> S_hyper
  | Octets _ -> S_opaque
  | Utf8 _ -> S_string
  | List [] -> S_array S_int
  | List (v0 :: rest) ->
      let s0 = schema_of_value v0 in
      let ss = List.map schema_of_value rest in
      if List.for_all (fun s -> s = s0) ss then S_array s0
      else S_struct (s0 :: ss)
  | Record fs -> S_struct (List.map (fun (_, v) -> schema_of_value v) fs)

let padding n = (4 - (n land 3)) land 3

(* Children are sized/encoded through top-level mutual recursion, not
   [List.iter (fun v -> ...)] or a rebuilt [List (List.map snd fs)]:
   the hot loops allocate nothing per element. *)
let rec sizeof schema (v : Value.t) =
  match (schema, v) with
  | S_void, Null -> 0
  | S_bool, Bool _ -> 4
  | S_int, Int i ->
      check_int32 i;
      4
  | S_hyper, Int64 _ -> 8
  | S_hyper, Int _ -> 8
  | (S_opaque, Octets s) | (S_string, Utf8 s) ->
      let n = String.length s in
      4 + n + padding n
  | S_array s, List vs -> sizeof_list s vs 4
  | S_struct ss, List vs -> sizeof_struct ss vs 0
  | S_struct ss, Record fs -> sizeof_fields ss fs 0
  | ( (S_void | S_bool | S_int | S_hyper | S_opaque | S_string | S_array _ | S_struct _),
      (Null | Bool _ | Int _ | Int64 _ | Octets _ | Utf8 _ | List _ | Record _) )
    ->
      error "XDR: value does not match schema"

and sizeof_list s vs acc =
  match vs with [] -> acc | v :: tl -> sizeof_list s tl (acc + sizeof s v)

and sizeof_struct ss vs acc =
  match (ss, vs) with
  | [], [] -> acc
  | s :: ss, v :: vs -> sizeof_struct ss vs (acc + sizeof s v)
  | _, _ -> error "XDR: struct arity mismatch"

and sizeof_fields ss fs acc =
  match (ss, fs) with
  | [], [] -> acc
  | s :: ss, (_, v) :: fs -> sizeof_fields ss fs (acc + sizeof s v)
  | _, _ -> error "XDR: struct arity mismatch"

let put_padded w s =
  let n = String.length s in
  Cursor.put_int_as_u32be w n;
  Cursor.put_string w s;
  for _ = 1 to padding n do
    Cursor.put_u8 w 0
  done

let rec encode_into schema (v : Value.t) w =
  match (schema, v) with
  | S_void, Null -> ()
  | S_bool, Bool b -> Cursor.put_int_as_u32be w (if b then 1 else 0)
  | S_int, Int i ->
      check_int32 i;
      Cursor.put_int_as_u32be w i
  | S_hyper, Int64 i -> Cursor.put_u64be w i
  | S_hyper, Int i -> Cursor.put_u64be w (Int64.of_int i)
  | (S_opaque, Octets s) | (S_string, Utf8 s) -> put_padded w s
  | S_array s, List vs ->
      Cursor.put_int_as_u32be w (List.length vs);
      encode_list s vs w
  | S_struct ss, List vs -> encode_struct ss vs w
  | S_struct ss, Record fs -> encode_fields ss fs w
  | ( (S_void | S_bool | S_int | S_hyper | S_opaque | S_string | S_array _ | S_struct _),
      (Null | Bool _ | Int _ | Int64 _ | Octets _ | Utf8 _ | List _ | Record _) )
    ->
      error "XDR: value does not match schema"

and encode_list s vs w =
  match vs with
  | [] -> ()
  | v :: tl ->
      encode_into s v w;
      encode_list s tl w

and encode_struct ss vs w =
  match (ss, vs) with
  | [], [] -> ()
  | s :: ss, v :: vs ->
      encode_into s v w;
      encode_struct ss vs w
  | _, _ -> error "XDR: struct arity mismatch"

and encode_fields ss fs w =
  match (ss, fs) with
  | [], [] -> ()
  | s :: ss, (_, v) :: fs ->
      encode_into s v w;
      encode_fields ss fs w
  | _, _ -> error "XDR: struct arity mismatch"

(* Word-emitting twin of [encode_into]: same wire bytes, but pushed into a
   {!Wordsink} so a fused ILP chain consumes the encoding as it is
   produced. Each fixed-width scalar goes in as one grouped insert. *)
let rec encode_words schema (v : Value.t) sink =
  match (schema, v) with
  | S_void, Null -> ()
  | S_bool, Bool b -> Wordsink.put_u32be sink (if b then 1 else 0)
  | S_int, Int i ->
      check_int32 i;
      Wordsink.put_u32be sink i
  | S_hyper, Int64 i -> Wordsink.put_u64be sink i
  | S_hyper, Int i -> Wordsink.put_u64be sink (Int64.of_int i)
  | (S_opaque, Octets s) | (S_string, Utf8 s) ->
      let n = String.length s in
      Wordsink.put_u32be sink n;
      Wordsink.put_string sink s;
      Wordsink.put_zeros sink (padding n)
  | S_array s, List vs ->
      Wordsink.put_u32be sink (List.length vs);
      words_list s vs sink
  | S_struct ss, List vs -> words_struct ss vs sink
  | S_struct ss, Record fs -> words_fields ss fs sink
  | ( (S_void | S_bool | S_int | S_hyper | S_opaque | S_string | S_array _ | S_struct _),
      (Null | Bool _ | Int _ | Int64 _ | Octets _ | Utf8 _ | List _ | Record _) )
    ->
      error "XDR: value does not match schema"

and words_list s vs sink =
  match vs with
  | [] -> ()
  | v :: tl ->
      encode_words s v sink;
      words_list s tl sink

and words_struct ss vs sink =
  match (ss, vs) with
  | [], [] -> ()
  | s :: ss, v :: vs ->
      encode_words s v sink;
      words_struct ss vs sink
  | _, _ -> error "XDR: struct arity mismatch"

and words_fields ss fs sink =
  match (ss, fs) with
  | [], [] -> ()
  | s :: ss, (_, v) :: fs ->
      encode_words s v sink;
      words_fields ss fs sink
  | _, _ -> error "XDR: struct arity mismatch"

let encode schema v =
  let buf = Bytebuf.create (sizeof schema v) in
  let w = Cursor.writer buf in
  encode_into schema v w;
  Cursor.written w

let read_padded r =
  let n = Cursor.int32_as_int r in
  if n < 0 || n > Cursor.remaining r then error "XDR: bad counted length %d" n;
  let s = Cursor.string r n in
  Cursor.skip r (padding n);
  s

let rec decode_value schema r : Value.t =
  match schema with
  | S_void -> Null
  | S_bool -> (
      match Cursor.int32_as_int r with
      | 0 -> Bool false
      | 1 -> Bool true
      | n -> error "XDR: boolean with value %d" n)
  | S_int -> Int (Cursor.int32_as_int r)
  | S_hyper ->
      (* Normalise to the canonical value form (see Value.canonical). *)
      Value.canonical (Int64 (Cursor.u64be r))
  | S_opaque -> Octets (read_padded r)
  | S_string -> Utf8 (read_padded r)
  | S_array s ->
      let n = Cursor.int32_as_int r in
      (* Elements may encode to zero bytes (void), so bound the count by a
         sanity cap rather than the remaining bytes; truncation surfaces
         as Underflow while decoding the elements. *)
      if n < 0 || n > 0x1000000 then
        error "XDR: unreasonable array count %d" n;
      let rec go k acc =
        if k = 0 then List.rev acc else go (k - 1) (decode_value s r :: acc)
      in
      List (go n [])
  | S_struct ss -> List (List.map (fun s -> decode_value s r) ss)

let decode_reader schema r =
  try decode_value schema r with
  | Cursor.Underflow msg -> error "XDR: truncated input (%s)" msg

let decode_prefix schema buf =
  let r = Cursor.reader buf in
  let v = decode_reader schema r in
  (v, Cursor.pos r)

let decode schema buf =
  let v, consumed = decode_prefix schema buf in
  if consumed <> Bytebuf.length buf then
    error "XDR: %d trailing bytes" (Bytebuf.length buf - consumed);
  v

let rec pp_schema ppf = function
  | S_void -> Format.fprintf ppf "void"
  | S_bool -> Format.fprintf ppf "bool"
  | S_int -> Format.fprintf ppf "int"
  | S_hyper -> Format.fprintf ppf "hyper"
  | S_opaque -> Format.fprintf ppf "opaque<>"
  | S_string -> Format.fprintf ppf "string<>"
  | S_array s -> Format.fprintf ppf "%a<>" pp_schema s
  | S_struct ss ->
      Format.fprintf ppf "@[<hov 1>{%a}@]"
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.fprintf ppf ";@ ")
           pp_schema)
        ss

(* Fast paths: a counted array of 32-bit integers, written with direct
   byte stores. *)
let encode_int_array a =
  let n = Array.length a in
  let buf = Bytebuf.create (4 + (4 * n)) in
  let bytes = Bytebuf.storage buf and base = Bytebuf.offset buf in
  let set32 off v =
    Bytes.unsafe_set bytes (base + off) (Char.unsafe_chr ((v lsr 24) land 0xff));
    Bytes.unsafe_set bytes (base + off + 1) (Char.unsafe_chr ((v lsr 16) land 0xff));
    Bytes.unsafe_set bytes (base + off + 2) (Char.unsafe_chr ((v lsr 8) land 0xff));
    Bytes.unsafe_set bytes (base + off + 3) (Char.unsafe_chr (v land 0xff))
  in
  set32 0 n;
  for i = 0 to n - 1 do
    (* Same range discipline as [schema_of_value]/[encode_into]: XDR
       integers are exactly 32 bits, and the byte stores below would
       silently truncate anything wider. *)
    check_int32 a.(i);
    set32 (4 + (4 * i)) a.(i)
  done;
  buf

let decode_int_array buf =
  let r = Cursor.reader buf in
  let n = Cursor.int32_as_int r in
  if n < 0 || 4 * n > Cursor.remaining r then
    error "XDR: array count %d exceeds input" n;
  Array.init n (fun _ -> Cursor.int32_as_int r)
