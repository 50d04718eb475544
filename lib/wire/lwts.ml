open Bufkit

exception Error of string

let error fmt = Format.kasprintf (fun s -> raise (Error s)) fmt

let rec sizeof (schema : Xdr.schema) (v : Value.t) =
  match (schema, v) with
  | S_void, Null -> 0
  | S_bool, Bool _ -> 1
  | S_int, Int _ -> 4
  | S_hyper, (Int64 _ | Int _) -> 8
  | (S_opaque, Octets s) | (S_string, Utf8 s) -> 4 + String.length s
  | S_array s, List vs -> List.fold_left (fun acc v -> acc + sizeof s v) 4 vs
  | S_struct ss, List vs ->
      if List.length ss <> List.length vs then error "LWTS: struct arity mismatch";
      List.fold_left2 (fun acc s v -> acc + sizeof s v) 0 ss vs
  | S_struct ss, Record fs -> sizeof (S_struct ss) (List (List.map snd fs))
  | ( (S_void | S_bool | S_int | S_hyper | S_opaque | S_string | S_array _ | S_struct _),
      (Null | Bool _ | Int _ | Int64 _ | Octets _ | Utf8 _ | List _ | Record _) )
    ->
      error "LWTS: value does not match schema"

let put_u32le_int w v = Cursor.put_u32le w (Int32.of_int v)

let rec encode_into (schema : Xdr.schema) (v : Value.t) w =
  match (schema, v) with
  | S_void, Null -> ()
  | S_bool, Bool b -> Cursor.put_u8 w (if b then 1 else 0)
  | S_int, Int i -> put_u32le_int w i
  | S_hyper, Int64 i ->
      Cursor.put_u32le w (Int64.to_int32 i);
      Cursor.put_u32le w (Int64.to_int32 (Int64.shift_right_logical i 32))
  | S_hyper, Int i -> encode_into S_hyper (Int64 (Int64.of_int i)) w
  | (S_opaque, Octets s) | (S_string, Utf8 s) ->
      put_u32le_int w (String.length s);
      Cursor.put_string w s
  | S_array s, List vs ->
      put_u32le_int w (List.length vs);
      List.iter (fun v -> encode_into s v w) vs
  | S_struct ss, List vs ->
      if List.length ss <> List.length vs then error "LWTS: struct arity mismatch";
      List.iter2 (fun s v -> encode_into s v w) ss vs
  | S_struct ss, Record fs -> encode_into (S_struct ss) (List (List.map snd fs)) w
  | ( (S_void | S_bool | S_int | S_hyper | S_opaque | S_string | S_array _ | S_struct _),
      (Null | Bool _ | Int _ | Int64 _ | Octets _ | Utf8 _ | List _ | Record _) )
    ->
      error "LWTS: value does not match schema"

let encode schema v =
  let buf = Bytebuf.create (sizeof schema v) in
  let w = Cursor.writer buf in
  encode_into schema v w;
  Cursor.written w

let u32le_int r = Int32.to_int (Cursor.u32le r)

let rec decode_value (schema : Xdr.schema) r : Value.t =
  match schema with
  | S_void -> Null
  | S_bool -> (
      match Cursor.u8 r with
      | 0 -> Bool false
      | 1 -> Bool true
      | n -> error "LWTS: boolean with value %d" n)
  | S_int -> Int (u32le_int r)
  | S_hyper ->
      let lo = Cursor.u32le r in
      let hi = Cursor.u32le r in
      Value.canonical
        (Int64
           (Int64.logor
              (Int64.shift_left (Int64.of_int32 hi) 32)
              (Int64.logand (Int64.of_int32 lo) 0xFFFFFFFFL)))
  | S_opaque ->
      let n = u32le_int r in
      if n < 0 || n > Cursor.remaining r then error "LWTS: bad length %d" n;
      Octets (Cursor.string r n)
  | S_string ->
      let n = u32le_int r in
      if n < 0 || n > Cursor.remaining r then error "LWTS: bad length %d" n;
      Utf8 (Cursor.string r n)
  | S_array s ->
      let n = u32le_int r in
      (* See the XDR note: void elements are zero bytes. *)
      if n < 0 || n > 0x1000000 then error "LWTS: unreasonable count %d" n;
      let rec go k acc =
        if k = 0 then List.rev acc else go (k - 1) (decode_value s r :: acc)
      in
      List (go n [])
  | S_struct ss -> List (List.map (fun s -> decode_value s r) ss)

let decode_prefix schema buf =
  let r = Cursor.reader buf in
  let v =
    try decode_value schema r with
    | Cursor.Underflow msg -> error "LWTS: truncated input (%s)" msg
  in
  (v, Cursor.pos r)

let decode schema buf =
  let v, consumed = decode_prefix schema buf in
  if consumed <> Bytebuf.length buf then
    error "LWTS: %d trailing bytes" (Bytebuf.length buf - consumed);
  v

(* Fast paths: count + packed little-endian words, one store loop. *)
let encode_int_array a =
  let n = Array.length a in
  let buf = Bytebuf.create (4 + (4 * n)) in
  let bytes = Bytebuf.storage buf and base = Bytebuf.offset buf in
  let set32 off v =
    Bytes.unsafe_set bytes (base + off) (Char.unsafe_chr (v land 0xff));
    Bytes.unsafe_set bytes (base + off + 1) (Char.unsafe_chr ((v lsr 8) land 0xff));
    Bytes.unsafe_set bytes (base + off + 2) (Char.unsafe_chr ((v lsr 16) land 0xff));
    Bytes.unsafe_set bytes (base + off + 3) (Char.unsafe_chr ((v lsr 24) land 0xff))
  in
  set32 0 n;
  for i = 0 to n - 1 do
    set32 (4 + (4 * i)) a.(i)
  done;
  buf

let decode_int_array buf =
  let r = Cursor.reader buf in
  let n = u32le_int r in
  if n < 0 || 4 * n > Cursor.remaining r then
    error "LWTS: array count %d exceeds input" n;
  Array.init n (fun _ -> u32le_int r)
