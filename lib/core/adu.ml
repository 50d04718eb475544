open Bufkit

type name = {
  stream : int;
  index : int;
  dest_off : int;
  dest_len : int;
  timestamp_us : int64;
}

let name ?(dest_off = 0) ?(dest_len = 0) ?(timestamp_us = 0L) ~stream ~index () =
  if stream < 0 || stream > 0xFFFF then invalid_arg "Adu.name: stream out of range";
  if index < 0 then invalid_arg "Adu.name: negative index";
  { stream; index; dest_off; dest_len; timestamp_us }

let pp_name ppf n =
  Format.fprintf ppf "adu[%d.%d @%d+%d t=%Ldus]" n.stream n.index n.dest_off
    n.dest_len n.timestamp_us

type t = { name : name; payload : Bytebuf.t }

let make name payload = { name; payload }

let header_size = 36
let magic = 0xADF0

let encoded_size t = header_size + Bytebuf.length t.payload

exception Decode_error of string

let u32 = Bytebuf.get_uint32_be

(* The CRC covers the whole unit with its own field (bytes 32-35) taken
   as zero: feed the bytes around the field plus four literal zeros
   instead of copying the unit into zeroed scratch. *)
let crc_at buf ~pos ~payload_len =
  let open Checksum.Crc32 in
  let st = feed_sub init buf ~pos ~len:32 in
  let st = feed_byte (feed_byte (feed_byte (feed_byte st 0) 0) 0) 0 in
  finish_int (feed_sub st buf ~pos:(pos + header_size) ~len:payload_len)

let write_crc buf ~pos ~payload_len =
  Bytebuf.set_uint32_be buf (pos + 32) (crc_at buf ~pos ~payload_len)

let encode t =
  let plen = Bytebuf.length t.payload in
  let buf = Bytebuf.create (header_size + plen) in
  let w = Cursor.writer buf in
  Cursor.put_u16be w magic;
  Cursor.put_u16be w t.name.stream;
  Cursor.put_int_as_u32be w t.name.index;
  Cursor.put_u64be w (Int64.of_int t.name.dest_off);
  Cursor.put_int_as_u32be w t.name.dest_len;
  Cursor.put_u64be w t.name.timestamp_us;
  Cursor.put_int_as_u32be w plen;
  Cursor.put_u32be w 0l (* CRC-32 placeholder, bytes 32-35 *);
  Cursor.put_bytes w t.payload;
  write_crc buf ~pos:0 ~payload_len:plen;
  buf

(* --- The allocation-free reader ---

   [read] checks an encoded ADU sitting at [buf.(pos .. pos+len-1)] and
   copies its header fields into caller-owned scratch; the payload stays
   in place at [pos + header_size]. Malformed input is a constant
   [Some error], never an exception and never a formatted string: a
   hostile flood of bad units allocates nothing here. After the length
   check every read is within the 36-byte header. *)

type error = Short | Bad_magic | Length_mismatch | Crc_mismatch

let error_message = function
  | Short -> "ADU shorter than its header"
  | Bad_magic -> "bad ADU magic"
  | Length_mismatch -> "ADU length field does not match the bytes available"
  | Crc_mismatch -> "ADU CRC mismatch"

type fields = {
  mutable h_stream : int;
  mutable h_index : int;
  mutable h_dest_off : int;
  mutable h_dest_len : int;
  mutable h_ts_hi : int;  (* timestamp_us, upper and lower 32 bits *)
  mutable h_ts_lo : int;
  mutable h_payload_len : int;
}

let fields () =
  {
    h_stream = 0;
    h_index = 0;
    h_dest_off = 0;
    h_dest_len = 0;
    h_ts_hi = 0;
    h_ts_lo = 0;
    h_payload_len = 0;
  }


let read f buf ~pos ~len =
  if len < header_size then Some Short
  else if Bytebuf.get_uint16_be buf pos <> magic then Some Bad_magic
  else begin
    let plen = u32 buf (pos + 28) in
    if len <> header_size + plen then Some Length_mismatch
    else if crc_at buf ~pos ~payload_len:plen <> u32 buf (pos + 32) then
      Some Crc_mismatch
    else begin
      f.h_stream <- Bytebuf.get_uint16_be buf (pos + 2);
      f.h_index <- u32 buf (pos + 4);
      (* The u64 field as [Int64.to_int] reads it: the low 63 bits. *)
      f.h_dest_off <- (u32 buf (pos + 8) lsl 32) lor u32 buf (pos + 12);
      f.h_dest_len <- u32 buf (pos + 16);
      f.h_ts_hi <- u32 buf (pos + 20);
      f.h_ts_lo <- u32 buf (pos + 24);
      f.h_payload_len <- plen;
      None
    end
  end

let name_of f =
  {
    stream = f.h_stream;
    index = f.h_index;
    dest_off = f.h_dest_off;
    dest_len = f.h_dest_len;
    timestamp_us =
      (if f.h_ts_hi = 0 && f.h_ts_lo = 0 then 0L
       else
         Int64.logor
           (Int64.shift_left (Int64.of_int f.h_ts_hi) 32)
           (Int64.of_int f.h_ts_lo));
  }

let decode_view_res buf =
  let f = fields () in
  match read f buf ~pos:0 ~len:(Bytebuf.length buf) with
  | Some e -> Error (error_message e)
  | None ->
      Ok
        {
          name = name_of f;
          payload = Bytebuf.sub buf ~pos:header_size ~len:f.h_payload_len;
        }

let decode_view buf =
  match decode_view_res buf with
  | Ok t -> t
  | Error msg -> raise (Decode_error msg)

let decode buf =
  let t = decode_view buf in
  { t with payload = Bytebuf.copy t.payload }

let pp ppf t =
  Format.fprintf ppf "%a len=%d" pp_name t.name (Bytebuf.length t.payload)
