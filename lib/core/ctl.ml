open Bufkit

(* Control-message discriminators (data fragments start with 0xAD, see
   Framing; FEC-wrapped fragments with 0xFE). *)
let tag_nack = 0xC1
let tag_close = 0xC2
let tag_done = 0xC3
let tag_gone = 0xC4
let tag_fec = 0xFE

(* --- Per-datagram integrity ---

   Every datagram (data fragment or control message) optionally carries a
   4-byte big-endian checksum trailer over the rest of the payload.
   Corrupted transmission units are dropped at stage 1 instead of
   poisoning reassembly or being mistaken for control traffic. Both ends
   must agree on the [integrity] kind; the trailer sits at the end so the
   stream id at bytes 1–2 (what {!Mux} and the serve demux dispatch on)
   keeps its place. *)

let trailer_size = 4

let seal_in_place integrity buf ~len =
  match integrity with
  | None -> len
  | Some kind ->
      Bytebuf.set_uint32_be buf len
        (Checksum.Kind.digest_sub kind buf ~pos:0 ~len land 0xFFFFFFFF);
      len + trailer_size

let seal integrity buf =
  match integrity with
  | None -> buf
  | Some _ ->
      let n = Bytebuf.length buf in
      let out = Bytebuf.create (n + trailer_size) in
      Bytebuf.blit ~src:buf ~src_pos:0 ~dst:out ~dst_pos:0 ~len:n;
      ignore (seal_in_place integrity out ~len:n);
      out

let unsealed_length integrity buf ~len =
  match integrity with
  | None -> len
  | Some kind ->
      if len < trailer_size then -1
      else
        let n = len - trailer_size in
        if
          Checksum.Kind.digest_sub kind buf ~pos:0 ~len:n land 0xFFFFFFFF
          = Bytebuf.get_uint32_be buf n
        then n
        else -1

let unseal integrity buf =
  match integrity with
  | None -> Some buf
  | Some _ ->
      let n = unsealed_length integrity buf ~len:(Bytebuf.length buf) in
      if n < 0 then None else Some (Bytebuf.take buf n)

(* Writers lay the message into the front of [buf] and return the body
   length, so pooled buffers can be filled and sealed in place; the
   [build_*] variants allocate exactly-sized buffers for callers without
   a pool. Bytes go straight into the buffer: no cursor, no view. *)

let room buf n what =
  if Bytebuf.length buf < n then invalid_arg (what ^ ": buffer too small")

let write_done buf ~stream =
  room buf 3 "Ctl.write_done";
  Bytebuf.set_uint8 buf 0 tag_done;
  Bytebuf.set_uint16_be buf 1 stream;
  3

let write_close buf ~stream ~total =
  room buf 7 "Ctl.write_close";
  Bytebuf.set_uint8 buf 0 tag_close;
  Bytebuf.set_uint16_be buf 1 stream;
  Bytebuf.set_uint32_be buf 3 total;
  7

let write_indices buf off indices =
  List.iteri (fun i v -> Bytebuf.set_uint32_be buf (off + (4 * i)) v) indices

let write_nack buf ~stream ~have_below indices =
  let count = List.length indices in
  room buf (9 + (4 * count)) "Ctl.write_nack";
  Bytebuf.set_uint8 buf 0 tag_nack;
  Bytebuf.set_uint16_be buf 1 stream;
  Bytebuf.set_uint32_be buf 3 have_below;
  Bytebuf.set_uint16_be buf 7 count;
  write_indices buf 9 indices;
  9 + (4 * count)

let write_gone buf ~stream indices =
  let count = List.length indices in
  room buf (5 + (4 * count)) "Ctl.write_gone";
  Bytebuf.set_uint8 buf 0 tag_gone;
  Bytebuf.set_uint16_be buf 1 stream;
  Bytebuf.set_uint16_be buf 3 count;
  write_indices buf 5 indices;
  5 + (4 * count)

let build size write =
  let buf = Bytebuf.create size in
  Bytebuf.take buf (write buf)

let build_done ~stream = build 3 (fun b -> write_done b ~stream)

let build_close ~stream ~total =
  build 7 (fun b -> write_close b ~stream ~total)

let build_nack ~stream ~have_below indices =
  build
    (1 + 2 + 4 + 2 + (4 * List.length indices))
    (fun b -> write_nack b ~stream ~have_below indices)

let build_gone ~stream indices =
  build
    (1 + 2 + 2 + (4 * List.length indices))
    (fun b -> write_gone b ~stream indices)

type msg =
  | Nack of { stream : int; have_below : int; indices : int list }
  | Close of { stream : int; total : int }
  | Done of { stream : int }
  | Gone of { stream : int; indices : int list }

let stream_of = function
  | Nack { stream; _ } | Close { stream; _ } | Done { stream }
  | Gone { stream; _ } ->
      stream

(* --- The allocation-free reader ---

   [read] checks a body's length against its own counts and copies its
   scalar fields into caller-owned scratch; the NACK/GONE indices stay
   in the buffer, read one at a time by [index]. {!parse} builds the
   [msg] variant on top of it for callers that want the record. *)

type fields = {
  mutable stream : int;
  mutable have_below : int;
  mutable total : int;
  mutable count : int;
  mutable first : int;  (* byte offset of index 0 in the body *)
}

let fields () = { stream = 0; have_below = 0; total = 0; count = 0; first = 0 }

let read f buf ~len =
  if len < 3 then -1
  else
    let tag = Bytebuf.get_uint8 buf 0 in
    f.stream <- Bytebuf.get_uint16_be buf 1;
    if tag = tag_done then tag
    else if tag = tag_close then
      if len < 7 then -1
      else begin
        f.total <- Bytebuf.get_uint32_be buf 3;
        tag
      end
    else if tag = tag_nack then
      if len < 9 then -1
      else begin
        f.have_below <- Bytebuf.get_uint32_be buf 3;
        f.count <- Bytebuf.get_uint16_be buf 7;
        f.first <- 9;
        if len < 9 + (4 * f.count) then -1 else tag
      end
    else if tag = tag_gone then
      if len < 5 then -1
      else begin
        f.count <- Bytebuf.get_uint16_be buf 3;
        f.first <- 5;
        if len < 5 + (4 * f.count) then -1 else tag
      end
    else -1

let index f buf i = Bytebuf.get_uint32_be buf (f.first + (4 * i))

let parse buf =
  let f = fields () in
  let tag = read f buf ~len:(Bytebuf.length buf) in
  let indices () = List.init f.count (index f buf) in
  if tag = tag_nack then
    Some
      (Nack
         { stream = f.stream; have_below = f.have_below; indices = indices () })
  else if tag = tag_close then
    Some (Close { stream = f.stream; total = f.total })
  else if tag = tag_done then Some (Done { stream = f.stream })
  else if tag = tag_gone then
    Some (Gone { stream = f.stream; indices = indices () })
  else None
