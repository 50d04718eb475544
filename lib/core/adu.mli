(** Application Data Units.

    The paper's central object: "the application should break the data
    into suitable aggregates, and the lower levels should preserve these
    frame boundaries as they process the data". An ADU carries its own
    {!name} — the sender-computed, receiver-meaningful description of
    where (and when) its data belongs — so it can be checked, converted
    and delivered {e out of order} with respect to its siblings, and so a
    loss can be reported to the application in application terms.

    The name-space follows §5's two canonical examples: [dest_off] /
    [dest_len] place the ADU in a spatial name-space (a file position, a
    screen tile), and [timestamp_us] places it in time (which video frame
    it belongs to). Applications that need neither leave them zero; the
    [index] alone then names the ADU's place in the sequence.

    The wire encoding protects header and payload together with a CRC-32,
    making every ADU independently verifiable — a synchronisation point in
    the paper's sense. *)

open Bufkit

type name = {
  stream : int;  (** Association id, 0–65535. *)
  index : int;  (** Position in the sender's ADU sequence, 0-based. *)
  dest_off : int;  (** Receiver-side placement offset (bytes, tile id...). *)
  dest_len : int;  (** Length the decoded ADU occupies at the receiver. *)
  timestamp_us : int64;  (** Temporal name (e.g. frame presentation time). *)
}

val name :
  ?dest_off:int -> ?dest_len:int -> ?timestamp_us:int64 -> stream:int ->
  index:int -> unit -> name

val pp_name : Format.formatter -> name -> unit

type t = { name : name; payload : Bytebuf.t }

val make : name -> Bytebuf.t -> t

val header_size : int
(** 36 bytes. *)

val magic : int
(** The 16-bit wire magic at bytes 0–1 of every encoded ADU (0xADF0) —
    exposed so fused send paths can lay the header down in place. *)

val encoded_size : t -> int

exception Decode_error of string

val encode : t -> Bytebuf.t
(** Header (magic, name, payload length, CRC-32 of everything) followed by
    payload, in one fresh buffer. *)

val write_crc : Bytebuf.t -> pos:int -> payload_len:int -> unit
(** [write_crc buf ~pos ~payload_len] fills in the CRC field of the
    encoded ADU at [buf.(pos..)] whose header and payload are already in
    place — the CRC {!encode} writes — for send paths that lay the unit
    down field by field. Allocates nothing. *)

val decode : Bytebuf.t -> t
(** Raises {!Decode_error} on truncation, bad magic or CRC mismatch. The
    payload is a fresh copy. *)

val decode_view : Bytebuf.t -> t
(** Like {!decode}, but the payload {e aliases} the input buffer — zero
    copies, zero allocations. The caller owns the lifetime question: if
    the buffer is pooled or reused (e.g. a {!Bufkit.Pool} reassembly
    buffer), the payload is only valid until the buffer is released, so
    consume or copy it before then. *)

val decode_view_res : Bytebuf.t -> (t, string) result
(** Total form of {!decode_view}: malformed input (truncation, bad magic,
    length mismatch, CRC mismatch) is an [Error _], never an exception.
    Built on {!read}. *)

(** {1 Reading without allocating}

    The per-datagram form the serve engine uses: {!read} verifies an
    encoded ADU in place and copies its header into caller-owned
    scratch; the payload stays where it is. No view, no name, no boxed
    integer and no error string is built. *)

type error = Short | Bad_magic | Length_mismatch | Crc_mismatch

val error_message : error -> string

type fields = {
  mutable h_stream : int;
  mutable h_index : int;
  mutable h_dest_off : int;
  mutable h_dest_len : int;
  mutable h_ts_hi : int;  (** [timestamp_us], upper 32 bits. *)
  mutable h_ts_lo : int;  (** [timestamp_us], lower 32 bits. *)
  mutable h_payload_len : int;
}

val fields : unit -> fields
(** Fresh scratch, to be reused across {!read}s by one thread. *)

val read : fields -> Bytebuf.t -> pos:int -> len:int -> error option
(** [read f buf ~pos ~len] checks the encoded ADU at
    [buf.(pos .. pos+len-1)]: header length, magic, that the length field
    accounts for exactly [len] bytes, and the CRC-32. [None] on success,
    with the header in [f] and the payload at [pos + header_size];
    otherwise a constant [Some error]. Allocates nothing. *)

val name_of : fields -> name
(** The {!name} a successful {!read} decoded. Allocates the record (and
    a boxed [timestamp_us] when it is not zero). *)

val pp : Format.formatter -> t -> unit
