(** The transport's control-message codec and per-datagram integrity
    trailer, factored out of {!Alf_transport} so the single-session
    endpoints and the {!Serve} sharded engine speak one wire dialect.

    Control messages share the datagram space with data fragments
    ({!Framing.frag_magic} = 0xAD) and FEC blocks ([tag_fec]); the first
    byte discriminates, and every message keeps the stream id at bytes
    1–2 — the fixed position {!Mux} and the serve demux dispatch on
    without parsing the rest. *)

open Bufkit

val tag_nack : int
val tag_close : int
val tag_done : int
val tag_gone : int
val tag_fec : int

(** {1 Integrity trailer} *)

val trailer_size : int

val seal : Checksum.Kind.t option -> Bytebuf.t -> Bytebuf.t
(** Append the 4-byte big-endian digest of [buf] (identity when the kind
    is [None]). Allocates the sealed datagram. *)

val seal_in_place : Checksum.Kind.t option -> Bytebuf.t -> len:int -> int
(** Seal the [len]-byte body already sitting at the front of [buf],
    writing the trailer at [len]; returns the total datagram length.
    [buf] must have at least [len + trailer_size] bytes of room. The
    allocation-free path for pooled control buffers. *)

val unsealed_length : Checksum.Kind.t option -> Bytebuf.t -> len:int -> int
(** [unsealed_length k buf ~len] verifies the trailer of the datagram
    held in [buf.(0 .. len-1)] and returns its body length, or [-1] on
    mismatch or truncation. Builds no view: with [Crc32] (or no
    integrity) it allocates nothing — the per-datagram form. *)

val unseal : Checksum.Kind.t option -> Bytebuf.t -> Bytebuf.t option
(** Verify and strip the trailer; [None] on mismatch or truncation. The
    returned body is a view into [buf]. {!unsealed_length} plus the
    view, for callers that keep the body as a buffer. *)

(** {1 Messages} *)

type msg =
  | Nack of { stream : int; have_below : int; indices : int list }
      (** Receiver → sender: everything below [have_below] is settled;
          [indices] are missing. *)
  | Close of { stream : int; total : int }
      (** Sender → receiver: the stream holds exactly [total] ADUs. *)
  | Done of { stream : int }
      (** Receiver → sender: every index settled; release everything. *)
  | Gone of { stream : int; indices : int list }
      (** Sender → receiver: [indices] are unrecoverable; stop asking. *)

val stream_of : msg -> int

val parse : Bytebuf.t -> msg option
(** Parse an unsealed control body. [None] on an unknown tag or a
    truncated message — the caller drops, it never throws. Built on
    {!read}. *)

(** {2 Reading without allocating}

    The per-datagram form: {!read} validates a body against its own
    counts and copies its scalar fields into caller-owned scratch; the
    indices of a NACK or GONE stay in the buffer and are read with
    {!index}. Nothing is allocated. *)

type fields = {
  mutable stream : int;
  mutable have_below : int;  (** NACK only. *)
  mutable total : int;  (** CLOSE only. *)
  mutable count : int;  (** Index count, NACK and GONE only. *)
  mutable first : int;  (** Byte offset of index 0, NACK and GONE only. *)
}

val fields : unit -> fields
(** Fresh scratch, to be reused across {!read}s by one thread. *)

val read : fields -> Bytebuf.t -> len:int -> int
(** [read f buf ~len] reads the control body [buf.(0 .. len-1)]. Returns
    its tag ([tag_nack], [tag_close], [tag_done] or [tag_gone]) with the
    fields that tag carries written to [f], or [-1] on an unknown tag or
    a truncated body; trailing bytes are ignored, as by {!parse}. *)

val index : fields -> Bytebuf.t -> int -> int
(** [index f buf i] is index [i] ([0 <= i < f.count]) of the NACK or
    GONE body last {!read} from [buf]. *)

(** Writers lay the message at the front of [buf] and return the body
    length (ready for {!seal_in_place}); [build_*] allocate exactly-sized
    bodies. *)

val write_done : Bytebuf.t -> stream:int -> int
val write_close : Bytebuf.t -> stream:int -> total:int -> int
val write_nack : Bytebuf.t -> stream:int -> have_below:int -> int list -> int
val write_gone : Bytebuf.t -> stream:int -> int list -> int
val build_done : stream:int -> Bytebuf.t
val build_close : stream:int -> total:int -> Bytebuf.t
val build_nack : stream:int -> have_below:int -> int list -> Bytebuf.t
val build_gone : stream:int -> int list -> Bytebuf.t
