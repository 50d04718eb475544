(** Tuned data-manipulation inner loops.

    These are the OCaml counterparts of the paper's "hand-coded unrolled
    loops": word-at-a-time implementations of the fundamental
    manipulations (copy, Internet checksum) and their {e fused}
    combinations, which read each datum once and do several things with it
    while it is in a register — the Integrated Layer Processing execution
    style. The benchmarks of experiments E1 and E2 time exactly these
    functions; the separate byte-loop variants give the layered base
    case. All functions require equal-length source/destination where both
    appear and raise [Invalid_argument] otherwise. *)

open Bufkit

(** {1 Single-function kernels} *)

val copy : src:Bytebuf.t -> dst:Bytebuf.t -> unit
(** Word-aligned copy ([memcpy] discipline; the paper's throughput
    yardstick). *)

val copy_bytes : src:Bytebuf.t -> dst:Bytebuf.t -> unit
(** Byte-at-a-time copy — the unfused, naive loop, for calibration. *)

val copy_words : src:Bytebuf.t -> dst:Bytebuf.t -> unit
(** Scalar 64-bit-word copy loop. [copy] compiles to the C library's
    vectorised memcpy; this is the 1990-style scalar load/store loop the
    paper's Table 1 actually measured, and the fair baseline when
    comparing against the (equally scalar) fused kernels. *)

val checksum : Bytebuf.t -> int
(** RFC 1071 Internet checksum, 8 bytes per load with lane accumulation
    (result identical to [Checksum.Internet.digest]). *)

val checksum_bytes : Bytebuf.t -> int
(** Byte-at-a-time checksum, for calibration. *)

(** {1 Fused kernels (ILP)} *)

val copy_checksum : src:Bytebuf.t -> dst:Bytebuf.t -> int
(** One loop: copy [src] to [dst] and return [src]'s Internet checksum.
    Each byte is loaded once. *)

val copy_crc32 : src:Bytebuf.t -> dst:Bytebuf.t -> int
(** Copy [src] to [dst] and return its CRC-32 (as a non-negative int),
    64 bytes at a time: each block is moved, then folded into the CRC
    by {!Checksum.Crc32.feed_block64} while it is still in cache.
    Allocates nothing. *)

val copy_checksum_xor :
  src:Bytebuf.t -> dst:Bytebuf.t -> key:int64 -> stream_pos:int64 -> int
(** Three manipulations in one loop: decrypt (seekable XOR keystream, as
    {!Cipher.Pad}), copy into place, and checksum the {e plaintext}.
    Returns the checksum. *)

val checksum_xor_copy :
  src:Bytebuf.t -> dst:Bytebuf.t -> key:int64 -> stream_pos:int64 -> int
(** The sending-side dual: checksum the plaintext [src] and write its
    encryption to [dst], one loop. (XOR is an involution, so this is
    {!copy_checksum_xor} with the checksum taken before the XOR instead
    of after.) *)

(** {1 Layered reference executions} *)

val serial_copy_then_checksum : src:Bytebuf.t -> dst:Bytebuf.t -> int
(** Two passes: {!copy}, then {!checksum} of [dst] — what a layered stack
    does, with the extra memory traffic that implies. *)

val serial_xor_copy_checksum :
  src:Bytebuf.t -> dst:Bytebuf.t -> key:int64 -> stream_pos:int64 -> int
(** Three passes over memory; the layered counterpart of
    {!copy_checksum_xor}. *)
