(** Stage-0 ingress validation: total, allocation-free pre-demux
    classification of a borrowed datagram.

    The serve engine's invariants were proven against cooperative peers;
    this module is the first line against adversarial ones. Every
    datagram is classified in O(1) header inspection before it can touch
    a shard: routed, or counted under exactly one [serve.drop.*] reason
    and dropped. No byte sequence can raise or allocate in {!check}. *)

open Bufkit

(** Why a datagram was dropped. The first eight and [Auth] are
    {e malformed-shape} reasons (the bytes themselves are bad); the rest
    are {e policy} drops of well-formed traffic. Stage 0 itself only
    emits [Runt], [Oversize], [Bad_kind], [Frag_header], [Ctl_malformed]
    and [Fec_unsupported]; the others are attributed by later stages
    ([Bad_crc]/[Bad_adu] on the shard after unsealing, [Backpressure] at
    staging, [Window] at the index clamp, [Policed_*] by {!Police},
    [Shed] in brownout, [Dispatch_error] by the last-resort dispatch
    guard, [Auth] at the AEAD record open). *)
type reason =
  | Runt  (** Too short to carry a stream id (or a negative body). *)
  | Oversize  (** Longer than the staging buffers — unservable. *)
  | Bad_kind  (** Unknown discriminator byte. *)
  | Frag_header  (** Self-inconsistent fragment header. *)
  | Ctl_malformed  (** Control body length disagrees with its own counts. *)
  | Fec_unsupported  (** FEC-wrapped units are not served. *)
  | Backpressure  (** Staging pool exhausted at ingest. *)
  | Bad_crc  (** Integrity trailer failed on the shard. *)
  | Bad_adu  (** Reassembled unit failed the ADU decode/CRC. *)
  | Window  (** Index at or beyond [frontier + ]{!Alf_core.Rx.window}. *)
  | Policed_new  (** Session-creation token bucket empty for this peer. *)
  | Policed_ctl  (** Control-traffic token bucket empty for this peer. *)
  | Shed  (** New admission refused under overload (brownout). *)
  | Dispatch_error  (** Last-resort guard: dispatch raised; counted, not crashed. *)
  | Auth
      (** AEAD record authentication failed ({!Alf_core.Secure.Record}):
          the unit passed every checksum but its Poly1305 tag (or epoch
          window) did not verify — forged or tampered above the CRC.
          Malformed-shape: the bytes themselves are bad. *)

val all_reasons : reason array
(** Every reason, in {!reason_index} order. *)

val reason_count : int

val reason_index : reason -> int
(** Dense index in [0, reason_count) — the drop-counter array slot. *)

val reason_name : reason -> string
(** Stable lowercase name used in Obs counter paths ([serve.drop.<name>]). *)

val is_malformed : reason -> bool
(** [true] for malformed-shape reasons, [false] for policy drops — the
    split that lets tests equate injected-malformed totals with drop sums. *)

type limits = {
  trailer : int;  (** Integrity-trailer bytes at the end (0 or 4). *)
  max_len : int;  (** Largest acceptable datagram, trailer included. *)
  max_total_len : int;  (** Largest acceptable encoded-ADU [total_len]. *)
}

val check : limits -> Bytebuf.t -> reason option
(** Classify a sealed datagram: [None] to route it, or the one reason
    to drop it for. Total: never raises, never allocates (every
    [Some reason] it returns is a constant), reads only fixed header
    offsets proven in range. [max_total_len] bounds the reassembly
    buffer any fragment can demand, closing the
    attacker-controlled-allocation hole. The integrity trailer's {e CRC}
    is not verified here (that is O(len) and happens on the owning
    shard); its {e length} accounting is. *)

type verdict =
  | Accept of int  (** The stream id at bytes 1–2. *)
  | Reject of reason

val validate : limits -> Bytebuf.t -> verdict
(** {!check} as a verdict carrying the stream id. Allocates the
    verdict; the serve engine calls {!check}. *)
