open Bufkit
open Alf_core

(* Stage-0 ingress validation: a total, allocation-free classification of
   a borrowed datagram, run on the I/O thread before demux. Anything the
   shards would have to reject anyway — runts, oversized units, unknown
   kinds, self-inconsistent fragment headers, malformed control bodies —
   is refused here for O(1) work, so no byte sequence can raise, reach a
   session table, or cost more than a bounded header inspection before
   it is classified. Every rejection maps to exactly one {!reason}. *)

type reason =
  | Runt
  | Oversize
  | Bad_kind
  | Frag_header
  | Ctl_malformed
  | Fec_unsupported
  | Backpressure
  | Bad_crc
  | Bad_adu
  | Window
  | Policed_new
  | Policed_ctl
  | Shed
  | Dispatch_error
  | Auth

let all_reasons =
  [|
    Runt;
    Oversize;
    Bad_kind;
    Frag_header;
    Ctl_malformed;
    Fec_unsupported;
    Backpressure;
    Bad_crc;
    Bad_adu;
    Window;
    Policed_new;
    Policed_ctl;
    Shed;
    Dispatch_error;
    Auth;
  |]

let reason_count = Array.length all_reasons

let reason_index = function
  | Runt -> 0
  | Oversize -> 1
  | Bad_kind -> 2
  | Frag_header -> 3
  | Ctl_malformed -> 4
  | Fec_unsupported -> 5
  | Backpressure -> 6
  | Bad_crc -> 7
  | Bad_adu -> 8
  | Window -> 9
  | Policed_new -> 10
  | Policed_ctl -> 11
  | Shed -> 12
  | Dispatch_error -> 13
  | Auth -> 14

let reason_name = function
  | Runt -> "runt"
  | Oversize -> "oversize"
  | Bad_kind -> "bad_kind"
  | Frag_header -> "frag_header"
  | Ctl_malformed -> "ctl_malformed"
  | Fec_unsupported -> "fec_unsupported"
  | Backpressure -> "backpressure"
  | Bad_crc -> "bad_crc"
  | Bad_adu -> "bad_adu"
  | Window -> "window"
  | Policed_new -> "policed_new"
  | Policed_ctl -> "policed_ctl"
  | Shed -> "shed"
  | Dispatch_error -> "dispatch_error"
  | Auth -> "auth"

(* A malformed-shape rejection: the datagram's bytes themselves are bad,
   as opposed to a policy drop (backpressure, policing, shedding) of a
   well-formed unit. The distinction is what lets tests equate injected
   malformed counts with drop-counter sums. *)
let is_malformed = function
  | Runt | Oversize | Bad_kind | Frag_header | Ctl_malformed | Fec_unsupported
  | Bad_crc | Bad_adu | Auth ->
      true
  | Backpressure | Window | Policed_new | Policed_ctl | Shed | Dispatch_error
    ->
      false

type limits = {
  trailer : int;  (** Integrity-trailer bytes at the end (0 or 4). *)
  max_len : int;  (** Largest acceptable datagram, trailer included. *)
  max_total_len : int;  (** Largest acceptable encoded-ADU [total_len]. *)
}

type verdict = Accept of int | Reject of reason

(* Every branch reads only fixed offsets already proven in range by the
   body-length checks, so the function is total by inspection: no
   exception, no allocation (each [Some reason] is a constant), O(1)
   work per datagram. The trailer CRC is NOT verified here — that costs
   O(len) hashing and happens on the owning shard's domain — but its
   length accounting is: a body too short to carry the declared
   structure plus the trailer never reaches a shard. *)
let check limits buf =
  let len = Bytebuf.length buf in
  let body = len - limits.trailer in
  if body < 3 then Some Runt
  else if len > limits.max_len then Some Oversize
  else
    match Bytebuf.get_uint8 buf 0 with
    | b0 when b0 = Framing.frag_magic ->
        if body < Framing.fragment_header_size then Some Frag_header
        else
          let frag_idx = Bytebuf.get_uint16_be buf 7 in
          let nfrags = Bytebuf.get_uint16_be buf 9 in
          let total_len = Bytebuf.get_uint32_be buf 11 in
          let frag_off = Bytebuf.get_uint32_be buf 15 in
          let chunk = body - Framing.fragment_header_size in
          if
            nfrags = 0 || frag_idx >= nfrags
            || total_len < Adu.header_size
            || total_len > limits.max_total_len
            || frag_off + chunk > total_len
            || (nfrags = 1 && (frag_off <> 0 || chunk <> total_len))
          then Some Frag_header
          else None
    | b0 when b0 = Ctl.tag_close ->
        if body = 7 then None else Some Ctl_malformed
    | b0 when b0 = Ctl.tag_done ->
        if body = 3 then None else Some Ctl_malformed
    | b0 when b0 = Ctl.tag_nack ->
        if body >= 9 && body = 9 + (4 * Bytebuf.get_uint16_be buf 7) then None
        else Some Ctl_malformed
    | b0 when b0 = Ctl.tag_gone ->
        if body >= 5 && body = 5 + (4 * Bytebuf.get_uint16_be buf 3) then None
        else Some Ctl_malformed
    | b0 when b0 = Ctl.tag_fec -> Some Fec_unsupported
    | _ -> Some Bad_kind

let validate limits buf =
  match check limits buf with
  | None -> Accept (Bytebuf.get_uint16_be buf 1)
  | Some reason -> Reject reason
