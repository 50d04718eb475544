(** Session-to-shard routing: one pure function, used by the {!Server}
    ingest path and by the test oracle, so the property "every datagram
    of a session lands on the same shard" is true by construction and
    checkable from outside. *)

open Bufkit

val hash : peer:int -> peer_port:int -> stream:int -> int64
(** Full-avalanche 64-bit hash of the session key. *)

val hash_int : peer:int -> peer_port:int -> stream:int -> int
(** {!hash}'s low 63 bits as an int. Allocates nothing where {!hash}'s
    boxed [int64] result would: the form the shard tables and {!Police}
    keys use. *)

val shard_of : shards:int -> peer:int -> peer_port:int -> stream:int -> int
(** The owning shard in [0, shards). Deterministic; raises
    [Invalid_argument] when [shards <= 0]. *)

val stream_id : Bytebuf.t -> int
(** The stream id at bytes 1–2, or [-1] when the datagram is too short
    to carry one. Allocates nothing: the form {!Server.ingest} uses. *)

val stream_of_datagram : Bytebuf.t -> int option
(** The stream id at bytes 1–2 — valid for {e sealed} datagrams of every
    kind (fragments and control keep it at a fixed offset; the integrity
    trailer sits at the end), so routing happens before unsealing.
    [None] when the datagram is too short to carry one. *)
