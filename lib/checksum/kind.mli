(** Uniform dispatch over the checksum algorithms.

    Benchmarks, CLI flags and ILP stage factories select an algorithm at
    run time; this module gives them one name-indexed entry point. Results
    are widened to [int] (all fit in 32 bits). *)

open Bufkit

type t = Internet | Fletcher16 | Fletcher32 | Adler32 | Crc32

val all : t list
val to_string : t -> string

val of_string : string -> t option
(** Case-insensitive; accepts the names printed by {!to_string}. *)

val digest : t -> Bytebuf.t -> int

val digest_sub : t -> Bytebuf.t -> pos:int -> len:int -> int
(** [digest_sub k buf ~pos ~len] is [digest k (Bytebuf.sub buf ~pos
    ~len)]. For [Crc32], the integrity trailer every serve datagram
    carries, it builds no view and allocates nothing. *)

val digest_iovec : t -> Iovec.t -> int

type feeder
(** An algorithm-erased incremental computation. *)

val feeder : t -> feeder
val feeder_byte : feeder -> int -> feeder

val feeder_word64le : feeder -> int64 -> feeder
(** Absorb eight data bytes packed little-endian in the word (low octet =
    first byte), equivalent to eight {!feeder_byte} calls. Internet gets
    the 64-bit-lane fast path ({!Internet.feed_word64le}); the other
    algorithms unpack, but still without per-byte allocation. *)

val feeder_buf : feeder -> Bytebuf.t -> feeder
val feeder_finish : feeder -> int
val pp : Format.formatter -> t -> unit
