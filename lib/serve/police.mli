(** Per-peer token-bucket policing over a fixed-size table.

    Buckets are indexed by the {!Demux} hash modulo the table size, so
    the table is pre-allocated at creation and {e never grows} — the
    policer cannot itself be turned into a memory attack. Distinct peers
    may collide on a bucket; a collision only makes policing stricter
    for the colliding pair, never looser. Buckets start full, so honest
    startup bursts up to [burst] pass untouched.

    Not thread-safe on its own: each shard owns its instances and calls
    them under the shard mutex. *)

type t

val create : buckets:int -> rate:float -> burst:float -> unit -> t
(** [rate] tokens per second refill, capacity [burst], all buckets full.
    Raises [Invalid_argument] on non-positive parameters. *)

val allow : t -> key:int64 -> now:float -> bool
(** Take one token from [key]'s bucket at time [now]; [false] when the
    bucket is empty (the caller drops and counts the datagram). O(1),
    allocation-free. [now] is the backend clock ({!Rt.Sched}); calls
    with non-monotone [now] are safe (no refill on backwards time). *)

val allow_int : t -> key:int -> now:float -> bool
(** {!allow} with the key as an int — {!Demux.hash_int} — so that the
    call passes no boxed [int64]: the form the serve engine uses on
    every control datagram and admission. [allow ~key] is
    [allow_int ~key:(Int64.to_int key)]. *)

val tokens_left : t -> key:int64 -> float
(** Current token count of [key]'s bucket (as of its last refill) — for
    tests. *)
