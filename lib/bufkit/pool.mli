(** Fixed-size buffer pools.

    End systems that run manipulation loops at line rate cannot afford an
    allocation per packet; a pool recycles same-sized buffers through a
    free stack and keeps occupancy statistics so benchmarks can report
    allocation behaviour alongside throughput.

    {!acquire}, {!try_acquire} and {!release} cost O(1) whatever the
    number of idle buffers: the free stack is an array sized to
    [capacity] at {!create}, and each buffer the pool makes carries a
    hidden tag just past its visible bytes that says which pool made it
    and whether it is on that pool's free stack. In steady state a
    release allocates nothing and a {!try_acquire} allocates only its
    [Some] cell.

    Domain-safe: acquire/release/stats serialize on an internal mutex, so
    worker domains can share one pool without two of them being handed
    the same buffer. The buffers themselves are not synchronized — a
    buffer belongs to whichever domain acquired it until released. *)

type t

type stats = {
  buf_size : int;  (** Size of every buffer handed out. *)
  allocated : int;  (** Fresh buffers ever created. *)
  reused : int;  (** Acquisitions served from the free list. *)
  outstanding : int;  (** Currently acquired and not yet released. *)
  high_water : int;  (** Maximum simultaneous outstanding buffers. *)
  exhausted : int;  (** Acquisitions refused by the [max_outstanding] cap. *)
}

exception Exhausted
(** Raised by {!acquire} when the pool is capped and every buffer is out.
    Chaos soaks use a small cap to model memory pressure; well-behaved
    stages either handle this or use {!try_acquire}. *)

val create : ?capacity:int -> ?max_outstanding:int -> buf_size:int -> unit -> t
(** [create ~buf_size ()] is a pool of [buf_size]-byte buffers. At most
    [capacity] (default 64) released buffers are retained; beyond that,
    releases drop the buffer for the GC. [max_outstanding] (default
    unlimited) caps simultaneously-acquired buffers: at the cap,
    {!acquire} raises {!Exhausted} and {!try_acquire} returns [None].
    Raises [Invalid_argument] if [buf_size <= 0], [capacity < 0], or
    [max_outstanding <= 0]. *)

val acquire : t -> Bytebuf.t
(** A zeroed buffer of [buf_size] bytes, recycled when possible. Raises
    {!Exhausted} if a [max_outstanding] cap is set and reached. *)

val try_acquire : t -> Bytebuf.t option
(** Like {!acquire} but [None] instead of raising at the cap. *)

val release : t -> Bytebuf.t -> unit
(** Return a buffer to the pool. Raises [Invalid_argument] if the buffer
    is not [buf_size] bytes long (it cannot have come from this pool), if
    the buffer is already sitting in the free list (double release — the
    alias would corrupt data for two later acquirers), or if there are no
    outstanding buffers at all. [stats.outstanding] therefore never goes
    negative.

    The first check is exact: a buffer is in the free list only if this
    pool made it, and its tag says so. A foreign buffer of the right size
    (one this pool did not make) is accepted and counted as a release,
    but never kept in the free list, so it can never be handed out by
    {!acquire} and never make a later release look like a double one.
    What cannot be told apart from legal use is a second release of a
    buffer that is not in the free list: one the pool dropped at
    [capacity], or a foreign one, while others are outstanding. *)

val stats : t -> stats
val pp_stats : Format.formatter -> stats -> unit
