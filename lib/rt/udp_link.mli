(** Real datagram sockets behind the simulator's link interface.

    One link owns a set of nonblocking UDP sockets (one per bound virtual
    port) on a {!Loop}, and presents exactly the surface
    [Alf_core.Dgram.t] wraps: integer peer addresses, virtual ports, and
    fire-and-forget sends — so the ALF transport runs over the kernel
    unchanged. Address translation is a peer registry: a (addr, port)
    pair names a real [Unix.sockaddr]; sockets bound locally register
    themselves, remote peers are either seeded with {!set_peer} or
    auto-registered the first time a datagram arrives from them (the
    virtual port of an auto-registered peer is synthetic — it is a
    routing token, nothing more, which is all the transport needs).

    Receive is batched, recvmmsg-style: one loop wakeup drains up to
    [recv_batch] datagrams from a readable socket into pooled buffers.
    Delivered payloads are {e borrowed} — they alias a buffer (pooled or
    the link's scratch) that is reused as soon as the handler returns, the
    same contract as pooled reassembly. Steady-state receive therefore
    performs zero buffer allocations per datagram. Sends go straight from
    the caller's buffer to [sendto]: zero copies, zero allocations, and a
    full socket buffer counts as datagram loss (the transport's NACK
    machinery is the recovery path, exactly as on a real network). *)

open Bufkit

type t

type stats = {
  mutable datagrams_sent : int;
  mutable datagrams_received : int;
  mutable send_dropped : int;  (** Would-block / unreachable: wire loss. *)
  mutable no_peer : int;  (** Sends to an unregistered (addr, port). *)
  mutable unrouted : int;  (** Arrivals on a port with no handler. *)
  mutable recv_batches : int;  (** Wakeups that drained >= 1 datagram. *)
  mutable max_batch : int;  (** Largest single-wakeup drain. *)
  mutable recv_pool_misses : int;  (** Pool-exhausted drains that fell
      back to the scratch buffer — the socket-side overload signal. *)
}

val create :
  ?recv_batch:int ->
  ?buf_size:int ->
  ?pool:Pool.t ->
  ?bind_addr:Unix.inet_addr ->
  loop:Loop.t ->
  unit ->
  t
(** [recv_batch] (default 32) datagrams drained per socket wakeup;
    [buf_size] (default 2048) bytes of receive staging — datagrams longer
    than the staging buffer are truncated, so size it above the MTU.
    [?pool] supplies receive buffers (falling back to the link's scratch
    buffer when exhausted); its [buf_size] should also cover the MTU.
    [bind_addr] defaults to 127.0.0.1: loopback needs no privileges,
    which keeps the self-test inside [dune runtest]. *)

val bind : t -> port:int -> (src:int -> src_port:int -> Bytebuf.t -> unit) -> unit
(** Open (on first use) the real socket for a virtual port — an ephemeral
    kernel port on [bind_addr] — and install the arrival handler. *)

val local_addr : t -> port:int -> int
(** The link-assigned integer address of a bound port's socket: what a
    peer on the {e same} link passes as [~peer]/[~dst] to reach it.
    Raises [Not_found] if the port was never bound. *)

val local_sockaddr : t -> port:int -> Unix.sockaddr
(** The bound socket's real address, for seeding a remote process's
    {!set_peer}. Raises [Not_found] if the port was never bound. *)

val set_peer : t -> addr:int -> port:int -> Unix.sockaddr -> unit
(** Name a remote endpoint: sends to [(addr, port)] go to the sockaddr,
    and arrivals from it identify as [(addr, port)]. A sockaddr already
    auto-registered under a synthetic pair (first contact) is upgraded in
    place — the stale pair stops routing, and later arrivals identify
    under the new one; tokens captured before the upgrade are invalid.
    Raises [Invalid_argument] unless [0 <= addr < 2^30] and
    [0 <= port < 2^32]: the pair is kept as one int, so that {!send}
    resolves it without allocating. *)

val send : t -> dst:int -> dst_port:int -> src_port:int -> Bytebuf.t -> bool
(** [false] when the peer is unregistered or the kernel refused the
    datagram (both are wire loss, counted in {!stats}). *)

val max_payload : int
(** 65507 — the UDP maximum. *)

val stats : t -> stats

val close : t -> unit
(** Close every socket and deregister from the loop. Further sends drop;
    idempotent. *)
