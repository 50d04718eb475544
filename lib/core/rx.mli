(** Stage 1's settlement window for one stream (paper §6): which indices
    are settled — delivered, or declared gone by either end — and when
    the stream is complete. No scheduler, I/O, lock, metrics or
    reassembler: {!Alf_transport}'s receiver and each [Serve.Server]
    session drive one, and retire their own per-index state as the
    frontier moves.

    Indices and the CLOSE total come off the wire as unauthenticated
    u32s, so nothing is admitted at or beyond [frontier + window] and no
    scan passes {!horizon}. *)

val window : int
(** 4096. *)

type t

val create : unit -> t
(** An empty window. The ahead-of-frontier table is made on the first
    out-of-order settle, so an in-order stream never allocates one. *)

val reset : t -> unit
(** Back to the state {!create} returns, for reuse by a new stream. *)

type admit =
  | Fresh  (** Unsettled and below [frontier + window]. *)
  | Dup  (** Already settled (or negative). *)
  | Beyond_window  (** At or beyond [frontier + window]: refuse it. *)

val admit : t -> int -> admit
(** Classify an arriving index; [Fresh] raises the highest index seen.
    Allocates nothing. *)

val settle : t -> int -> delivered:bool -> admit
(** Classify as {!admit}; a [Fresh] index is settled, counted as
    delivered or gone, and the frontier advances over every contiguous
    settled index. *)

val close : t -> int -> unit
(** Record the CLOSE total; the first one wins. *)

val settled : t -> int -> bool

val frontier : t -> int
(** Every index below it is settled. *)

val total : t -> int
(** The CLOSE total, [-1] while unknown. *)

val delivered : t -> int
val gone : t -> int

val horizon : t -> int
(** [min (total, or highest index seen + 1) (frontier + window)]: one
    past the last index worth asking for. *)

val complete : t -> bool
(** The total is known and the frontier has reached it. *)

val missing : t -> cap:int -> int list
(** The lowest [cap] unsettled indices in [\[frontier, horizon)],
    ascending. *)

val ahead_counts : t -> int * int
(** [(delivered, gone)] entries settled ahead of the frontier, fewer
    than {!window} in all (O(table): a test probe). *)
