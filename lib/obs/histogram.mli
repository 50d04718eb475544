(** Log-bucketed histograms for latency and size distributions.

    Values land in geometric buckets four per octave (each ~19% wide), so
    a fixed 250-slot array spans [1, 2⁶²) — nanoseconds to hours without
    choosing bounds up front. Percentiles are read back as the geometric
    midpoint of the covering bucket, clamped to the exact observed
    min/max, so the relative error is bounded by the bucket width.

    Values below 1 (including zero and negatives) share an underflow
    bucket; record latencies in nanoseconds, sizes in bytes, and the
    resolution is never a concern.

    Domain-safe: buckets and moments move together under an internal
    mutex, so concurrent [record]s from worker domains are neither lost
    nor torn, and readers always see count equal to the bucket sum. *)

type t

val create : unit -> t
val record : t -> float -> unit
(** Allocates nothing: safe on per-ADU paths. NaN lands in the underflow
    bucket. *)

val record_int : t -> int -> unit
(** [record_int h n] is [record h (float_of_int n)] with no float boxed
    on the way: the form for integer nanosecond readings of
    {!Clock.now_ns} on per-ADU paths. *)

val count : t -> int
val sum : t -> float
val mean : t -> float
val minimum : t -> float
val maximum : t -> float

val percentile : t -> float -> float
(** [percentile h q] for [q] in [0, 1]; 0 on an empty histogram. *)

val p50 : t -> float
val p90 : t -> float
val p99 : t -> float
val pp : Format.formatter -> t -> unit
