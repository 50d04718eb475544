(** Monotonic time in nanoseconds, for instrumenting real (not
    simulated) execution — the per-run cost of a manipulation loop.
    Time a region by reading {!now_ns} before and after it. *)

val now_ns : unit -> int
(** Nanoseconds on the system's monotonic clock (arbitrary origin; only
    differences are meaningful). Allocates nothing. *)
