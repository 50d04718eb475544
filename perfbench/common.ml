(* What every workload hands back to [Bench], and the small statistics
   the workloads share. *)

type metric = { name : string; value : float; unit_ : string }

type result = {
  correct : bool;
  problems : string list;  (** One line per failed output check. *)
  attempted : int;  (** ADUs offered. *)
  failed : int;  (** ADUs offered and not delivered. *)
  end_to_end : metric list;
  per_layer : metric list;
  report : string list;  (** Human-readable lines printed before the result. *)
  determinism : string;  (** Seed-determined outputs, compared by the self-check. *)
}

let m name value unit_ = { name; value; unit_ }

let median = function
  | [] -> nan
  | xs ->
      let a = Array.of_list xs in
      Array.sort compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let mean a n =
  let s = ref 0 in
  for i = 0 to n - 1 do
    s := !s + a.(i)
  done;
  float_of_int !s /. float_of_int n

(* Nearest-rank percentiles of the first [n] entries of [a]. Sorts [a]
   in place (heap sort: no allocation), unused slots last. *)
let percentiles a n ps =
  Array.fill a n (Array.length a - n) max_int;
  Array.sort Int.compare a;
  List.map
    (fun p ->
      if n = 0 then nan
      else
        let rank = int_of_float (Float.ceil (p *. float_of_int n)) in
        float_of_int a.(max 0 (min (n - 1) (rank - 1))))
    ps

(* Process-wide allocation, in words: minor-heap allocation plus what
   went straight to the major heap (large buffers), which
   [Gc.minor_words] alone misses. Only [Gc.minor_words] counts the minor
   heap up to the allocation pointer; the minor figure of [Gc.counters]
   and [Gc.quick_stat] lags, which made the count depend on where minor
   collections fell. *)
let alloc_words () =
  let _, promoted, major = Gc.counters () in
  Gc.minor_words () +. major -. promoted

(* Collections and promoted words, summed over timed intervals. *)
type gc = { minors : int; majors : int; promoted : float }

let gc_zero = { minors = 0; majors = 0; promoted = 0.0 }

let gc_now () =
  let s = Gc.quick_stat () and _, promoted, _ = Gc.counters () in
  { minors = s.Gc.minor_collections; majors = s.Gc.major_collections; promoted }

let gc_diff a b =
  { minors = b.minors - a.minors; majors = b.majors - a.majors;
    promoted = b.promoted -. a.promoted }

let gc_add a b =
  { minors = a.minors + b.minors; majors = a.majors + b.majors;
    promoted = a.promoted +. b.promoted }

(* The three gc.* per-layer metrics over [n_adus] delivered ADUs. *)
let gc_metrics g n_adus =
  [
    m "gc.minor_per_kadu" (1e3 *. float_of_int g.minors /. n_adus) "count";
    m "gc.major_per_kadu" (1e3 *. float_of_int g.majors /. n_adus) "count";
    m "gc.promoted_words_per_adu" (g.promoted /. n_adus) "words";
  ]

let heap_top_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1e6

let now_s () = float_of_int (Ledger.now_ns ()) /. 1e9
